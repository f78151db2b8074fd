"""Oracles from matroid structure that hold without foundation theory.

Direct sums: the foundation of M1 + M2 is the tensor product of the
summands' foundations, the coproduct of pastures, so every morphism count
out of it is the product of the summands' counts.  Minors: a matroid
representable over a field or over the sign pasture keeps that property in
every minor.  Orientations: a morphism into the sign pasture gives a
chirotope, a Grassmann-Pluecker function that validateGP checks.
"""

import pytest

from foundry.foundation import computeFoundation
from foundry.matroid import Matroid, namedMatroid
from foundry.morphism import countMorphisms, searchMorphisms
from foundry.pasture import builtinPasture, gfPasture
from foundry.representation import gpFromMorphism, validateGP
from test_matroid import relabelled

CATALOGUE = ("example52", "fano", "nonfano", "pappus", "nonpappus", "vamos", "ag23", "t8",
             "uniform:2,5", "uniform:3,6")

# The catalogue matroids, U(2,4) and U(3,7) among them, with a morphism from
# their foundation into sign, and so with a chirotope, as have their duals.
ORIENTABLE = {"example52", "nonfano", "pappus", "nonpappus", "vamos", "uniform:2,4",
              "uniform:2,5", "uniform:3,6", "uniform:3,7"}


def targets(names):
    return [gfPasture(int(name[3:])) if name.startswith("gf:") else builtinPasture(name)
            for name in names]


def directSum(a, b):
    """a + b on the ground set of a followed by that of b, shifted."""
    return Matroid.fromBases(a.n + b.n, [x + tuple(a.n + e for e in y)
                                         for x in a.bases for y in b.bases])


def _dropped(b, e):
    """The basis b without e, the elements above e moved down by one."""
    return tuple(x - (x > e) for x in b if x != e)


def deletion(m, e):
    """M \\ e on n - 1 elements, relabelled down; deleting a coloop is
    contracting it."""
    bases = [b for b in m.bases if e not in b]
    if not bases:
        return contraction(m, e)
    return Matroid.fromBases(m.n - 1, [_dropped(b, e) for b in bases])


def contraction(m, e):
    """M / e on n - 1 elements, relabelled down; contracting a loop is
    deleting it."""
    bases = [b for b in m.bases if e in b]
    if not bases:
        return deletion(m, e)
    return Matroid.fromBases(m.n - 1, [_dropped(b, e) for b in bases])


def foundationOf(m):
    return computeFoundation(m).foundation


SUMS = [("uniform:2,4", "uniform:2,4"), ("fano", "uniform:2,4"), ("nonfano", "uniform:2,4"),
        ("uniform:2,4", "uniform:2,5"), ("example52", "uniform:2,4")]


@pytest.mark.parametrize("left,right", SUMS)
def test_counts_out_of_a_direct_sum_multiply(left, right):
    """count(F(M1 + M2) -> P) == count(F(M1) -> P) * count(F(M2) -> P) into
    five fields, sign, U, D and H."""
    m1, m2 = namedMatroid(left), namedMatroid(right)
    parts = [foundationOf(m) for m in (m1, m2, directSum(m1, m2))]
    wholes = []
    for target in targets(["gf:2", "gf:3", "gf:4", "gf:5", "gf:7", "sign", "U", "D", "H"]):
        one, two, whole = (countMorphisms(p, target) for p in parts)
        assert whole == one * two, target.name
        wholes.append(whole)
    assert max(wholes) > 1  # some target receives several maps of the sum


def test_deletion_and_contraction_relabel_down_and_swap_under_duality():
    """On U(2,4) with a loop and a coloop added: deleting or contracting
    either gives U(2,4) plus the other, and (M \\ e)* == M* / e for every e."""
    u24 = namedMatroid("uniform:2,4")
    m = Matroid.fromBases(6, [b + (5,) for b in u24.bases])  # 4 a loop, 5 a coloop
    withColoop = Matroid.fromBases(5, [b + (4,) for b in u24.bases])
    withLoop = Matroid.fromBases(5, u24.bases)
    assert deletion(m, 4) == contraction(m, 4) == withColoop
    assert deletion(m, 5) == contraction(m, 5) == withLoop
    assert deletion(m, 0) == Matroid.fromBases(5, [b + (4,) for b in ((0, 1), (0, 2), (1, 2))])
    for e in range(m.n):
        assert deletion(m, e).dual() == contraction(m.dual(), e), e
        assert contraction(m, e).dual() == deletion(m.dual(), e), e


def test_minors_keep_representability():
    """For every catalogue matroid M and its dual, and every target P among
    GF(2), GF(3), GF(4), GF(5), GF(7) and sign that F(M) maps to, every
    single-element deletion and contraction of M maps to P as well."""
    checks = 0
    for name in CATALOGUE:
        m = namedMatroid(name)
        for matroid in (m, m.dual()):
            fields = [p for p in targets(["gf:2", "gf:3", "gf:4", "gf:5", "gf:7", "sign"])
                      if searchMorphisms(foundationOf(matroid), p, findOne=True)]
            for e in range(matroid.n):
                for minor in (deletion(matroid, e), contraction(matroid, e)):
                    source = foundationOf(minor)
                    for p in fields:
                        assert searchMorphisms(source, p, findOne=True), (name, e, p.name)
                        checks += 1
    assert checks == 772


def test_orientations_come_with_a_checked_chirotope():
    """Each catalogue matroid, its dual and a seeded relabelling: F(M) maps
    into sign exactly for the orientable ones, and the map found gives a
    Grassmann-Pluecker function into sign that validateGP accepts."""
    sign = builtinPasture("sign")
    for name in CATALOGUE + ("uniform:2,4", "uniform:3,7"):
        m = namedMatroid(name)
        for matroid in (m, m.dual(), relabelled(m, name)):
            fr = computeFoundation(matroid)
            maps = searchMorphisms(fr.foundation, sign, findOne=True)
            assert bool(maps) == (name in ORIENTABLE), name
            assert all(validateGP(gpFromMorphism(fr, f)) for f in maps), name
