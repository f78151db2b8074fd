"""Morphism search checked against exhaustive enumeration and frozen cases."""

import itertools
import random
import types
from math import gcd, prod
from operator import mul

import pytest

from foundry.foundation import computeFoundation
from foundry.matroid import namedMatroid
from foundry.morphism import (
    NotGeneratedByFundamentalElements,
    PastureMorphism,
    SearchStats,
    _freeRankIncreases,
    countMorphisms,
    fullRankSublattice,
    isIsomorphism,
    isMorphism,
    searchMorphisms,
    sublatticeOf,
)
from foundry.pasture import Pasture, builtinPasture, gfPasture
from foundry.representation import nonRepresentabilityCertificate, representationsOverField
from foundry.zlattice import GroupHom, GroupPresentation, homFinite
from test_sublattice_frozen import FROZEN as SUBLATTICE_FROZEN
from test_sublattice_frozen import pastureOf as frozenSublatticePasture


def bruteMorphisms(p1, p2):
    """Every unit-group hom into a finite target, filtered by the morphism
    criterion.  Column j of the matrix is the image of the j-th generator;
    torsion generators may only go to elements their order annihilates."""
    g1, g2 = p1.group, p2.group
    assert g2.freeRank == 0
    elements = g2.allElements()
    slots = []
    for j in range(g1.dim):
        if j < len(g1.invariants):
            a = g1.invariants[j]
            slots.append([e for e in elements if g2.isZero(g2.scale(a, e))])
        else:
            slots.append(elements)
    out = set()
    for choice in itertools.product(*slots):
        mat = tuple(zip(*choice)) if choice else ((),) * g2.dim
        f = PastureMorphism(p1, p2, GroupHom(g1, g2, mat))
        if isMorphism(f):
            out.add(f.sortKey())
    return out


def sourceFixtures():
    out = {name: builtinPasture(name)
           for name in ["f1pm", "krasner", "sign", "F3", "H", "D", "U"]}
    for q in [4, 5, 7, 9]:
        out["gf%d" % q] = gfPasture(q)
    return out


def targetFixtures():
    out = {name: builtinPasture(name)
           for name in ["f1pm", "krasner", "sign", "F3", "H"]}
    for q in [4, 5, 7, 9, 13, 17]:
        out["gf%d" % q] = gfPasture(q)
    return out


@pytest.mark.parametrize("sourceName", sorted(sourceFixtures()))
def test_search_matches_brute_force(sourceName):
    p1 = sourceFixtures()[sourceName]
    for targetName, p2 in sorted(targetFixtures().items()):
        got = {m.sortKey() for m in searchMorphisms(p1, p2)}
        want = bruteMorphisms(p1, p2)
        assert got == want, (sourceName, targetName)


def test_results_sorted_and_unique():
    fr = computeFoundation(namedMatroid("pappus"))
    ms = searchMorphisms(fr.foundation, gfPasture(8))
    keys = [m.sortKey() for m in ms]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_find_one_is_prefix_of_full_search():
    fr = computeFoundation(namedMatroid("example52"))
    full = searchMorphisms(fr.foundation, gfPasture(5))
    one = searchMorphisms(fr.foundation, gfPasture(5), findOne=True)
    assert len(one) == 1
    assert one[0].sortKey() in {m.sortKey() for m in full}


def test_example_foundation_to_gf5():
    fr = computeFoundation(namedMatroid("example52"))
    stats = SearchStats()
    ms = searchMorphisms(fr.foundation, gfPasture(5), stats=stats)
    assert [m.matrix for m in ms] == [((2, 0, 3, 1),), ((2, 3, 1, 2),)]
    assert stats.valid == 2
    for m in ms:
        assert isMorphism(m)
        assert m.apply(fr.foundation.epsilon) == gfPasture(5).epsilon


SUBLATTICE_COUNTS = {
    "uniform:3,6": (6, 0, 4),
    "uniform:3,7": (16, 0, 6),
    "vamos": (20, 0, 0),
    "pappus": (1, 0, 3),
    "nonpappus": (8, 0, 0),
}


@pytest.mark.parametrize("name", sorted(SUBLATTICE_COUNTS))
def test_sublattice_counts(name):
    fr = computeFoundation(namedMatroid(name))
    sub = sublatticeOf(fr.foundation)
    c = sub.counts
    r = fr.foundation.group.freeRank
    assert c["p1"] + c["p2"] + 2 * c["p3"] == r
    assert (c["p1"], c["p2"], c["p3"]) == SUBLATTICE_COUNTS[name]
    assert len(sub.generators) == r
    assert len(sub.rules) == r
    assert len(sub.typeFourLists) == r


def test_sublattice_rules_are_consistent():
    """Every rule and type-four entry is met by a fundamental pair, on every
    generated frozen sublattice case but the large minus-basis ones.  At
    level l, a t1 rule has some u with (u, x_l) a fundamental pair and
    c_l u = tau - sum(c_i x_i, i < l); a t2 rule has some v with (x_l, v) a
    fundamental pair and c_(l+1) v = tau - sum(c_i x_i, i <= l); an entry
    has some fundamental pair (u, v) with c0u u - sum(cu_i x_i) = tauU and
    c0v v - sum(cv_i x_i) = tauV."""
    checked = {"t1": 0, "t2": 0, "entries": 0}
    for case in sorted(SUBLATTICE_FROZEN):
        if (case.startswith("minus-basis:")
                or SUBLATTICE_FROZEN[case]["record"] == "not generated"):
            continue
        p = frozenSublatticePasture(case)
        g = p.group
        sub = fullRankSublattice(p)
        pairSet = p.pairs
        scaled = {}  # c -> {c * e: [e, ...]} over the fundamental elements e

        def solutions(c, value):
            if c not in scaled:
                scaled[c] = {}
                for e in p.partners:
                    scaled[c].setdefault(g.scale(c, e), []).append(e)
            return scaled[c].get(value, [])

        def combination(coeffs):
            return g.add(*[g.scale(c, x) for c, x in zip(coeffs, sub.generators) if c])

        for level, rule in enumerate(sub.rules, start=1):
            if rule[0] not in ("t1", "t2"):
                continue
            kind, tau, coeffs = rule
            assert not any(g.freePart(tau)), case
            assert len(coeffs) == (level if kind == "t1" else level + 1), case
            xl = sub.generators[level - 1]
            found = solutions(coeffs[-1], g.add(tau, g.neg(combination(coeffs[:-1]))))
            if kind == "t1":
                assert any((u, xl) in pairSet for u in found), (case, level)
            else:
                assert any((xl, v) in pairSet for v in found), (case, level)
            checked[kind] += 1
        for level, bucket in enumerate(sub.typeFourLists, start=1):
            for c0u, cu, tauU, c0v, cv, tauV in bucket:
                assert c0u > 0 and c0v > 0, case
                assert len(cu) == level and len(cv) == level, case
                assert not any(g.freePart(tauU)) and not any(g.freePart(tauV)), case
                us = solutions(c0u, g.add(tauU, combination(cu)))
                vs = solutions(c0v, g.add(tauV, combination(cv)))
                assert any((u, v) in pairSet for u in us for v in vs), (case, level)
                checked["entries"] += 1
    assert all(checked.values()), checked


def test_pappus_to_gf8_count_and_budget():
    fr = computeFoundation(namedMatroid("pappus"))
    stats = SearchStats()
    ms = searchMorphisms(fr.foundation, gfPasture(8), stats=stats)
    assert len(ms) == 18
    assert stats.leafCandidates <= 36


@pytest.mark.parametrize("name", ["vamos", "nonpappus"])
def test_one_fundamental_kills_field_morphisms(name):
    fr = computeFoundation(namedMatroid(name))
    one = (0,) * fr.foundation.group.dim
    assert one in fr.foundation.partners
    for q in [2, 3, 5, 8]:
        stats = SearchStats()
        assert searchMorphisms(fr.foundation, gfPasture(q), stats=stats) == []
        assert stats.leafCandidates == 0


def test_orientability_pins():
    sign = builtinPasture("sign")
    for name, expect in [("vamos", True), ("nonpappus", True), ("fano", False)]:
        fr = computeFoundation(namedMatroid(name))
        ms = searchMorphisms(fr.foundation, sign, findOne=True)
        assert bool(ms) == expect, name


@pytest.mark.parametrize("name,builtin", [
    ("uniform:2,4", "U"),
    ("nonfano", "D"),
    ("ag23", "H"),
    ("t8", "F3"),
])
def test_find_iso_positive(name, builtin):
    fr = computeFoundation(namedMatroid(name))
    ms = searchMorphisms(fr.foundation, builtinPasture(builtin),
                         findIso=True, findOne=True)
    assert len(ms) == 1
    assert isIsomorphism(ms[0])


def test_find_iso_negative():
    # same unit group and pair count, but epsilon pins the only candidate map
    assert searchMorphisms(builtinPasture("F3"), builtinPasture("sign"),
                           findIso=True) == []
    # different invariants
    assert searchMorphisms(builtinPasture("H"), builtinPasture("F3"),
                           findIso=True) == []


def test_embedding_is_morphism_but_not_isomorphism():
    ms = searchMorphisms(gfPasture(4), gfPasture(16))
    assert ms
    for m in ms:
        assert isMorphism(m)
        assert not isIsomorphism(m)


def test_composition_of_morphisms_is_morphism():
    fr = computeFoundation(namedMatroid("example52"))
    first = searchMorphisms(fr.foundation, gfPasture(5))
    second = searchMorphisms(gfPasture(5), gfPasture(25))
    assert first and second
    for f in first:
        for g in second:
            hom = g.hom.compose(f.hom)
            composite = PastureMorphism(fr.foundation, gfPasture(25),
                                        GroupHom(hom.source, hom.target, hom.canonicalMatrix()))
            assert isMorphism(composite)


def test_p0_facts():
    p0 = builtinPasture("P0")
    for q in [2, 3, 4, 5, 7, 8, 9]:
        assert searchMorphisms(p0, gfPasture(q), findOne=True) == []
    for name in ["vamos", "nonpappus"]:
        fr = computeFoundation(namedMatroid(name))
        ms = searchMorphisms(p0, fr.foundation, findOne=True)
        assert len(ms) == 1
        assert isMorphism(ms[0])


def test_not_generated_raises():
    # no hexagons at all: nothing can span the free direction
    lonely = Pasture(GroupPresentation([2], 1), (1, 0), [], name="lonely")
    with pytest.raises(NotGeneratedByFundamentalElements):
        fullRankSublattice(lonely)
    with pytest.raises(NotGeneratedByFundamentalElements):
        searchMorphisms(lonely, gfPasture(5))


def test_sublattice_is_cached():
    p = builtinPasture("U")
    assert sublatticeOf(p) is sublatticeOf(p)


@pytest.mark.parametrize("name,q,count,searchCounts,sublatticeCounts", [
    ("example52", 7, 4, (1, 4, 8, 4), (1, 0, 1, 14)),
    ("pappus", 8, 18, (1, 18, 18, 18), (1, 0, 3, 58)),
])
def test_search_counters_frozen(name, q, count, searchCounts, sublatticeCounts):
    """Factoring A_F once per sublattice leaves every counter as it was."""
    p = computeFoundation(namedMatroid(name)).foundation
    for _ in range(2):  # the second search reuses the sublattice's factorisations
        stats = SearchStats()
        assert len(searchMorphisms(p, gfPasture(q), stats=stats)) == count
        d = stats.asDict()
        assert (d["torsionHoms"], d["leafCandidates"], d["assembled"], d["valid"]) == searchCounts
    c = sublatticeOf(p).counts
    assert (c["p1"], c["p2"], c["p3"], c["p4"]) == sublatticeCounts


@pytest.mark.parametrize("name", ["example52", "fano", "nonfano", "pappus", "ag23",
                                  "uniform(2,5)"])
def test_count_matches_the_listing(name):
    """countMorphisms runs the listing's search, counters and all."""
    p = computeFoundation(namedMatroid(name)).foundation
    for target in [gfPasture(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [builtinPasture("sign")]:
        listed, counted = SearchStats(), SearchStats()
        ms = searchMorphisms(p, target, stats=listed)
        assert countMorphisms(p, target, stats=counted) == len(ms), (name, target)
        assert counted.asDict() == listed.asDict(), (name, target)


def test_trivial_source_cases():
    # krasner needs (1, 1) to stay fundamental; no field satisfies that
    krasner = builtinPasture("krasner")
    assert searchMorphisms(krasner, gfPasture(2)) == []
    assert searchMorphisms(krasner, gfPasture(5)) == []
    assert len(searchMorphisms(krasner, krasner)) == 1
    # the regular partial field maps to every field: send the unit to 1
    f1pm = builtinPasture("f1pm")
    for q in [2, 3, 4, 5, 7]:
        assert len(searchMorphisms(f1pm, gfPasture(q))) >= 1


def denseFreeRankIncreases(echelon, vec):
    """The findIso rank test on dense rows, a list of (pivot, row tuple):
    the oracle for the sparse _freeRankIncreases."""
    work = list(vec)
    for pivot, row in echelon:
        a = work[pivot]
        if a:
            p = row[pivot]
            work = [p * x - a * y for x, y in zip(work, row)]
    if not any(work):
        return None
    g = gcd(*work)
    work = [x // g for x in work]
    pivot = next(i for i, x in enumerate(work) if x)
    if work[pivot] < 0:
        work = [-x for x in work]
    return echelon + [(pivot, tuple(work))]


def test_sparse_rank_test_matches_the_dense_one():
    """Along seeded chains of zero, random, repeated, scaled (negated too)
    and summed vectors with up to 25 coordinates, both tests give the same
    verdict at every step and keep the same rows."""
    rng = random.Random(2023)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        dim = rng.randint(0, 25)
        dense, sparse, seen = [], {}, []
        for _ in range(rng.randint(1, 2 * dim + 2)):
            kind = rng.randrange(6) if seen else rng.choice([0, 1])
            if kind == 0:
                vec = (0,) * dim
            elif kind == 1:
                vec = tuple(rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(dim))
            elif kind == 2:
                vec = rng.choice(seen)
            elif kind == 3:
                c = rng.choice([-3, -2, -1, 2, 3])
                vec = tuple(c * x for x in rng.choice(seen))
            else:
                u, v = rng.choice(seen), rng.choice(seen)
                c = rng.randint(-2, 2)
                vec = tuple(x + c * y for x, y in zip(u, v))
            seen.append(vec)
            grownDense = denseFreeRankIncreases(dense, vec)
            grownSparse = _freeRankIncreases(sparse, vec)
            assert (grownDense is None) == (grownSparse is None), (dense, vec)
            verdicts[grownDense is not None] += 1
            if grownDense is not None:
                dense, sparse = grownDense, grownSparse
                assert list(sparse.items()) == [
                    (pivot, {k: x for k, x in enumerate(row) if x}) for pivot, row in dense]
    assert verdicts[True] > 500 and verdicts[False] > 500


def bruteOffsets(freeMatrix, invariants):
    """Every t x r matrix K whose row i has entries in [0, b_i) and
    satisfies K @ A_F == 0 modulo b_i, for A_F given by its r rows."""
    r = len(freeMatrix)
    rowChoices = [[k for k in itertools.product(range(b), repeat=r)
                   if all(sum(map(mul, k, col)) % b == 0 for col in zip(*freeMatrix))]
                  for b in invariants]
    return set(itertools.product(*rowChoices))


def test_offsets_match_brute_force():
    """sub.offsets on every (source, target torsion) pair with at most 10^4
    candidate matrices: reduced row by row, exactly the solutions of
    K @ A_F == 0, without repeats and all zeros first.  fano and t8 have a
    0 x 0 A_F, example52's has cokernel Z/2 and pappus's is unimodular."""
    checked = 0
    for name in ("fano", "t8", "uniform:2,4", "example52", "pappus"):
        sub = sublatticeOf(computeFoundation(namedMatroid(name)).foundation)
        r = len(sub.freeMatrix)
        for invariants in ((2,), (3,), (6,), (2, 4)):
            if prod(invariants) ** r > 10 ** 4:
                continue
            offsets = sub.offsets(invariants)
            reduced = [tuple(tuple(x % b for x in row) for row, b in zip(offset, invariants))
                       for offset in offsets]
            assert set(reduced) == bruteOffsets(sub.freeMatrix, invariants), (name, invariants)
            assert len(set(reduced)) == len(offsets), (name, invariants)
            assert offsets[0] == ((0,) * r,) * len(invariants), (name, invariants)
            checked += 1
    assert checked == 18
    example52 = sublatticeOf(computeFoundation(namedMatroid("example52")).foundation)
    assert len(example52.offsets((2,))) == 2


def isRows(matrix):
    """Whether the matrix is a tuple of tuples of ints."""
    return type(matrix) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in matrix)


def test_every_matrix_handed_out_is_a_tuple_of_int_tuples():
    example52 = computeFoundation(namedMatroid("example52"))
    fano = computeFoundation(namedMatroid("fano"))
    u24 = computeFoundation(namedMatroid("uniform:2,4")).foundation
    cases = [(example52.foundation, gfPasture(5)), (fano.foundation, gfPasture(2)),
             (fano.foundation, builtinPasture("krasner")),
             (example52.foundation, builtinPasture("sign")), (u24, builtinPasture("U")),
             (u24, u24)]
    for source, target in cases:
        found = searchMorphisms(source, target)
        assert found, (source.name, target.name)
        assert all(isRows(f.matrix) and isRows(f.hom.matrix) for f in found)
    reps = representationsOverField(namedMatroid("example52"), 5)
    assert reps and all(isRows(rep.matrix) for rep in reps)
    # P0 maps into itself, so a foundation equal to P0 has a P0Morphism certificate
    cert = nonRepresentabilityCertificate(
        None, foundationResult=types.SimpleNamespace(foundation=builtinPasture("P0")))
    assert cert.kind == "P0Morphism" and isRows(cert.morphism.matrix)
    assert isRows(example52.rhoZero.matrix) and isRows(fano.rhoZero.matrix)
    groups = [GroupPresentation(invariants, 0) for invariants in ([], [2], [6], [2, 4])]
    for source, target in itertools.product(groups, repeat=2):
        assert all(isRows(h.matrix) for h in homFinite(source, target))
