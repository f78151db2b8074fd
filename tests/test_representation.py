"""Representation extraction pinned against hand-computed matrices."""

import pytest

from foundry._gf import FiniteField
from foundry.foundation import computeFoundation
from foundry.matroid import namedMatroid
from foundry.morphism import searchMorphisms
from foundry.pasture import gfPasture
from foundry.representation import (
    Certificate,
    GPFunction,
    gpFromMorphism,
    gpToMatrix,
    isOrientable,
    matroidOfMatrix,
    nonRepresentabilityCertificate,
    representationsOverField,
    validateGP,
)

EXAMPLE52_MATRICES = [
    ((1, 0, 1, 0, 1, 1, 1), (0, 1, 1, 0, 0, 1, 4), (0, 0, 0, 1, 1, 1, 4)),
    ((1, 0, 1, 0, 1, 1, 1), (0, 1, 1, 0, 0, 1, 2), (0, 0, 0, 1, 1, 1, 2)),
]

EXAMPLE52_GP = {
    (0, 1, 3): 0, (0, 1, 4): 0, (0, 1, 5): 0, (0, 1, 6): 2,
    (0, 2, 3): 0, (0, 2, 4): 0, (0, 2, 5): 0, (0, 2, 6): 2,
    (0, 3, 5): 0, (0, 3, 6): 2, (0, 4, 5): 0, (0, 4, 6): 2,
    (1, 2, 3): 0, (1, 2, 4): 0, (1, 2, 5): 0, (1, 2, 6): 2,
    (1, 3, 4): 0, (1, 3, 5): 0, (1, 3, 6): 0, (1, 4, 6): 1,
    (1, 5, 6): 1, (2, 3, 4): 0, (2, 3, 6): 1, (2, 4, 5): 2,
    (2, 4, 6): 3, (2, 5, 6): 1, (3, 4, 5): 2, (3, 4, 6): 0,
    (3, 5, 6): 1, (4, 5, 6): 1,
}

FANO_GF2_MATRIX = (
    (1, 0, 1, 0, 1, 0, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)

EXAMPLE52_COLUMNS = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                     (1, 0, 1), (1, 1, 1), (1, 4, 4)]
FANO_COLUMNS = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_example52_representations_over_gf5():
    m = namedMatroid("example52")
    fr = computeFoundation(m)
    reps = representationsOverField(m, 5, foundationResult=fr)
    assert [r.matrix for r in reps] == EXAMPLE52_MATRICES
    for r in reps:
        assert sorted(matroidOfMatrix(r.matrix, r.field).bases) == sorted(m.bases)


def test_example52_gp_values_frozen():
    m = namedMatroid("example52")
    fr = computeFoundation(m)
    morphisms = searchMorphisms(fr.foundation, gfPasture(5))
    first = next(f for f in morphisms
                 if gpToMatrix(fr, f) == EXAMPLE52_MATRICES[0])
    gp = gpFromMorphism(fr, first)
    assert {b: v[0] % 4 for b, v in gp.values.items()} == EXAMPLE52_GP
    assert validateGP(gp)


def test_gp_validation_has_teeth():
    m = namedMatroid("example52")
    fr = computeFoundation(m)
    f = searchMorphisms(fr.foundation, gfPasture(5))[0]
    gp = gpFromMorphism(fr, f)
    assert validateGP(gp)
    corrupted = dict(gp.values)
    corrupted[(4, 5, 6)] = gp.target.group.add(corrupted[(4, 5, 6)], (1,))
    assert not validateGP(GPFunction(gp.matroid, gp.target, corrupted))
    # wrong support: drop a basis
    partial = dict(gp.values)
    del partial[(0, 1, 3)]
    assert not validateGP(GPFunction(gp.matroid, gp.target, partial))


def test_fano_representation_over_gf2():
    m = namedMatroid("fano")
    reps = representationsOverField(m, 2)
    assert len(reps) == 1
    assert reps[0].matrix == FANO_GF2_MATRIX
    assert sorted(matroidOfMatrix(reps[0].matrix, 2).bases) == sorted(m.bases)


def test_nonfano_has_no_gf2_but_one_gf3():
    m = namedMatroid("nonfano")
    assert representationsOverField(m, 2) == []
    reps = representationsOverField(m, 3)
    assert len(reps) == 1
    assert sorted(matroidOfMatrix(reps[0].matrix, 3).bases) == sorted(m.bases)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_uniform24_representation_count(q):
    m = namedMatroid("uniform:2,4")
    reps = representationsOverField(m, q)
    assert len(reps) == q - 2
    matrices = {r.matrix for r in reps}
    assert len(matrices) == len(reps)
    for r in reps:
        assert sorted(matroidOfMatrix(r.matrix, r.field).bases) == sorted(m.bases)
        assert validateGP(gpFromMorphism(computeFoundation(m), r.morphism))


def test_matroid_of_matrix_known_columns():
    rows = tuple(zip(*EXAMPLE52_COLUMNS))
    rec = matroidOfMatrix(rows, FiniteField(5))
    assert sorted(rec.bases) == sorted(namedMatroid("example52").bases)
    rows = tuple(zip(*FANO_COLUMNS))
    rec = matroidOfMatrix(rows, 2)
    assert sorted(rec.bases) == sorted(namedMatroid("fano").bases)


def test_gp_validates_across_fields():
    for name, q in [("pappus", 8), ("uniform:3,6", 7)]:
        m = namedMatroid(name)
        fr = computeFoundation(m)
        for f in searchMorphisms(fr.foundation, gfPasture(q))[:4]:
            gp = gpFromMorphism(fr, f)
            assert validateGP(gp)
            assert gpToMatrix(fr, f)[0][m.n - 1] is not None


def matrixReadOffGP(fr, f):
    """Reference for gpToMatrix: the reduced matrix read off the whole GP function."""
    gp = gpFromMorphism(fr, f)
    field = f.target.field
    rows = []
    for i, a in enumerate(fr.basis):
        row = []
        for j in range(fr.matroid.n):
            if j in fr.basis:
                row.append(int(j == a))
                continue
            v = gp.values.get(tuple(sorted(set(fr.basis) - {a} | {j})))
            if v is None:
                row.append(0)
            else:  # GF(2) has the trivial unit group, whose element is ()
                row.append(field.exp(v[0]) if v else 1)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("name", ["example52", "fano", "nonfano", "ag23", "t8",
                                  "uniform:2,4", "uniform:2,5", "pappus"])
def test_gp_to_matrix_matches_whole_gp(name):
    m = namedMatroid(name)
    fr = computeFoundation(m)
    seen = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for f in searchMorphisms(fr.foundation, gfPasture(q)):
            assert gpToMatrix(fr, f) == matrixReadOffGP(fr, f)
            seen += 1
    assert seen


def test_gp_to_matrix_rejects_fieldless_target():
    m = namedMatroid("vamos")
    fr = computeFoundation(m)
    from foundry.pasture import builtinPasture
    ms = searchMorphisms(fr.foundation, builtinPasture("sign"), findOne=True)
    assert ms
    with pytest.raises(ValueError):
        gpToMatrix(fr, ms[0])


def test_orientability_wrappers():
    assert isOrientable(namedMatroid("vamos"))
    assert isOrientable(namedMatroid("nonpappus"))
    assert not isOrientable(namedMatroid("fano"))


def test_certificates():
    for name in ["vamos", "nonpappus"]:
        cert = nonRepresentabilityCertificate(namedMatroid(name))
        assert isinstance(cert, Certificate)
        assert cert.kind == "OneIsFundamental"
        assert representationsOverField(namedMatroid(name), 4) == []
    for name in ["pappus", "fano", "uniform:2,4"]:
        assert nonRepresentabilityCertificate(namedMatroid(name)) is None
