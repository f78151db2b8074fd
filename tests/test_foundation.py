import itertools
import random

import pytest

from foundry.foundation import (
    AmbientSymbolGroup,
    computeFoundation,
    crossRatio,
    foundationResultToJson,
    innerTutteRelations,
    inversionParity,
    tutteRelations,
)
from foundry.matroid import InvalidMatroidError, namedMatroid
from foundry.zlattice import GroupHom, GroupPresentation, IntMatrix

# Free rank of the foundation for the bigger named matroids (these pins were
# cross-checked by hand against the relation counts: free rank equals
# 1 + #bases - rank of the gauge-plus-degenerate relation matrix).
EXPECTED_FREE_RANK = {
    "uniform(3,6)": 14,
    "uniform(3,7)": 28,
    "vamos": 20,
    "pappus": 7,
    "nonpappus": 8,
}


def test_inversion_parity():
    assert inversionParity((0, 1, 2)) == 0
    assert inversionParity((1, 0, 2)) == 1
    assert inversionParity((2, 1, 0)) == 1
    assert inversionParity((2, 0, 1)) == 0


def test_example52_foundation_pins():
    fr = computeFoundation(namedMatroid("example52"))
    f = fr.foundation
    assert f.group.invariants == (2,)
    assert f.group.freeRank == 3
    assert f.epsilon == (1, 0, 0, 0)
    assert fr.basis == (0, 1, 3)
    assert f.hexagonTypes() == ("U", "U", "U")
    assert fr.rhoZero.matrix.rows == 4 and fr.rhoZero.matrix.cols == 31


def test_rho_zero_properties():
    for name in ("example52", "nonfano", "pappus"):
        m = namedMatroid(name)
        fr = computeFoundation(m)
        rho = fr.rhoZero
        relations = tutteRelations(fr.ambient, fr.basis).hstack(
            innerTutteRelations(fr.ambient, fr.graph))
        for j in range(relations.cols):
            assert fr.foundation.group.isZero(rho.apply(relations.column(j)))
        assert rho.isSurjective()
        assert rho.apply(fr.ambient.epsilonVector()) == fr.foundation.epsilon
        # gauge: the base basis symbol dies
        assert fr.foundation.group.isZero(rho.apply(fr.ambient.basisVector(fr.basis)))


@pytest.mark.parametrize("name,rank", sorted(EXPECTED_FREE_RANK.items()))
def test_big_foundation_free_ranks(name, rank):
    f = computeFoundation(namedMatroid(name)).foundation
    assert f.group.invariants == (2,)
    assert f.group.freeRank == rank


def test_small_foundations_by_type():
    cases = {
        "fano": ((), 0, ()),
        "nonfano": ((2,), 1, ("D",)),
        "ag23": ((6,), 0, ("H",)),
        "t8": ((2,), 0, ("F3",)),
        "uniform(2,4)": ((2,), 2, ("U",)),
    }
    for name, (inv, free, types) in cases.items():
        f = computeFoundation(namedMatroid(name)).foundation
        assert f.group.invariants == inv, name
        assert f.group.freeRank == free, name
        assert f.hexagonTypes() == types, name
    ag = computeFoundation(namedMatroid("ag23")).foundation
    assert ag.epsilon == (3,)
    t8 = computeFoundation(namedMatroid("t8")).foundation
    assert t8.epsilon == (1,)


def test_cross_ratio_symbol_identities():
    m = namedMatroid("uniform(3,7)")
    ambient = AmbientSymbolGroup(m)
    fr = computeFoundation(m)
    rng = random.Random(3)
    for _ in range(25):
        i, k1, k2, k3, k4 = rng.sample(range(7), 5)
        base = crossRatio(ambient, (i,), k1, k2, k3, k4)
        # swapping both pairs leaves the symbol unchanged
        assert crossRatio(ambient, (i,), k2, k1, k4, k3) == base
        # swapping one pair inverts it (modulo 2 eps in the foundation)
        flipped = crossRatio(ambient, (i,), k1, k2, k4, k3)
        lhs = fr.rhoZero.apply(flipped)
        rhs = fr.foundation.group.neg(fr.rhoZero.apply(base))
        assert lhs == rhs


def test_cross_ratio_degree_zero():
    m = namedMatroid("example52")
    ambient = AmbientSymbolGroup(m)
    deg = GroupHom(ambient.pres, GroupPresentation([], 1),
                   IntMatrix([[0] + [1] * len(ambient.matroid.bases)]))
    rels = tutteRelations(ambient, m.bases[0])
    assert deg.apply(rels.column(0)) == (0,)  # 2 eps
    assert deg.apply(rels.column(1)) == (1,)  # the gauge basis symbol
    for j in range(2, rels.cols):
        assert deg.apply(rels.column(j)) == (0,)


def test_cross_ratio_rejects_nonbases():
    m = namedMatroid("fano")
    ambient = AmbientSymbolGroup(m)
    with pytest.raises(InvalidMatroidError):
        crossRatio(ambient, (0,), 1, 3, 2, 4)  # {0,1,2} is a nonbasis


def test_foundation_with_alternate_base_basis():
    m = namedMatroid("example52")
    default = computeFoundation(m).foundation
    other = computeFoundation(m, basis=(0, 1, 4)).foundation
    assert other.group == default.group
    assert sorted(other.hexagonTypes()) == sorted(default.hexagonTypes())
    with pytest.raises(InvalidMatroidError):
        computeFoundation(m, basis=(0, 1, 2))


def test_hexagon_counts():
    assert len(computeFoundation(namedMatroid("uniform(3,6)")).foundation.hexagons) == 30
    assert len(computeFoundation(namedMatroid("uniform(3,7)")).foundation.hexagons) == 105
    assert len(computeFoundation(namedMatroid("pappus")).foundation.hexagons) == 11


def test_foundation_json():
    fr = computeFoundation(namedMatroid("example52"))
    doc = foundationResultToJson(fr)
    assert doc["B0"] == [0, 1, 3]
    assert doc["invariants"] == [2] and doc["freeRank"] == 3
    assert len(doc["rhoZero"]) == 4 and len(doc["rhoZero"][0]) == 31
    assert len(doc["hexagons"]) == 3
