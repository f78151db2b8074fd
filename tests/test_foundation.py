import itertools
import random

import pytest

from foundry.foundation import (
    computeFoundation,
    crossRatioTerms,
    foundationResultToJson,
    inversionParity,
    tutteRelations,
)
from foundry.matroid import InvalidMatroidError, namedMatroid
from foundry.zlattice import GroupHom, GroupPresentation
from test_foundation_frozen import cases as frozenFoundationCases
from test_foundation_frozen import matroidOf as frozenFoundationMatroid
from test_matroid import circuitShapes, relabelled, uniqueCircuitIn, uniqueCocircuitAvoiding

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


def symbolIndex(m):
    """The symbol coordinates by definition: each basis numbered from 1 in
    lex order, epsilon at 0."""
    return {b: i for i, b in enumerate(sorted(m.bases), 1)}


def maskIndex(m):
    """symbolIndex keyed by the bitmask of each basis, as tutteRelations and
    crossRatioTerms read it."""
    return {sum(1 << e for e in b): i for b, i in symbolIndex(m).items()}


def unitVector(dim, i):
    return tuple(int(k == i) for k in range(dim))


def crossRatio(index, prefix, k1, k2, k3, k4):
    """Oracle: the cross-ratio symbol as a dense vector, from its definition
    X(prefix+k1k3) + X(prefix+k2k4) - X(prefix+k1k4) - X(prefix+k2k3), plus
    e_eps when the four permutations sorting the subscripts have odd total
    parity."""
    vec = [0] * (1 + len(index))
    for ki, kj, coeff in ((k1, k3, 1), (k2, k4, 1), (k1, k4, -1), (k2, k3, -1)):
        subscript = tuple(prefix) + (ki, kj)
        vec[index[tuple(sorted(subscript))]] += coeff
        vec[0] ^= inversionParity(subscript)
    return tuple(vec)


def denseRelations(m, index, graph):
    """Oracle: the relation matrix built one dense column at a time, in the
    order of tutteRelations: 2 e_eps, e_B0, the degenerate cross-ratio per
    near-basis exchange, and e_(B0 - a + b) per exchange-forest edge."""
    dim = 1 + len(index)

    def basisVector(basis):
        return unitVector(dim, index[tuple(sorted(basis))])

    cols = [(2,) + (0,) * (dim - 1), basisVector(graph.basis)]
    for nb in m.nonbases():
        if m.rankOf(nb) != m.rank - 1:
            continue
        circuit = uniqueCircuitIn(m, nb)
        cocircuit = uniqueCocircuitAvoiding(m, nb)
        i, j = circuit[0], cocircuit[0]
        for a in circuit[1:]:
            prefix = tuple(e for e in nb if e not in (i, a))
            for b in cocircuit[1:]:
                cols.append(crossRatio(index, prefix, i, a, j, b))
    for a, b in graph.forestEdges:
        cols.append(basisVector(set(graph.basis) - {a} | {b}))
    return tuple(zip(*cols))


def test_relation_rows_match_the_dense_definition():
    """On every matroid of the frozen foundation record."""
    for case in frozenFoundationCases():
        m = frozenFoundationMatroid(case)
        graph = m.exchangeGraphAndForest(m.bases[0])
        rows = tutteRelations(m, maskIndex(m), graph)
        assert tuple(map(tuple, rows)) == denseRelations(m, symbolIndex(m), graph), case


def test_relation_rows_match_the_dense_definition_on_circuit_shapes():
    """On the shapes the frozen cases lack: a loop, a coloop, a parallel
    class, a direct sum, and uniform matroids less a basis, where a circuit
    or a cocircuit has one element or an r-subset meets no basis in r - 1
    elements.  Each against the reference basis the foundation takes and
    against the last basis."""
    for m in circuitShapes():
        index = symbolIndex(m)
        for basis in (m.bases[0], m.bases[-1]):
            graph = m.exchangeGraphAndForest(basis)
            rows = tutteRelations(m, maskIndex(m), graph)
            assert tuple(map(tuple, rows)) == denseRelations(m, index, graph), (m, basis)


def test_cross_ratio_terms_match_the_dense_definition():
    """crossRatioTerms on bitmasks against the dense oracle on sorted
    tuples: the same terms, or a refusal naming the first subscript of the
    four that is not a basis."""
    refused = 0
    for name in ("example52", "pappus", "vamos", "uniform(3,7)"):
        m = namedMatroid(name)
        index, masks = symbolIndex(m), maskIndex(m)
        rng = random.Random(name)
        for _ in range(200):
            k = rng.sample(range(m.n), m.rank + 2)
            prefix, quad = k[:m.rank - 2], k[m.rank - 2:]
            try:
                terms = crossRatioTerms(masks, sum(1 << e for e in prefix), *quad)
            except InvalidMatroidError as exc:
                k1, k2, k3, k4 = quad
                first = next(s for s in (tuple(sorted(prefix + [ki, kj]))
                                         for ki, kj in ((k1, k3), (k2, k4), (k1, k4), (k2, k3)))
                             if s not in index)
                assert str(exc) == "cross-ratio subscript %r is not a basis" % (first,)
                with pytest.raises(KeyError):
                    crossRatio(index, prefix, *quad)
                refused += 1
                continue
            vec = [0] * (1 + len(index))
            for i, coeff in terms:
                vec[i] += coeff
            assert tuple(vec) == crossRatio(index, prefix, *quad), (name, k)
    assert refused


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
    assert len(fr.rhoZero.matrix) == 4 and len(fr.rhoZero.matrix[0]) == 31


def test_rho_zero_properties():
    for name in ("example52", "nonfano", "pappus"):
        m = namedMatroid(name)
        fr = computeFoundation(m)
        rho = fr.rhoZero
        assert fr.index == symbolIndex(m)
        relations = denseRelations(m, fr.index, fr.graph)
        for column in zip(*relations):
            assert fr.foundation.group.isZero(rho.apply(column))
        assert rho.isSurjective()
        dim = len(relations)
        assert rho.apply(unitVector(dim, 0)) == fr.foundation.epsilon
        # gauge: the base basis symbol dies
        assert fr.foundation.group.isZero(rho.apply(unitVector(dim, fr.index[fr.basis])))


def test_symbol_images_are_the_columns_of_rho_zero():
    """On every matroid of the frozen foundation record and a relabelling of
    each seeded by its case: the column of rhoZero at a symbol's index is
    rhoZero applied to the symbol's unit vector, for epsilon and for every
    basis, and nearBasisImages holds those columns of the bases next to B0."""
    for case in frozenFoundationCases():
        m = frozenFoundationMatroid(case)
        for matroid in (m, relabelled(m, case)):
            fr = computeFoundation(matroid)
            rho = fr.rhoZero
            dim = rho.source.dim
            assert fr.index == symbolIndex(matroid) and dim == 1 + len(fr.index)
            columns = [tuple(row[k] for row in rho.matrix) for k in range(dim)]
            assert columns[0] == rho.apply(unitVector(dim, 0)) == fr.foundation.epsilon
            for b in matroid.bases:
                k = fr.index[b]
                assert columns[k] == rho.apply(unitVector(dim, k)), (case, b)
            b0 = set(fr.basis)
            near = {}
            for i, a in enumerate(fr.basis):
                for j in sorted(set(range(matroid.n)) - b0):
                    s = tuple(sorted(b0 - {a} | {j}))
                    if s in matroid.basesSet:
                        near[i, j] = rho.apply(unitVector(dim, fr.index[s]))
            assert fr.nearBasisImages() == near, case


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
    fr = computeFoundation(m)
    rng = random.Random(3)
    for _ in range(25):
        i, k1, k2, k3, k4 = rng.sample(range(7), 5)
        base = crossRatio(fr.index, (i,), k1, k2, k3, k4)
        # swapping both pairs leaves the symbol unchanged
        assert crossRatio(fr.index, (i,), k2, k1, k4, k3) == base
        # swapping one pair inverts it (modulo 2 eps in the foundation)
        flipped = crossRatio(fr.index, (i,), k1, k2, k4, k3)
        lhs = fr.rhoZero.apply(flipped)
        rhs = fr.foundation.group.neg(fr.rhoZero.apply(base))
        assert lhs == rhs


def test_cross_ratio_degree_zero():
    m = namedMatroid("example52")
    index = maskIndex(m)
    deg = GroupHom(GroupPresentation([], 1 + len(index)), GroupPresentation([], 1),
                   ((0,) + (1,) * len(m.bases),))
    graph = m.exchangeGraphAndForest(m.bases[0])
    cols = list(zip(*tutteRelations(m, index, graph)))
    crossRatios = cols[2:len(cols) - len(graph.forestEdges)]
    assert crossRatios
    assert deg.apply(cols[0]) == (0,)  # 2 eps
    assert deg.apply(cols[1]) == (1,)  # the gauge basis symbol
    for col in crossRatios:
        assert deg.apply(col) == (0,)
    for col in cols[len(cols) - len(graph.forestEdges):]:
        assert deg.apply(col) == (1,)  # a basis next to B0


def test_cross_ratio_rejects_nonbases():
    m = namedMatroid("fano")
    with pytest.raises(InvalidMatroidError, match=r"subscript \(0, 1, 2\) is not"):
        crossRatioTerms(maskIndex(m), 1 << 0, 1, 3, 2, 4)  # {0,1,2} is a nonbasis
    with pytest.raises(InvalidMatroidError, match=r"subscript \(0, 3, 4\) is not"):
        crossRatioTerms(maskIndex(m), 1 << 0, 1, 3, 4, 5)  # only the last, {0,3,4}


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
