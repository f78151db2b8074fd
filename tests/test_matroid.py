import itertools
import random

import pytest

from foundry.matroid import (
    InvalidMatroidError,
    Matroid,
    matroidFromJson,
    matroidToJson,
    namedMatroid,
)

NAMED_BASIS_COUNTS = {
    "fano": 28,
    "nonfano": 29,
    "pappus": 75,
    "nonpappus": 76,
    "vamos": 65,
    "ag23": 72,
    "t8": 59,
    "example52": 30,
}

# GF(5) representation of example52 (columns = ground set) used as a linear
# rank oracle, independent of the basis-scan implementation.
EXAMPLE52_COLUMNS = [
    (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 4, 4),
]
FANO_COLUMNS = [
    (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]


def linearRank(columns, subset, p):
    """Row-reduce the chosen columns over GF(p)."""
    rows = [list(columns[j]) for j in subset]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def closure(m, subset):
    """Oracle: the e with r(S + e) = r(S), as a sorted tuple."""
    s = set(subset)
    r = m.rankOf(s)
    return tuple(e for e in range(m.n) if e in s or m.rankOf(s | {e}) == r)


def closureMask(m, mask):
    """Oracle: (r(S), the bitmask of cl(S)) for the subset S with bitmask
    mask, from one pass over the bases: e lies outside cl(S) exactly when it
    lies outside S and in some basis that meets S in r(S) elements."""
    sizes = [(mask & b).bit_count() for b in m.masks]
    r = max(sizes)
    outside = 0
    for b, size in zip(m.masks, sizes):
        if size == r:
            outside |= b
    return r, ~outside & ((1 << m.n) - 1) | mask


def assertFlatsOfEveryCorank(m, label):
    """flatsOfCorank(k) for every k against the subsets that no element
    outside raises in rank, none above the rank (k < 0), and a refusal past
    it."""
    ranked = [(m.rankOf(s), s) for size in range(m.n + 1)
              for s in itertools.combinations(range(m.n), size)]
    allFlats = [(r, s) for r, s in ranked
                if all(m.rankOf(s + (e,)) > r for e in range(m.n) if e not in s)]
    for k in range(m.rank + 1):
        expected = sorted(s for r, s in allFlats if r == m.rank - k)
        assert list(m.flatsOfCorank(k)) == expected, (label, m, k)
    assert m.flatsOfCorank(-1) == (), (label, m)
    with pytest.raises(InvalidMatroidError):
        m.flatsOfCorank(m.rank + 1)


def uniqueCircuitIn(m, subset):
    """Oracle: the circuit inside an r-subset of rank r - 1, as the e whose
    removal leaves an independent set."""
    s = tuple(sorted(subset))
    if len(s) != m.rank or m.rankOf(s) != m.rank - 1:
        raise InvalidMatroidError("expected an r-subset of rank r - 1")
    return tuple(e for e in s if m.rankOf(set(s) - {e}) == m.rank - 1)


def uniqueCocircuitAvoiding(m, subset):
    """Oracle: the cocircuit disjoint from an r-subset of rank r - 1, as the
    complement of its closure, the unique hyperplane containing it."""
    s = tuple(sorted(subset))
    if len(s) != m.rank or m.rankOf(s) != m.rank - 1:
        raise InvalidMatroidError("expected an r-subset of rank r - 1")
    hyperplane = set(closure(m, s))
    return tuple(e for e in range(m.n) if e not in hyperplane)


def relabelled(m, seed):
    """m with its ground set permuted by a generator seeded with seed."""
    perm = list(range(m.n))
    random.Random(seed).shuffle(perm)
    return Matroid.fromBases(m.n, [[perm[e] for e in b] for b in m.bases])


def withoutBasis(name, index):
    """The named matroid with its index-th basis removed, validated."""
    m = namedMatroid(name)
    return Matroid.fromBases(m.n, m.bases[:index] + m.bases[index + 1:])


@pytest.mark.parametrize("name,count", sorted(NAMED_BASIS_COUNTS.items()))
def test_named_matroids_are_valid(name, count):
    m = namedMatroid(name)
    assert len(m.bases) == count
    m._checkExchange()  # frozen catalogs skip validation on load
    assert list(m.bases) == sorted(m.bases)


def test_uniform_matroids():
    u = namedMatroid("uniform(3,6)")
    assert len(u.bases) == 20 and u.rank == 3 and u.n == 6
    assert namedMatroid("uniform:2,4").bases == u.__class__.fromBases(
        4, itertools.combinations(range(4), 2)).bases
    with pytest.raises(InvalidMatroidError):
        namedMatroid("uniform(4,2)")
    with pytest.raises(InvalidMatroidError):
        namedMatroid("gf:5")


def test_rank_against_linear_oracle():
    for name, cols, p in (("example52", EXAMPLE52_COLUMNS, 5), ("fano", FANO_COLUMNS, 2)):
        m = namedMatroid(name)
        for size in range(m.n + 1):
            for s in itertools.combinations(range(m.n), size):
                assert m.rankOf(s) == linearRank(cols, s, p), (name, s)


def test_rank_of_uniform():
    u = namedMatroid("uniform(3,7)")
    rng = random.Random(5)
    for _ in range(30):
        s = rng.sample(range(7), rng.randint(0, 7))
        assert u.rankOf(s) == min(len(s), 3)


def test_rank_matches_basis_intersection_definition():
    """rankOf counts on bitmasks; the definition intersects with every basis."""
    for name in sorted(NAMED_BASIS_COUNTS) + ["uniform(3,7)"]:
        base = namedMatroid(name)
        for m in (base, base.dual()):
            bases = [set(b) for b in m.bases]
            for size in range(m.n + 1):
                for s in itertools.combinations(range(m.n), size):
                    assert m.rankOf(s) == max(len(set(s) & b) for b in bases), (name, s)


def test_exchange_validation_rejects_bad_data():
    with pytest.raises(InvalidMatroidError):
        Matroid.fromBases(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidMatroidError):
        Matroid.fromBases(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(InvalidMatroidError):
        Matroid.fromBases(2, [(0, 3)])
    with pytest.raises(InvalidMatroidError):
        Matroid.fromNonbases(4, 2, [(0, 1), (1, 2)])  # leaves a non-matroid family
    Matroid.fromNonbases(4, 2, [(0, 1)])  # parallel pair, fine
    Matroid.fromBases(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


EXCHANGE_FAILURE = "exchange axiom fails for %r, %r at %r"


def firstExchangeFailure(m):
    """Oracle: the first (B1, B2, a) at which the exchange axiom fails, or
    None, by one sorted-tuple lookup per (B1, B2, a, b), with a taken in set
    order."""
    for b1 in m.bases:
        s1 = set(b1)
        for b2 in m.bases:
            s2 = set(b2)
            for a in s1 - s2:
                if not any(tuple(sorted(s1 - {a} | {b})) in m.basesSet for b in s2 - s1):
                    return b1, b2, a
    return None


def bruteForceExchange(m):
    """Oracle: the exchange check that validation replaced."""
    failure = firstExchangeFailure(m)
    if failure is not None:
        raise InvalidMatroidError(EXCHANGE_FAILURE % failure)


def exchangeVerdict(check, m):
    try:
        check(m)
    except InvalidMatroidError as e:
        return str(e)
    return None


def test_exchange_check_matches_brute_force():
    rng = random.Random(20261021)
    families = []
    # relabelled catalogue matroids, and U(3,7) and U(4,8) less a basis, put
    # one (r-1)-set in families where it fails and in families where it holds
    matroids = [mm for name in sorted(NAMED_BASIS_COUNTS) + ["uniform(2,4)", "uniform(2,5)",
                                                           "uniform(3,6)"]
                for mm in (namedMatroid(name), namedMatroid(name).dual())]
    matroids += [relabelled(namedMatroid(name), name) for name in sorted(NAMED_BASIS_COUNTS)]
    matroids += [withoutBasis("uniform(3,7)", 0), withoutBasis("uniform(3,7)", 17),
                 withoutBasis("uniform(4,8)", 0), withoutBasis("uniform(4,8)", 40)]
    for m in matroids:
        others = [s for s in itertools.combinations(range(m.n), m.rank)
                  if s not in m.basesSet]
        for _ in range(6):
            drop = rng.randrange(len(m.bases))
            families.append((m.n, m.bases[:drop] + m.bases[drop + 1:]))
            if others:
                families.append((m.n, m.bases + (rng.choice(others),)))
    for _ in range(400):
        n = rng.randint(1, 10)
        subsets = list(itertools.combinations(range(n), rng.randint(0, n)))
        keep = rng.choice((0.2, 0.6, 0.9, 0.97))
        families.append((n, [s for s in subsets if rng.random() < keep] or subsets[:1]))
    failing = 0
    failedSets, heldSets = set(), set()
    for n, bases in families:
        m = Matroid.fromBases(n, bases, validate=False)
        failure = firstExchangeFailure(m)
        expected = None if failure is None else EXCHANGE_FAILURE % failure
        assert exchangeVerdict(Matroid._checkExchange, m) == expected, (n, bases)
        failing += expected is not None
        if failure is None:
            heldSets.update((n, frozenset(b) - {a}) for b in m.bases for a in b)
        else:
            failedSets.add((n, frozenset(failure[0]) - {failure[2]}))
    assert 100 < failing < len(families) - 100
    # some (r-1)-set fails the exchange in one family and holds in another
    assert failedSets & heldSets


def test_exchange_failure_names_a_in_set_order():
    """Both 2 and 9 fail for the first failing pair; the message names the
    first in set iteration order, which is 9, not the smaller 2."""
    m = Matroid.fromBases(10, [(0, 2, 9), (0, 3, 4)], validate=False)
    message = "exchange axiom fails for (0, 2, 9), (0, 3, 4) at 9"
    assert exchangeVerdict(bruteForceExchange, m) == message
    with pytest.raises(InvalidMatroidError) as e:
        Matroid.fromBases(10, [(0, 2, 9), (0, 3, 4)])
    assert str(e.value) == message


def test_closure_and_flats_against_brute_force():
    for name in sorted(NAMED_BASIS_COUNTS) + ["uniform(2,5)", "uniform(3,6)"]:
        for m in (namedMatroid(name), namedMatroid(name).dual()):
            for size in range(m.n + 1):
                for s in itertools.combinations(range(m.n), size):
                    r, flat = closureMask(m, sum(1 << e for e in s))
                    assert r == m.rankOf(s), (name, s)
                    assert flat == sum(1 << e for e in closure(m, s)), (name, s)
    # flats of every corank: the catalogue matroids, their duals and seeded
    # relabellings
    for name in sorted(NAMED_BASIS_COUNTS) + ["uniform(2,5)", "uniform(3,6)"]:
        m = namedMatroid(name)
        for mm in (m, m.dual(), relabelled(m, name)):
            assertFlatsOfEveryCorank(mm, name)


def test_flats_on_matroids_the_catalogue_lacks():
    """flatsOfCorank reads the flats off the bases, so check it where the
    bases are unlike a simple matroid's: fano with a loop, with a coloop and
    with 0 doubled, rank 0 (every element a loop), rank n (every element a
    coloop) with and without an extra loop, U(1,3), and the direct sums
    U(2,4) + fano and example52 + U(1,3), each also relabelled."""
    fano = namedMatroid("fano")

    def directSum(a, b):
        return Matroid.fromBases(a.n + b.n, [x + tuple(a.n + e for e in y)
                                             for x in a.bases for y in b.bases])

    shapes = {
        "fano + loop": Matroid.fromBases(8, fano.bases),
        "fano + coloop": Matroid.fromBases(8, [b + (7,) for b in fano.bases]),
        "fano, 0 doubled": Matroid.fromBases(
            8, fano.bases + tuple((7,) + b[1:] for b in fano.bases if b[0] == 0)),
        "rank 0": Matroid.fromBases(3, [()]),
        "rank n": Matroid.fromBases(4, [(0, 1, 2, 3)]),
        "rank n + loop": Matroid.fromBases(4, [(0, 1, 3)]),
        "U(1,3)": namedMatroid("uniform(1,3)"),
        "U(2,4) + fano": directSum(namedMatroid("uniform(2,4)"), fano),
        "example52 + U(1,3)": directSum(namedMatroid("example52"),
                                        namedMatroid("uniform(1,3)")),
    }
    for label, m in shapes.items():
        for mm in (m, relabelled(m, label)):
            assertFlatsOfEveryCorank(mm, label)
    assert shapes["rank 0"].flatsOfCorank(0) == ((0, 1, 2),)
    assert shapes["rank n + loop"].flatsOfCorank(3) == ((2,),)


def test_greedy_basis_is_the_lex_first_basis():
    """Against its definition: the lexicographically first subset of size
    r(S) that is independent, for every subset S of the catalogue matroids
    and their duals."""
    for name in sorted(NAMED_BASIS_COUNTS) + ["uniform(2,5)", "uniform(3,6)"]:
        for m in (namedMatroid(name), namedMatroid(name).dual()):
            for size in range(m.n + 1):
                for s in itertools.combinations(range(m.n), size):
                    r = m.rankOf(s)
                    first = next(c for c in itertools.combinations(s, r) if m.rankOf(c) == r)
                    assert m.greedyBasis(s) == first, (name, s)


def test_unique_circuit_and_cocircuit():
    """The oracles against minimal dependent sets and hyperplanes."""
    for name in ("example52", "fano", "vamos", "t8"):
        m = namedMatroid(name)
        for nb in m.nonbases():
            if m.rankOf(nb) != m.rank - 1:
                continue
            c = uniqueCircuitIn(m, nb)
            # oracle: the minimal dependent subsets of nb
            dependents = [
                s for size in range(1, len(nb) + 1)
                for s in itertools.combinations(nb, size)
                if m.rankOf(s) < len(s)
            ]
            minimal = [s for s in dependents
                       if not any(set(t) < set(s) for t in dependents)]
            assert len(minimal) == 1 and tuple(minimal[0]) == c
            d = uniqueCocircuitAvoiding(m, nb)
            assert not (set(d) & set(nb))
            complement = set(range(m.n)) - set(d)
            assert m.rankOf(complement) == m.rank - 1
            assert set(closure(m, complement)) == complement
            for e in d:
                smaller = set(range(m.n)) - set(d) | {e}
                assert m.rankOf(smaller) == m.rank


def circuitShapes():
    """Matroids whose near-bases have circuits of one element or cocircuits
    of one element, or r-subsets of rank below r - 1: fano with a loop, with
    a coloop and with 0 doubled, the direct sum of U(2,4) and fano, U(3,7)
    and U(4,8) less a basis, and a coloop with two loops, whose near-bases
    each meet just one basis in r - 1 elements."""
    yield Matroid.fromBases(3, [(0,)])
    fano = namedMatroid("fano")
    bases = fano.bases
    yield Matroid.fromBases(8, bases)
    yield Matroid.fromBases(8, [b + (7,) for b in bases])
    yield Matroid.fromBases(8, bases + tuple((7,) + b[1:] for b in bases if b[0] == 0))
    yield Matroid.fromBases(11, [a + tuple(4 + e for e in b)
                                 for a in namedMatroid("uniform(2,4)").bases for b in bases])
    yield withoutBasis("uniform(3,7)", 9)
    yield withoutBasis("uniform(4,8)", 23)


def test_near_bases_match_the_circuit_oracles():
    """nearBases lists exactly the r-subsets of rank r - 1, in lex order,
    with the circuit and cocircuit the oracles give."""
    matroids = [mm for name in sorted(NAMED_BASIS_COUNTS) + ["uniform(3,6)"]
                for mm in (namedMatroid(name), namedMatroid(name).dual())]
    for m in matroids + list(circuitShapes()):
        expected = [(nb, uniqueCircuitIn(m, nb), uniqueCocircuitAvoiding(m, nb))
                    for nb in itertools.combinations(range(m.n), m.rank)
                    if m.rankOf(nb) == m.rank - 1]
        assert list(m.nearBases()) == expected, m
    shapes = [list(m.nearBases()) for m in circuitShapes()]
    assert any(len(c) == 1 for near in shapes for _, c, _ in near)
    assert any(len(d) == 1 for near in shapes for _, _, d in near)
    assert any(len(near) < len(m.nonbases()) for near, m in zip(shapes, circuitShapes()))


def test_exchange_graph_forest_example52():
    m = namedMatroid("example52")
    g = m.exchangeGraphAndForest((0, 1, 3))
    assert g.basis == (0, 1, 3)
    assert (0, 2) in g.edges and (3, 2) not in g.edges
    assert g.forestEdges == ((0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (3, 4))
    # spanning forest: touches every vertex in a basis-connected component
    touched = {v for e in g.forestEdges for v in e}
    assert touched == set(range(7))
    with pytest.raises(InvalidMatroidError):
        m.exchangeGraphAndForest((0, 1, 2))


def test_exchange_graph_forest_is_acyclic():
    for name in ("fano", "pappus", "vamos"):
        m = namedMatroid(name)
        b0 = m.bases[0]
        g = m.exchangeGraphAndForest(b0)
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        # left and right labels never collide: they partition the ground set
        for a, b in g.forestEdges:
            ra, rb = find(a), find(b)
            assert ra != rb
            parent[ra] = rb
        assert g.edges >= set(g.forestEdges)


def test_dual():
    m = namedMatroid("uniform(1,3)")
    assert m.dual().bases == namedMatroid("uniform(2,3)").bases
    v = namedMatroid("vamos")
    assert v.dual().dual() == v


def test_json_round_trip():
    for name in ("fano", "example52", "uniform(2,4)"):
        m = namedMatroid(name)
        doc = matroidToJson(m)
        back = matroidFromJson(doc)
        assert back.bases == m.bases and back.n == m.n
    with pytest.raises(InvalidMatroidError):
        matroidFromJson({"rank": 3, "nonbases": []})
    with pytest.raises(InvalidMatroidError):
        matroidFromJson({"n": 4, "rank": 2, "bases": [[0], [1]]})
