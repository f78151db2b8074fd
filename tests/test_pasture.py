import functools
import random

import pytest
from sympy import factorint, primitive_root

from foundry import _gf
from foundry import pasture as pastureModule
from foundry._gf import MAX_FIELD_ORDER, FieldError, FiniteField
from foundry.foundation import computeFoundation
from foundry.matroid import _NAMED_NONBASES, namedMatroid
from foundry.morphism import (
    SearchStats,
    TooManyTorsionHoms,
    ruleCandidates,
    scaledPairs,
    searchMorphisms,
    torsionHoms,
)
from foundry.pasture import (
    InvalidPastureError,
    Pasture,
    builtinPasture,
    closureTriple,
    gfPasture,
    hexagonClosure,
    hexagonType,
    pastureFromJson,
    pastureToJson,
)
from foundry.zlattice import GroupPresentation

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]


def orbitCensus(q):
    """Oracle: classify hexagons by the 6-element orbit of each beta in the
    field, using raw field arithmetic only."""
    f = FiniteField(q)
    seen = set()
    counts = {"F3": 0, "D": 0, "H": 0, "U": 0}
    for a in range(2, q):
        if a in seen or f.sub(1, a) == 0:
            continue
        inv = f.inv(a)
        oneMinus = f.sub(1, a)
        orbit = {
            a,
            inv,
            oneMinus,
            f.inv(oneMinus),
            f.mul(a, f.inv(f.sub(a, 1))),
            f.mul(f.sub(a, 1), inv),
        }
        seen |= orbit
        counts[{1: "F3", 2: "H", 3: "D", 6: "U"}[len(orbit)]] += 1
    return counts


def test_finite_field_arithmetic():
    for q in SMALL_PRIME_POWERS:
        f = FiniteField(q)
        units = f.units()
        assert len(units) == q - 1 and len(set(units)) == q - 1
        rng = random.Random(q)
        for _ in range(30):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.add(a, f.neg(a)) == 0
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
            assert f.exp(f.log(a)) == a


def test_finite_field_gf4_table():
    f = FiniteField(4)
    w = f.generator
    assert f.add(w, w) == 0  # characteristic 2
    w2 = f.mul(w, w)
    assert f.add(f.add(1, w), w2) == 0  # 1 + x + x^2 = 0
    assert f.mul(w, w2) == 1


def test_field_errors():
    with pytest.raises(FieldError):
        FiniteField(6)
    with pytest.raises(FieldError):
        FiniteField(1)
    with pytest.raises(FieldError):
        FiniteField(128)  # prime power above the Conway table range
    FiniteField(101)  # large primes are fine


def test_field_ceiling_is_checked_before_any_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError("factored an order above the ceiling")

    monkeypatch.setattr(_gf, "_factor", refuse)
    for q in (MAX_FIELD_ORDER + 1, 1000000000039, 10 ** 100):
        with pytest.raises(FieldError, match="ceiling"):
            FiniteField(q)


def test_largest_prime_under_the_ceiling_is_accepted():
    f = FiniteField(65521)
    assert f.generator == primitive_root(65521)
    assert len(f.units()) == 65520


def test_factoring_and_primitive_roots_match_sympy():
    """Every order up to the ceiling: the trial-division factorisation is
    sympy's, and each odd prime gets sympy's smallest primitive root."""
    for q in range(1, MAX_FIELD_ORDER + 1):
        factors = _gf._factor(q)
        assert factors == factorint(q), q
        if q > 2 and factors == {q: 1}:
            assert _gf._primitiveRoot(q) == primitive_root(q), q


def test_prime_fields_use_the_smallest_primitive_root():
    for q in range(2, 100):
        factors = factorint(q)
        if len(factors) != 1:
            continue
        [(p, k)] = factors.items()
        f = FiniteField(q)
        if k == 1:
            assert f.generator == (1 if q == 2 else primitive_root(q))
            assert f.units() == [pow(f.generator, i, q) for i in range(q - 1)]
        else:
            assert f.generator == p


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_gf_pasture_census_matches_field_orbits(q):
    p = gfPasture(q)
    assert len(p.partners) == max(q - 2, 0)
    got = {"F3": 0, "D": 0, "H": 0, "U": 0}
    for t in p.hexagonTypes():
        got[t] += 1
    assert got == orbitCensus(q)
    if q > 3:
        assert all(len(p.partnersOf(x)) == 1 for x in p.partners)


def test_gf_pasture_nullset_matches_field(seed=17):
    rng = random.Random(seed)
    for q in (3, 4, 5, 7, 8, 9, 13):
        f = FiniteField(q)
        p = gfPasture(q)

        def lift(a):
            return None if a == 0 else ((f.log(a),) if q >= 3 else ())

        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            expected = f.add(f.add(a, b), c) == 0
            assert p.nullsetContains(lift(a), lift(b), lift(c)) == expected


def orientedPairs(hexagon):
    """Oracle: the oriented pairs of a closure triple, each pair before its
    swap, repeats dropped."""
    seen = []
    for x, y in hexagon:
        for pair in ((x, y), (y, x)):
            if pair not in seen:
                seen.append(pair)
    return tuple(seen)


def test_hexagon_canonical_under_reorientation():
    for q in (5, 7, 9, 11):
        p = gfPasture(q)
        for h in p.hexagons:
            for pair in orientedPairs(h):
                rebuilt = hexagonClosure(p.group, p.epsilon, pair[0], pair[1])
                assert rebuilt == h


@functools.lru_cache(maxsize=None)
def roster():
    """The builtins, the foundations of the catalogue and of its duals, and
    GF(q) for every prime power q < 100."""
    pastures = [builtinPasture(name) for name in ("f1pm", "krasner", "sign", "U", "D",
                                                  "H", "F3", "P0")]
    for name in sorted(_NAMED_NONBASES):
        m = namedMatroid(name)
        pastures += [computeFoundation(m).foundation, computeFoundation(m.dual()).foundation]
    for q in range(2, 100):
        try:
            pastures.append(gfPasture(q))
        except InvalidPastureError:
            pass
    return tuple(pastures)


def test_hexagon_closure_matches_the_two_closure_definition():
    """The head's triple read off the six oriented pairs equals closing the
    head a second time, on every oriented pair of catalogue foundations and
    their duals, the builtins and the fields below 100."""
    checked = 0
    for p in roster():
        for x, y in p.pairs:
            triple = closureTriple(p.group, p.epsilon, x, y)
            head = min(c for pair in triple for c in (pair, pair[::-1]))
            expected = closureTriple(p.group, p.epsilon, *head)
            assert hexagonClosure(p.group, p.epsilon, x, y) == expected, (p, x, y)
            checked += 1
    assert checked > 2000


def test_closure_triple_matches_its_definition():
    """(x, y), (-x, e + y - x), (-y, e + x - y), each reduced, for every
    oriented pair of the roster given with unreduced coordinates."""
    checked = 0
    for p in roster():
        g, e = p.group, p.epsilon
        shift = tuple(g.invariants) + (0,) * g.freeRank
        for x, y in p.pairs:
            expected = ((x, y), (g.neg(x), g.add(e, y, g.neg(x))),
                        (g.neg(y), g.add(e, x, g.neg(y))))
            unreduced = tuple(a + b for a, b in zip(x, shift))
            assert closureTriple(g, e, unreduced, y) == expected, (p, x, y)
            checked += 1
    assert checked > 2000


def test_pair_tables_match_their_definitions():
    """The pair tables a pasture builds once, against the definitions they
    replace: pairs in first-seen order over the hexagons, elements the sorted
    first members, and the partners of x the sorted second members of the
    pairs at x, for x given unreduced and for x not fundamental."""
    checked = 0
    for p in roster():
        g = p.group
        pairs = tuple(dict.fromkeys(pair for h in p.hexagons for pair in orientedPairs(h)))
        assert tuple(p.pairs) == pairs, p
        elements = tuple(sorted({x for x, _ in p.pairs}))
        assert tuple(p.partners) == elements, p
        shift = tuple(g.invariants) + (0,) * g.freeRank
        for x in set(elements) | {g.scale(2, x) for x in elements} | {g.zero()}:
            expected = tuple(sorted(y for a, y in p.pairs if a == x))
            assert p.partnersOf(x) == expected, (p, x)
            assert p.partnersOf(tuple(a + b for a, b in zip(x, shift))) == expected, (p, x)
            checked += 1
    assert checked > 2000


def test_pair_map_sends_each_pair_to_its_hexagon():
    """Pasture.pairs, on every pasture of the roster: it iterates in the
    order of dict.fromkeys over each hexagon's six oriented pairs, and sends
    each pair to the one hexagon whose closure triple holds it or its swap."""
    checked = 0
    for p in roster():
        order = dict.fromkeys(pair for h in p.hexagons for x, y in h
                              for pair in ((x, y), (y, x)))
        assert tuple(p.pairs) == tuple(order), p
        holders = {}
        for k, h in enumerate(p.hexagons):
            for pair in h:
                holders.setdefault(pair, set()).add(k)
        for pair, k in p.pairs.items():
            assert holders.get(pair, set()) | holders.get(pair[::-1], set()) == {k}, (p, pair)
            checked += 1
    assert checked > 2000


def test_search_tables_match_their_definitions():
    """The morphism search's target tables, against their definitions: a
    one-coefficient rule table sends c * x to the partners of every such x,
    a two-coefficient one sends c * x + d * y to the first member of every
    such pair, each in the pasture's own order; scaled pairs are
    (c * x, d * y) flattened.  Each table is built once."""
    for p in roster()[:40]:
        g = p.group
        for c, d in ((1, 1), (2, 1), (1, -1), (3, 2)):
            one = {}
            for x in p.partners:
                for y in p.partnersOf(x):
                    if y not in one.setdefault(g.scale(c, x), []):
                        one[g.scale(c, x)].append(y)
            assert ruleCandidates(p, (c,)) == {k: tuple(v) for k, v in one.items()}, p
            two = {}
            for x, y in p.pairs:
                key = g.add(g.scale(c, x), g.scale(d, y))
                if x not in two.setdefault(key, []):
                    two[key].append(x)
            assert ruleCandidates(p, (c, d)) == {k: tuple(v) for k, v in two.items()}, p
            assert scaledPairs(p, c, d) == {g.scale(c, x) + g.scale(d, y)
                                            for x, y in p.pairs}, p
            assert ruleCandidates(p, (c, d)) is ruleCandidates(p, (c, d))
            assert scaledPairs(p, c, d) is scaledPairs(p, c, d)


def tableKeys(pasture):
    """The keys of the target tables in pasture's search memo: every key but
    the sublattice's."""
    return {k for k in pasture.search or () if k[0] != "sublattice"}


def test_gf_pasture_is_built_once():
    assert gfPasture(13) is gfPasture(13)
    assert gfPasture(2) is gfPasture(2)


def test_field_cache_evicts_the_least_recently_used_fields(monkeypatch):
    """With the ceiling lowered to 20, the cached orders never sum past it,
    and the fields used longest ago leave first."""
    monkeypatch.setattr(pastureModule, "MAX_FIELD_ORDER", 20)
    monkeypatch.setattr(pastureModule, "_fieldPastures", {})
    monkeypatch.setattr(pastureModule, "_cachedWeight", 0)
    eight = gfPasture(8)
    for q, kept in ((7, [8, 7]), (9, [7, 9]), (7, [9, 7]), (11, [7, 11]), (19, [19]),
                    (2, [2]), (8, [2, 8]), (9, [2, 8, 9]), (3, [8, 9, 3])):
        gfPasture(q)
        cache = pastureModule._fieldPastures
        assert list(cache) == kept, q
        assert sum(p.field.q for p, _ in cache.values()) <= 20
    assert gfPasture(8) is not eight  # evicted by 19 and built again


def test_field_cache_counts_the_search_tables_of_each_field(monkeypatch):
    """A cached field weighs q for itself and q more for each rule table and
    scaled pair set built into it.  With both ceilings lowered to 30 the
    weights never sum past it; a field that alone weighs more stays, without
    its tables, and a table looked up before that is left intact."""
    monkeypatch.setattr(pastureModule, "MAX_FIELD_ORDER", 30)
    monkeypatch.setattr(pastureModule, "MAX_FIELD_WEIGHT", 30)
    monkeypatch.setattr(pastureModule, "_fieldPastures", {})
    monkeypatch.setattr(pastureModule, "_cachedWeight", 0)

    def weights():
        """Each cached field's kept weight, checked to be q for the field and
        q for each table in its search memo."""
        for q, (p, weight) in pastureModule._fieldPastures.items():
            assert weight == p.field.q * (1 + len(tableKeys(p))), q
        return {q: weight for q, (_, weight) in pastureModule._fieldPastures.items()}

    seven = gfPasture(7)
    ruleCandidates(seven, (1,))
    scaledPairs(seven, 1, 1)
    ruleCandidates(gfPasture(8), (2, 1))
    assert weights() == {7: 21, 8: 16}  # tables built after the last call
    gfPasture(9)
    assert weights() == {8: 16, 9: 9}  # 7 and its two tables evicted first
    eleven = gfPasture(11)
    assert weights() == {9: 9, 11: 11}
    table = ruleCandidates(eleven, (1,))
    expected = dict(table)
    scaledPairs(eleven, 1, 1)
    assert gfPasture(11) is eleven
    assert weights() == {11: 11}  # 9 evicted, then 11's tables (33 in all) dropped
    assert table == expected and ruleCandidates(eleven, (1,)) == expected
    assert gfPasture(7) is not seven


def test_the_cached_weight_follows_every_call_and_table(monkeypatch):
    """A seeded run of 2,400 steps, with the ceiling lowered to 40 and the
    weight a field may keep alone to 60: each a gfPasture call, or a rule
    table, scaled pair set or torsion table built into the field just
    returned or into an older one still held, cached or not.  After every
    step the cache holds the fields, in the order, and with the tables,
    that re-weighing every cached field on each call gives: q for a field
    and q for each table built into it, least recently used fields evicted
    first, and a field that alone weighs more than 60 stripped of its
    tables.  The kept total is their sum; after a call it is at most 40,
    or the returned field's alone and at most 60.  Both a lone field kept
    above 40 and a stripped one occur."""
    ceiling, alone = 40, 60
    monkeypatch.setattr(pastureModule, "MAX_FIELD_ORDER", ceiling)
    monkeypatch.setattr(pastureModule, "MAX_FIELD_WEIGHT", alone)
    monkeypatch.setattr(pastureModule, "_fieldPastures", {})
    monkeypatch.setattr(pastureModule, "_cachedWeight", 0)
    rng = random.Random(21)
    sources = [builtinPasture(name) for name in ("sign", "H", "krasner")]
    built = {}  # id of a held field -> the table keys the oracle saw built into it
    expected = {}  # the oracle's cache: q -> field, least recently used first

    def weight(field):
        return field.field.q * (1 + len(built[id(field)]))

    held = []
    keptAlone = stripped = 0
    for step in range(2400):
        kind = rng.randrange(4) if held else 0
        if kind == 0:
            q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
            cached = expected.pop(q, None)
            total = sum(map(weight, expected.values())) + (weight(cached) if cached else q)
            while expected and total > ceiling:
                total -= weight(expected.pop(next(iter(expected))))
            field = gfPasture(q)
            assert cached is None or field is cached, step
            if cached is None:
                built[id(field)] = set()
                held.append(field)
            if total > alone:
                built[id(field)] = set()
                assert field.search is None, step
                stripped += 1
            elif total > ceiling:
                keptAlone += 1
            expected[q] = current = field
        else:
            field = current if rng.random() < 0.5 else rng.choice(held)
            if kind == 1:
                key = ("rules", rng.choice([(1,), (-1,), (2,), (1, 1), (2, -1)]))
                ruleCandidates(field, key[1])
            elif kind == 2:
                key = ("scaled", rng.choice([(1, 1), (1, 2), (2, 1), (-1, 1)]))
                scaledPairs(field, *key[1])
            else:
                source, isoOnly = rng.choice(sources), rng.random() < 0.5
                key = ("torsion", source.group.invariants, source.epsilon, isoOnly)
                torsionHoms(source, field, isoOnly)
            built[id(field)].add(key)
        cache = pastureModule._fieldPastures
        assert list(cache) == list(expected), step
        assert all(cache[q][0] is field for q, field in expected.items()), step
        # the sources have no free rank, so each oracle key is the memo's
        assert [tableKeys(field) for field in expected.values()] == [
            built[id(field)] for field in expected.values()], step
        assert [w for _, w in cache.values()] == list(map(weight, expected.values())), step
        assert pastureModule._cachedWeight == sum(map(weight, expected.values())), step
        assert kind or pastureModule._cachedWeight <= ceiling or (
            len(cache) == 1 and pastureModule._cachedWeight <= alone), step
    assert keptAlone and stripped


def test_the_largest_field_keeps_its_search_tables(monkeypatch):
    """Three findOne searches from the U(2,4) foundation into GF(65521): the
    first builds two tables, the later ones build none, and after each
    gfPasture call the field is cached alone within MAX_FIELD_WEIGHT."""
    monkeypatch.setattr(pastureModule, "_fieldPastures", {})
    monkeypatch.setattr(pastureModule, "_cachedWeight", 0)
    built = []

    def counted(pasture, table):
        built.append(pasture)
        return pastureModule.tableBuilt(pasture, table)

    monkeypatch.setattr("foundry.morphism.tableBuilt", counted)
    source = computeFoundation(namedMatroid("uniform(2,4)")).foundation
    for expected in (2, 0, 0):
        target = gfPasture(65521)
        assert [p for p, _ in pastureModule._fieldPastures.values()] == [target]
        assert pastureModule._cachedWeight <= pastureModule.MAX_FIELD_WEIGHT
        before = len(built)
        assert len(searchMorphisms(source, target, findOne=True)) == 1
        assert len(built) - before == expected
    assert pastureModule._cachedWeight == 3 * 65521 <= pastureModule.MAX_FIELD_WEIGHT


def test_refused_torsion_homs_leave_no_table_and_no_weight(monkeypatch):
    """Past MAX_TORSION_HOMS, torsionHoms raises before listing and keeps
    nothing in the target, so the field still weighs q; under the ceiling
    it keeps the table and the field weighs 2q."""
    monkeypatch.setattr(pastureModule, "_fieldPastures", {})
    monkeypatch.setattr(pastureModule, "_cachedWeight", 0)
    sign, target = builtinPasture("sign"), gfPasture(7)
    monkeypatch.setattr("foundry.morphism.MAX_TORSION_HOMS", 1)
    with pytest.raises(TooManyTorsionHoms):
        torsionHoms(sign, target)
    assert (tableKeys(target), pastureModule._cachedWeight) == (set(), 7)
    monkeypatch.setattr("foundry.morphism.MAX_TORSION_HOMS", 2)
    assert len(torsionHoms(sign, target)) == 1
    assert ([k[0] for k in tableKeys(target)], pastureModule._cachedWeight) == (["torsion"], 14)
    assert pastureModule._fieldPastures[7][1] == 14


def test_searches_leave_a_cached_field_as_a_fresh_one():
    """Searches into a cached field and out of it change none of its data,
    and give the maps that a freshly built pasture of the field gives."""
    field = gfPasture(9)
    partners = {x: field.partnersOf(x) for x in field.partners}
    before = (hash(field), tuple(field.pairs.items()), partners)
    fresh = Pasture(field.group, field.epsilon, [h[0] for h in field.hexagons],
                    field=field.field)
    sources = [computeFoundation(namedMatroid(name)).foundation
               for name in ("example52", "pappus", "nonfano", "ag23")]
    sources += [builtinPasture(name) for name in ("P0", "f1pm", "F3", "U")]
    for _ in range(2):
        for source in sources:
            keys = [m.sortKey() for m in searchMorphisms(source, field)]
            assert keys == [m.sortKey() for m in searchMorphisms(source, fresh)], source
        assert len(searchMorphisms(field, gfPasture(81))) == 2
        assert len(searchMorphisms(field, field, findIso=True)) == 2
    partners = {x: field.partnersOf(x) for x in field.partners}
    assert (hash(field), tuple(field.pairs.items()), partners) == before
    assert field == fresh and gfPasture(9) is field


def test_partner_symmetry_and_pairs():
    for q in (5, 8, 9):
        p = gfPasture(q)
        for x in p.partners:
            for y in p.partnersOf(x):
                assert x in p.partnersOf(y)
        assert set(p.pairs) == p.pairs.keys()


def test_pair_order_is_first_seen_order():
    for q in (4, 7, 9, 25, 97):
        p = gfPasture(q)
        expected = []
        for h in p.hexagons:
            for pair in orientedPairs(h):
                if pair not in expected:
                    expected.append(pair)
        assert tuple(p.pairs) == tuple(expected)
        assert len(p.hexagons) == len(set(p.hexagons))


def test_one_head_per_orbit_gives_the_all_heads_pasture():
    """gfPasture passes one hexagon head per S3 orbit; the reference passes
    all q - 2 heads (a, 1 - a) and must canonicalise to the same pasture."""
    for q in range(2, 100):
        try:
            f = FiniteField(q)
        except FieldError:
            continue
        p = gfPasture(q)
        group = GroupPresentation([q - 1] if q >= 3 else [], 0)
        heads = [((f.log(a),), (f.log(f.sub(1, a)),)) for a in range(2, q)]
        reference = Pasture(group, p.epsilon, heads)
        assert p.hexagons == reference.hexagons, q
        assert tuple(p.pairs.items()) == tuple(reference.pairs.items()), q


def test_repeated_and_reordered_heads_give_the_distinct_heads_pasture():
    """Heads closing to one hexagon, repeated and shuffled, build the pasture
    that each distinct head passed once builds: the same hexagons, pairs in
    the same order and the same partners."""
    rng = random.Random(15)
    pastures = [computeFoundation(namedMatroid(name).dual()).foundation
                for name in ("pappus", "nonpappus", "ag23")] + [gfPasture(q) for q in (7, 16, 27)]
    for p in pastures:
        heads = [pair for h in p.hexagons for pair in orientedPairs(h)]
        raw = heads * 3
        rng.shuffle(raw)
        distinct = Pasture(p.group, p.epsilon, heads)
        repeated = Pasture(p.group, p.epsilon, raw)
        assert repeated == distinct == p
        assert (tuple(repeated.pairs.items()) == tuple(distinct.pairs.items())
                == tuple(p.pairs.items()))
        for x in p.partners:
            assert repeated.partnersOf(x) == p.partnersOf(x)


def test_builtin_pastures():
    f1pm = builtinPasture("f1pm")
    assert f1pm.hexagons == () and f1pm.epsilon == (1,)
    assert builtinPasture("krasner").hexagonTypes() == ("F3",)
    assert builtinPasture("sign").hexagonTypes() == ("D",)
    assert builtinPasture("F3") == gfPasture(3)
    assert builtinPasture("U").hexagonTypes() == ("U",)
    assert builtinPasture("D").hexagonTypes() == ("D",)
    assert builtinPasture("H").hexagonTypes() == ("H",)
    p0 = builtinPasture("P0")
    assert len(p0.hexagons) == 3
    assert len(p0.partners) == 16
    assert p0.group.freeRank == 4
    with pytest.raises(InvalidPastureError):
        builtinPasture("nope")


# The built-in pastures' data as the tests record it: (invariants, free
# rank, epsilon, hexagon heads).  P0 has hexagons through (x, y), (x, z)
# and (y/z, w) for free x, y, z, w.
P0_X, P0_Y, P0_Z, P0_W = ((0,) + tuple(int(i == k) for i in range(4)) for k in range(4))
BUILTIN_DATA = {
    "f1pm": ([2], 0, (1,), []),
    "krasner": ([], 0, (), [((), ())]),
    "sign": ([2], 0, (1,), [((0,), (0,))]),
    "U": ([2], 2, (1, 0, 0), [((0, 1, 0), (0, 0, 1))]),
    "D": ([2], 1, (1, 0), [((0, 1), (0, 1))]),
    "H": ([6], 0, (3,), [((1,), (5,))]),
    "F3": ([2], 0, (1,), [((1,), (1,))]),
    "P0": ([2], 4, (1, 0, 0, 0, 0), [(P0_X, P0_Y), (P0_X, P0_Z), ((0, 0, 1, -1, 0), P0_W)]),
}


def searchRecord(p1, p2, findOne):
    stats = SearchStats()
    keys = [m.sortKey() for m in searchMorphisms(p1, p2, findOne=findOne, stats=stats)]
    return keys, stats.asDict()


def test_builtin_pastures_are_shared_and_match_fresh_ones():
    """builtinPasture builds each name once, whatever its case and blanks.
    Searches out of the shared pastures and into them, repeated, give the
    maps and counters a fresh pasture of the same data gives, and leave
    each shared pasture equal to the fresh one."""
    assert builtinPasture("P0") is builtinPasture("p0") is builtinPasture(" P0 ")
    fresh = {name: Pasture(GroupPresentation(invariants, freeRank), epsilon, heads, name=name)
             for name, (invariants, freeRank, epsilon, heads) in BUILTIN_DATA.items()}
    foundations = [computeFoundation(namedMatroid(name)).foundation
                   for name in ("example52", "fano", "nonfano", "pappus", "uniform(2,4)")]
    for _ in range(2):
        for name, pasture in fresh.items():
            shared = builtinPasture(name)
            assert shared is builtinPasture(" %s " % name.upper()) is builtinPasture(name.lower())
            for f in foundations:
                assert searchRecord(f, shared, False) == searchRecord(f, pasture, False), name
                assert searchRecord(shared, f, True) == searchRecord(pasture, f, True), name
            for other in fresh.values():
                assert (searchRecord(shared, other, False)
                        == searchRecord(pasture, other, False)), (name, other)
    for name, pasture in fresh.items():
        shared = builtinPasture(name)
        assert shared == pasture and hash(shared) == hash(pasture) and shared.name == name
        assert tuple(shared.pairs.items()) == tuple(pasture.pairs.items())
        assert ([shared.partnersOf(x) for x in shared.partners]
                == [pasture.partnersOf(x) for x in pasture.partners])
    for bad in ("nope", "P 0", "", "gf:3"):
        with pytest.raises(InvalidPastureError) as e:
            builtinPasture(bad)
        assert str(e.value) == "unknown pasture name %r" % (bad,)


def test_gf2_pasture_is_degenerate():
    p = gfPasture(2)
    assert p.group.dim == 0
    assert p.epsilon == ()
    assert p.hexagons == ()


def test_hexagon_type_rule_on_sign():
    s = builtinPasture("sign")
    (h,) = s.hexagons
    # the sign hexagon carries the pair (1, 1) and twice (1, epsilon)
    assert h[0] == ((0,), (0,))
    assert hexagonType(h) == "D"


def test_epsilon_must_be_two_torsion():
    g = GroupPresentation([], 1)
    with pytest.raises(InvalidPastureError):
        Pasture(g, (1,), [])
    Pasture(g, (0,), [])  # identity is fine when the group has no 2-torsion


def test_json_round_trip():
    for p in (builtinPasture("U"), builtinPasture("P0"), gfPasture(7), gfPasture(2)):
        doc = pastureToJson(p)
        back = pastureFromJson(doc, name=p.name)
        assert back == p
    with pytest.raises(InvalidPastureError):
        pastureFromJson({"invariants": [2], "freeRank": 0, "epsilon": [1, 0]})
    with pytest.raises(InvalidPastureError):
        pastureFromJson({"freeRank": 1})


@pytest.mark.parametrize("doc", [
    {"invariants": [2], "epsilon": ["a"]},
    {"invariants": [2.5], "epsilon": [1]},
    {"invariants": [True], "epsilon": [1]},
    {"invariants": [2], "freeRank": 1.0, "epsilon": [1, 0]},
    {"invariants": [2], "freeRank": False, "epsilon": [1]},
    {"invariants": [2], "epsilon": [1.0]},
    {"invariants": [2], "epsilon": [1], "hexagons": [[[1], [0.5]]]},
    {"invariants": [2], "epsilon": [1], "hexagons": [[[1], "1"]]},
])
def test_json_refuses_values_that_are_not_integers(doc):
    with pytest.raises(InvalidPastureError):
        pastureFromJson(doc)
