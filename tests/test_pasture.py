import random

import pytest

from foundry._gf import FieldError, FiniteField
from foundry.pasture import (
    InvalidPastureError,
    Pasture,
    builtinPasture,
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


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_gf_pasture_census_matches_field_orbits(q):
    p = gfPasture(q)
    assert len(p.fundamentalElements()) == max(q - 2, 0)
    got = {"F3": 0, "D": 0, "H": 0, "U": 0}
    for t in p.hexagonTypes():
        got[t] += 1
    assert got == orbitCensus(q)
    if q > 3:
        assert all(len(p.partnersOf(x)) == 1 for x in p.fundamentalElements())


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


def test_hexagon_canonical_under_reorientation():
    for q in (5, 7, 9, 11):
        p = gfPasture(q)
        for h in p.hexagons:
            for pair in h.orientedPairs():
                rebuilt = hexagonClosure(p.group, p.epsilon, pair[0], pair[1])
                assert rebuilt == h


def test_partner_symmetry_and_pairs():
    for q in (5, 8, 9):
        p = gfPasture(q)
        for x in p.fundamentalElements():
            for y in p.partnersOf(x):
                assert x in p.partnersOf(y)
        assert set(p.fundamentalPairs()) == p.pairSet()


def test_pair_order_is_first_seen_order():
    for q in (4, 7, 9, 25, 97):
        p = gfPasture(q)
        expected = []
        for h in p.hexagons:
            for pair in h.orientedPairs():
                if pair not in expected:
                    expected.append(pair)
        assert p.fundamentalPairs() == tuple(expected)
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
        assert [h.pairs for h in p.hexagons] == [h.pairs for h in reference.hexagons], q
        assert p.fundamentalPairs() == reference.fundamentalPairs(), q


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
    assert len(p0.fundamentalElements()) == 16
    assert p0.group.freeRank == 4
    with pytest.raises(InvalidPastureError):
        builtinPasture("nope")


def test_gf2_pasture_is_degenerate():
    p = gfPasture(2)
    assert p.group.dim == 0
    assert p.epsilon == ()
    assert p.hexagons == ()


def test_hexagon_type_rule_on_sign():
    s = builtinPasture("sign")
    (h,) = s.hexagons
    # the sign hexagon carries the pair (1, 1) and twice (1, epsilon)
    assert h.pairs[0] == ((0,), (0,))
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
