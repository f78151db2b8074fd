"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion is checked at its stated tolerance and wall-clock budget.
Soft observations (legal scan-order differences) are appended to the line
without failing the run.
"""

import contextlib
import itertools
import math
import random
import time

from foundry._gf import FiniteField
from foundry.foundation import computeFoundation
from foundry.matroid import namedMatroid
from foundry.morphism import (PastureMorphism, SearchStats, isIsomorphism,
                              isMorphism, searchMorphisms, sublatticeOf)
from foundry.pasture import builtinPasture, gfPasture
from foundry.representation import (isOrientable, matroidOfMatrix,
                                    representationsOverField)
from foundry.zlattice import GroupHom, cokernelPresentation, smithNormalForm
from test_zlattice import matmul

PRIME_POWERS_49 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
                   27, 29, 31, 32, 37, 41, 43, 47, 49)
PRIME_POWERS_99 = PRIME_POWERS_49 + (53, 59, 61, 64, 67, 71, 73, 79, 81, 83, 89, 97)


@contextlib.contextmanager
def criterion(capsys, num, budget=None):
    soft = []
    start = time.time()
    try:
        yield soft
    except BaseException:
        announce(capsys, num, "FAIL", time.time() - start, soft)
        raise
    elapsed = time.time() - start
    if budget is not None and elapsed >= budget:
        announce(capsys, num, "FAIL", elapsed, soft + ["budget %ds exceeded" % budget])
        raise AssertionError("criterion %02d took %.1fs, budget %ds" % (num, elapsed, budget))
    announce(capsys, num, "PASS", elapsed, soft)


def announce(capsys, num, status, elapsed, soft):
    line = "criterion %02d: %s  %6.1fs" % (num, status, elapsed)
    if soft:
        line += "  [soft: %s]" % "; ".join(soft)
    with capsys.disabled():
        print(line)


def foundationPasture(name, basis=None):
    return computeFoundation(namedMatroid(name), basis).foundation


def test_criterion_01_example52_end_to_end(capsys):
    with criterion(capsys, 1, budget=5):
        m = namedMatroid("example52")
        fr = computeFoundation(m)
        f = fr.foundation
        assert f.group.invariants == (2,)
        assert f.group.freeRank == 3
        assert f.epsilon == (1, 0, 0, 0)
        assert f.hexagonTypes() == ("U", "U", "U")
        assert fr.basis == (0, 1, 3)
        reps = representationsOverField(m, 5, foundationResult=fr)
        assert len(reps) == 2
        assert [rep.matrix for rep in reps] == [
            ((1, 0, 1, 0, 1, 1, 1), (0, 1, 1, 0, 0, 1, 4), (0, 0, 0, 1, 1, 1, 4)),
            ((1, 0, 1, 0, 1, 1, 1), (0, 1, 1, 0, 0, 1, 2), (0, 0, 0, 1, 1, 1, 2)),
        ]
        for rep in reps:
            recovered = matroidOfMatrix(rep.matrix, 5)
            assert recovered.basesSet == m.basesSet


def test_criterion_02_sublattice_table(capsys):
    expected = {
        "uniform:3,6": (14, 6, 4),
        "uniform:3,7": (28, 16, 6),
        "vamos": (20, 20, 0),
        "pappus": (7, 3, 2),
        "nonpappus": (8, 8, 0),
    }
    with criterion(capsys, 2, budget=60) as soft:
        for name, (r1, p1, p3) in expected.items():
            f = foundationPasture(name)
            assert f.group.freeRank == r1, name
            counts = sublatticeOf(f).counts
            assert counts["p1"] + counts["p2"] + 2 * counts["p3"] == r1, name
            if (counts["p1"], counts["p3"]) != (p1, p3):
                soft.append("%s (p1,p3)=(%d,%d) expected (%d,%d)"
                            % (name, counts["p1"], counts["p3"], p1, p3))


def test_criterion_03_pappus_gf8(capsys):
    with criterion(capsys, 3, budget=30):
        stats = SearchStats()
        found = searchMorphisms(foundationPasture("pappus"), gfPasture(8), stats=stats)
        assert len(found) == 18
        assert stats.leafCandidates <= 36


def test_criterion_04_one_fundamental_kill(capsys):
    with criterion(capsys, 4, budget=60):
        for name in ("vamos", "nonpappus"):
            f = foundationPasture(name)
            assert f.group.zero() in f.partners
            for q in (2, 3, 4, 5, 7, 8, 9):
                stats = SearchStats()
                assert searchMorphisms(f, gfPasture(q), stats=stats) == []
                assert stats.assembled == 0, (name, q)


def test_criterion_05_orientability(capsys):
    with criterion(capsys, 5, budget=30):
        assert isOrientable(namedMatroid("vamos")) is True
        assert isOrientable(namedMatroid("nonpappus")) is True
        assert isOrientable(namedMatroid("fano")) is False


def test_criterion_06_foundation_isomorphisms(capsys):
    pairs = [("uniform:2,4", "U"), ("nonfano", "D"), ("ag23", "H"), ("t8", "F3")]
    with criterion(capsys, 6, budget=120):
        for mname, pname in pairs:
            found = searchMorphisms(foundationPasture(mname), builtinPasture(pname),
                                    findOne=True, findIso=True)
            assert found, (mname, pname)
            assert isIsomorphism(found[0]), (mname, pname)


def test_criterion_07_diamond_obstruction(capsys):
    with criterion(capsys, 7):
        p0 = builtinPasture("P0")
        for q in PRIME_POWERS_49:
            assert searchMorphisms(p0, gfPasture(q)) == [], q
        withOne = []
        for p in fixturePastures():
            if p.group.zero() in p.partners:
                withOne.append(p)
                assert searchMorphisms(p0, p, findOne=True), p.name
        assert len(withOne) == 4  # sign, krasner, and two foundations


def test_criterion_08_hexagon_census(capsys):
    with criterion(capsys, 8):
        for q in PRIME_POWERS_49:
            brute = bruteFieldCensus(q)
            predicted = {
                "F3": 1 if q % 3 == 0 else 0,
                "H": 1 if q % 3 == 1 else 0,
                "D": 1 if math.gcd(q, 6) == 1 else 0,
            }
            total = sum(brute.values())
            predicted["U"] = total - sum(predicted.values())
            assert brute == predicted, q
            p = gfPasture(q)
            library = {t: 0 for t in ("F3", "D", "H", "U")}
            for t in p.hexagonTypes():
                library[t] += 1
            assert library == brute, q
            assert len(p.partners) == max(q - 2, 0), q


def test_criterion_09_oracle_equivalence(capsys):
    with criterion(capsys, 9, budget=120):
        roster = fixturePastures()
        sources = [p for p in roster if len(p.partners) <= 8]
        targets = [p for p in roster
                   if p.group.freeRank == 0 and groupOrder(p.group) <= 16]
        checked = 0
        for p1 in sources:
            for p2 in targets:
                assert morphismKeys(searchMorphisms(p1, p2)) == bruteKeys(p1, p2), \
                    (p1.name, p2.name)
                checked += 1
        assert checked >= 100
        rng = random.Random(20260823)
        for _ in range(1000):
            checkRandomSnf(rng)


def test_criterion_10_performance_envelope(capsys):
    names = ["example52", "fano", "nonfano", "pappus", "nonpappus",
             "vamos", "ag23", "t8", "uniform:2,4"]
    with criterion(capsys, 10):
        for name in names:
            m = namedMatroid(name)
            fr = computeFoundation(m)
            for q in PRIME_POWERS_99:
                start = time.time()
                reps = representationsOverField(m, q, foundationResult=fr)
                assert time.time() - start < 300, (name, q)
                if name == "uniform:2,4":
                    assert len(reps) == q - 2, q
                if reps:
                    recovered = matroidOfMatrix(reps[0].matrix, q)
                    assert recovered.basesSet == m.basesSet, (name, q)


# -- fixtures and oracles ----------------------------------------------------

def fixturePastures():
    out = [builtinPasture(n) for n in
           ("sign", "krasner", "f1pm", "U", "D", "H", "F3")]
    out += [gfPasture(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    out += [foundationPasture(n) for n in
            ("fano", "nonfano", "t8", "ag23", "vamos", "nonpappus",
             "example52", "uniform:2,4")]
    return out


def groupOrder(pres):
    n = 1
    for d in pres.invariants:
        n *= d
    return n


def morphismKeys(morphisms):
    return sorted(f.sortKey() for f in morphisms)


def bruteKeys(p1, p2):
    """Exhaustive enumeration of unit-group homs filtered by the morphism
    predicate.  Torsion generators only get images their order annihilates."""
    g1, g2 = p1.group, p2.group
    elements = g2.allElements()
    slots = []
    for j in range(g1.dim):
        if j < len(g1.invariants):
            a = g1.invariants[j]
            slots.append([e for e in elements if g2.isZero(g2.scale(a, e))])
        else:
            slots.append(elements)
    keys = set()
    for choice in itertools.product(*slots):
        mat = tuple(zip(*choice)) if choice else ((),) * g2.dim
        f = PastureMorphism(p1, p2, GroupHom(g1, g2, mat))
        if isMorphism(f):
            keys.add(f.sortKey())
    return sorted(keys)


def bruteFieldCensus(q):
    """Hexagon type counts over GF(q) from raw field arithmetic."""
    field = FiniteField(q)
    pairs = set()
    for x in range(1, q):
        for y in range(1, q):
            if field.add(x, y) == 1:
                pairs.add((x, y))
    census = {t: 0 for t in ("F3", "D", "H", "U")}
    seen = set()
    for seed in sorted(pairs):
        if seed in seen:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            a, b = frontier.pop()
            inv = field.inv(a)
            for nxt in ((b, a), (inv, field.neg(field.mul(b, inv)))):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        elements = {a for a, _ in orbit}
        if len(elements) == 1:
            census["F3"] += 1
        elif any(a == b for a, b in orbit):
            census["D"] += 1
        elif len(elements) == 2:
            census["H"] += 1
        else:
            census["U"] += 1
    return census


def intDet(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def minorGcd(rows, k):
    r, c = len(rows), len(rows[0]) if rows else 0
    g = 0
    for rs in itertools.combinations(range(r), k):
        for cs in itertools.combinations(range(c), k):
            sub = [[rows[i][j] for j in cs] for i in rs]
            g = math.gcd(g, intDet(sub))
    return g


def checkRandomSnf(rng):
    r = rng.randrange(0, 5)
    c = rng.randrange(0, 5)
    rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
    U, D, V = smithNormalForm(rows, c)
    assert len(U) == r and len(V) == c
    assert abs(intDet(U)) == 1
    assert abs(intDet(V)) == 1
    product = matmul(matmul(U, rows), V)
    diag = tuple(D[i][i] for i in range(min(r, c)))
    for i, row in enumerate(product):
        for j, x in enumerate(row):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert x == expect
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        # zeros only at the tail, and each nonzero entry divides the next
        if diag[i] == 0:
            assert diag[i + 1] == 0
        elif diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0
    prev = 1
    for k in range(1, min(r, c) + 1):
        g = minorGcd(rows, k)
        expect = g // prev if prev else 0
        assert diag[k - 1] == expect, (rows, diag)
        prev = g
        if g == 0:
            break
    pres, proj = cokernelPresentation([list(row) for row in rows])
    nonzero = [d for d in diag if d]
    assert pres.invariants == tuple(d for d in nonzero if d >= 2)
    assert pres.freeRank == r - len(nonzero)
    assert proj.isWellDefined() and proj.isSurjective()
