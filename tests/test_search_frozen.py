"""Search answers and counters frozen across every kind of target.

tests/data/search_frozen.json was recorded from the tuple-arithmetic search
that the slot kernel replaced.  Each case "source>target>ab" (a = findOne,
b = findIso) holds the SearchStats (torsionHoms, leafCandidates, assembled,
valid), the number of morphisms found and the first 12 hex digits of the
sha256 of their sorted matrices.  Sources are catalogue foundations and P0;
targets are the builtin pastures (finite, free-rank and trivial groups),
GF(q) for q <= 13 and catalogue foundations ("F:name").  Cases that took
over a second then are left out.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

import foundry.morphism
from foundry.foundation import computeFoundation
from foundry.matroid import namedMatroid
from foundry.morphism import (
    PastureMorphism,
    SearchStats,
    isMorphism,
    searchMorphisms,
    sublatticeOf,
)
from foundry.pasture import builtinPasture, gfPasture
from foundry.zlattice import GroupHom

FROZEN = json.loads((Path(__file__).parent / "data" / "search_frozen.json").read_text())


@functools.lru_cache(maxsize=None)
def pasture(spec):
    if spec.startswith("F:"):
        return computeFoundation(namedMatroid(spec[2:])).foundation
    if spec.startswith("gf"):
        return gfPasture(int(spec[2:]))
    return builtinPasture(spec)


def sourceOf(name):
    return pasture(name if name == "P0" else "F:" + name)


@pytest.fixture
def assembled(monkeypatch):
    """Every lift the search assembles, recorded as a GroupHom by wrapping
    assemble, which returns each lift's matrix rows."""
    lifts = []
    original = foundry.morphism.assemble

    def recordingAssemble(p1, p2, *args):
        lifted = original(p1, p2, *args)
        lifts.extend(GroupHom(p1.group, p2.group, rows) for rows in lifted)
        return lifted

    monkeypatch.setattr(foundry.morphism, "assemble", recordingAssemble)
    return lifts


def oracleKeys(p1, p2, lifts, findIso):
    """The sort keys of the lifts that pass the full morphism criterion,
    and under findIso are also surjective."""
    maps = [PastureMorphism(p1, p2, h) for h in lifts]
    return sorted(f.sortKey() for f in maps
                  if isMorphism(f) and (not findIso or f.hom.isSurjective()))


def coveredHeadFailures(p1, p2, lifts):
    """(lift, head) for every lift that sends the head of a hexagon outside
    the sublattice's uncheckedHeads off the target's fundamental pairs,
    which the search checks for no leaf."""
    unchecked = set(sublatticeOf(p1).uncheckedHeads)
    covered = [h[0] for h in p1.hexagons if h[0] not in unchecked]
    pairs = p2.pairs
    return [(h, (x, y)) for h in lifts for x, y in covered
            if (h.apply(x), h.apply(y)) not in pairs]


@pytest.mark.parametrize("source", sorted({case.split(">")[0] for case in FROZEN}))
def test_search_matches_frozen_record(source, assembled):
    """Also checks, on every case, that every lift a leaf assembles is
    canonical as built and sends every hexagon the search covered to
    fundamental pairs, that no morphism is returned twice, since the
    search keeps no duplicate filter; and, when the whole search runs (no
    findOne), that the maps returned are exactly the lifts that pass
    isMorphism, since the search itself checks only the hexagon heads."""
    for case in sorted(c for c in FROZEN if c.split(">")[0] == source):
        _, target, flags = case.split(">")
        findOne, findIso = flags[0] == "1", flags[1] == "1"
        assembled.clear()
        stats = SearchStats()
        found = searchMorphisms(sourceOf(source), pasture(target), findOne=findOne,
                                findIso=findIso, stats=stats)
        keys = [m.sortKey() for m in found]
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()[:12]
        d = stats.asDict()
        got = [d["torsionHoms"], d["leafCandidates"], d["assembled"], d["valid"],
               len(keys), digest]
        assert got == FROZEN[case], case
        assert all(h.matrix == h.canonicalMatrix() for h in assembled), case
        assert coveredHeadFailures(sourceOf(source), pasture(target), assembled) == [], case
        assert len(set(keys)) == len(keys), case
        if not findOne:
            assert oracleKeys(sourceOf(source), pasture(target), assembled, findIso) == keys, case


@pytest.mark.parametrize("name", ["example52", "fano", "nonfano", "pappus", "nonpappus",
                                  "vamos", "ag23", "t8", "uniform:2,4"])
def test_search_keeps_exactly_the_lifts_that_pass_is_morphism(name, assembled):
    """The criterion-10 matroids into GF(16), with isMorphism as the oracle."""
    source, target = pasture("F:" + name), pasture("gf16")
    keys = [m.sortKey() for m in searchMorphisms(source, target)]
    assert oracleKeys(source, target, assembled, False) == keys


# How many hexagon heads each leaf checks, per catalogue foundation: the
# hexagons with no pair that the search matches on images every lift of a
# leaf shares.
UNCHECKED_HEADS = {
    "example52": 2, "fano": 0, "nonfano": 0, "pappus": 0, "nonpappus": 0, "vamos": 0,
    "ag23": 1, "t8": 1, "uniform:2,4": 0, "uniform:2,5": 0, "uniform:3,6": 0,
    "uniform:3,7": 0,
}


def test_unchecked_heads_per_catalogue_foundation():
    got = {name: len(sublatticeOf(pasture("F:" + name)).uncheckedHeads)
           for name in UNCHECKED_HEADS}
    assert got == UNCHECKED_HEADS


@pytest.mark.parametrize("name", ["example52", "fano", "nonfano", "pappus", "nonpappus",
                                  "vamos", "ag23", "t8", "uniform:2,4", "uniform:2,5"])
def test_covered_hexagons_hold_on_every_lift_into_small_fields(name, assembled):
    """Every lift a leaf assembles into GF(q), q <= 16, sends the head of
    every hexagon outside uncheckedHeads to a fundamental pair, so emit may
    skip them.  U(3,6) and U(3,7) have more maps into these fields than a
    listing keeps."""
    source = pasture("F:" + name)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        assembled.clear()
        target = pasture("gf%d" % q)
        searchMorphisms(source, target)
        assert coveredHeadFailures(source, target, assembled) == [], q
