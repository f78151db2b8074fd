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
from foundry.morphism import SearchStats, searchMorphisms
from foundry.pasture import builtinPasture, gfPasture

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


@pytest.mark.parametrize("source", sorted({case.split(">")[0] for case in FROZEN}))
def test_search_matches_frozen_record(source, monkeypatch):
    """Also checks, on every case, that every lift a leaf assembles is
    canonical as built and that no morphism is returned twice, since the
    search keeps no duplicate filter."""
    assembled = []
    original = foundry.morphism.assemble

    def recordingAssemble(*args):
        homs = original(*args)
        assembled.extend(homs)
        return homs

    monkeypatch.setattr(foundry.morphism, "assemble", recordingAssemble)
    for case in sorted(c for c in FROZEN if c.split(">")[0] == source):
        _, target, flags = case.split(">")
        assembled.clear()
        stats = SearchStats()
        found = searchMorphisms(sourceOf(source), pasture(target), findOne=flags[0] == "1",
                                findIso=flags[1] == "1", stats=stats)
        keys = [m.sortKey() for m in found]
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()[:12]
        d = stats.asDict()
        got = [d["torsionHoms"], d["leafCandidates"], d["assembled"], d["valid"],
               len(keys), digest]
        assert got == FROZEN[case], case
        assert all(h.matrix == h.canonicalMatrix() for h in assembled), case
        assert len(set(keys)) == len(keys), case
