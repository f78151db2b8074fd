"""Sublattice construction output frozen against an earlier implementation.

tests/data/sublattice_frozen.json was recorded from the construction that
reduced c0 and the coefficients at every step and rescanned every pair at
every level.  Each case holds the counts (p1, p2, p3, p4) and the first 12
hex digits of the sha256 of (generators, rules, typeFourLists, freeMatrix)
as JSON, or "not generated" when the construction refused the source.

Cases: every catalogue foundation and its dual ("name*"), the uniform
foundations of the benchmark ladder together with U(3,8) and U(5,8), the
builtin pastures with free rank, and seeded random pastures ("random:i",
their data stored in the case) that exercise the type-2 rule the matroid
foundations never pick.
"""

import hashlib
import json
from pathlib import Path

import pytest

from foundry.foundation import computeFoundation
from foundry.matroid import namedMatroid
from foundry.morphism import NotGeneratedByFundamentalElements, fullRankSublattice
from foundry.pasture import builtinPasture, pastureFromJson

FROZEN = json.loads((Path(__file__).parent / "data" / "sublattice_frozen.json").read_text())


def sourceOf(case, doc):
    if case.startswith("random:"):
        return pastureFromJson(doc["pasture"])
    if case.startswith("builtin:"):
        return builtinPasture(case[len("builtin:"):])
    m = namedMatroid(case.rstrip("*"))
    return computeFoundation(m.dual() if case.endswith("*") else m).foundation


def record(pasture):
    """The frozen form of one construction: [p1, p2, p3, p4, digest]."""
    try:
        sub = fullRankSublattice(pasture)
    except NotGeneratedByFundamentalElements:
        return "not generated"
    data = [sub.generators, sub.rules, sub.typeFourLists, sub.freeMatrix.data]
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()[:12]
    return [sub.counts[k] for k in ("p1", "p2", "p3", "p4")] + [digest]


@pytest.mark.parametrize("case", sorted(c for c in FROZEN if not c.startswith("random:")))
def test_sublattice_matches_frozen_record(case):
    assert record(sourceOf(case, FROZEN[case])) == FROZEN[case]["record"]


def test_random_sublattices_match_frozen_records():
    cases = sorted(c for c in FROZEN if c.startswith("random:"))
    assert any(FROZEN[c]["record"] != "not generated" and FROZEN[c]["record"][1] for c in cases)
    for case in cases:
        assert record(sourceOf(case, FROZEN[case])) == FROZEN[case]["record"], case
