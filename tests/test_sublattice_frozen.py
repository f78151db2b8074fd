"""Sublattice construction output frozen against an earlier implementation.

tests/data/sublattice_frozen.json was recorded from the construction that
reduced c0 and the coefficients at every step and rescanned every pair at
every level.  Each case holds the counts (p1, p2, p3, p4) and the first 12
hex digits of the sha256 of (generators, rules, typeFourLists, freeMatrix)
as JSON, or "not generated" when the construction refused the source.

Cases: every catalogue foundation and its dual ("name*"), the uniform
foundations of the benchmark ladder together with U(3,8) and U(5,8), the
builtin pastures with free rank, seeded random pastures ("random:i",
their data stored in the case) that exercise the type-2 rule the matroid
foundations never pick, and the large non-uniform foundations of U(3,8),
U(4,8) and U(4,9) with their first basis removed ("minus-basis:name").
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from foundry.foundation import computeFoundation
from foundry.matroid import Matroid, namedMatroid
from foundry.morphism import NotGeneratedByFundamentalElements, fullRankSublattice
from foundry.pasture import builtinPasture, pastureFromJson
from foundry.zlattice import spansLattice

FROZEN = json.loads((Path(__file__).parent / "data" / "sublattice_frozen.json").read_text())


def sourceOf(case, doc):
    if case.startswith("random:"):
        return pastureFromJson(doc["pasture"])
    if case.startswith("builtin:"):
        return builtinPasture(case[len("builtin:"):])
    if case.startswith("minus-basis:"):
        m = namedMatroid(case[len("minus-basis:"):])
        return computeFoundation(Matroid.fromBases(m.n, m.bases[1:])).foundation
    m = namedMatroid(case.rstrip("*"))
    return computeFoundation(m.dual() if case.endswith("*") else m).foundation


@functools.lru_cache(maxsize=None)
def pastureOf(case):
    return sourceOf(case, FROZEN[case])


def record(pasture):
    """The frozen form of one construction: [p1, p2, p3, p4, digest]."""
    try:
        sub = fullRankSublattice(pasture)
    except NotGeneratedByFundamentalElements:
        return "not generated"
    data = [sub.generators, sub.rules, sub.typeFourLists, sub.freeMatrix]
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()[:12]
    return [sub.counts[k] for k in ("p1", "p2", "p3", "p4")] + [digest]


@pytest.mark.parametrize("case", sorted(c for c in FROZEN if not c.startswith("random:")))
def test_sublattice_matches_frozen_record(case):
    assert record(pastureOf(case)) == FROZEN[case]["record"]


def test_random_sublattices_match_frozen_records():
    cases = sorted(c for c in FROZEN if c.startswith("random:"))
    assert any(FROZEN[c]["record"] != "not generated" and FROZEN[c]["record"][1] for c in cases)
    for case in cases:
        assert record(pastureOf(case)) == FROZEN[case]["record"], case


def spans(pasture, elements):
    """The span check over these elements, epsilon and the relation columns."""
    group = pasture.group
    columns = list(elements) + [pasture.epsilon] + group.relationColumns()
    return spansLattice(columns, group.dim)


def test_head_pair_span_check_agrees_with_the_check_on_every_element():
    """The sublattice's span check runs on the hexagon head pairs only; on
    every frozen case it gives the verdict of the check on all fundamental
    elements, refusing the random pastures that are not generated."""
    refused = []
    for case in sorted(FROZEN):
        p = pastureOf(case)
        full = spans(p, tuple(p.partners))
        assert spans(p, [x for h in p.hexagons for x in h[0]]) == full, case
        if not full:
            refused.append(case)
    assert refused and all(FROZEN[c]["record"] == "not generated" for c in refused)


def oracleLevels(sub):
    """SlotProgram.levels rebuilt by scanning every slot at every level for
    the slots read there or later and those live after it."""
    r = len(sub.rules)
    slots = []  # (coefficients on y_1..y_(readLevel - 1), readLevel)
    reads = {}
    for level in range(r, 0, -1):
        rule = sub.rules[level - 1]
        ruleSlot, ruleCoeffs = None, ()
        if rule[0] in ("t1", "t2"):
            ruleSlot = len(slots)
            ruleCoeffs = rule[2][level - 1:]
            slots.append((tuple(-c for c in rule[2][:level - 1]), level))
        entries = []
        seen = set()
        for entry in sub.typeFourLists[level - 1]:
            if entry[3:] + entry[:3] in seen:
                continue
            seen.add(entry)
            c0u, cu, _, c0v, cv, _ = entry
            entries.append((len(slots), cu[-1], len(slots) + 1, cv[-1], c0u, c0v))
            slots += [(cu[:-1], level), (cv[:-1], level)]
        reads[level] = (rule[0], ruleSlot, ruleCoeffs, entries)
    levels = []
    for level in range(1, r + 1):
        kind, ruleSlot, ruleCoeffs, entries = reads[level]
        prev = [coeffs[level - 2] if level > 1 else 0
                for coeffs, readLevel in slots if readLevel >= level]
        live = sum(1 for _, readLevel in slots if readLevel > level)
        levels.append((
            kind,
            None if ruleSlot is None else (ruleSlot, prev[ruleSlot]),
            ruleCoeffs,
            tuple((kU, prev[kU], uL, kV, prev[kV], vL, c0u, c0v)
                  for kU, uL, kV, vL, c0u, c0v in entries),
            tuple(prev[:live]),
        ))
    return tuple(levels)


def test_slot_program_matches_the_per_level_scan():
    checked = 0
    for case in sorted(FROZEN):
        if FROZEN[case]["record"] == "not generated":
            continue
        sub = fullRankSublattice(pastureOf(case))
        assert sub.program().levels == oracleLevels(sub), case
        checked += 1
    assert checked > 80
