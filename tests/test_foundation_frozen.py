"""Foundation output frozen against an earlier implementation.

tests/data/foundation_frozen.json was recorded from the foundation built by
a dense Smith elimination and dense hexagon-head images.  Each case holds
the sha256 of json.dumps(foundationResultToJson(...), sort_keys=True), so
it pins the unit group, epsilon, the hexagon heads, rhoZero and B0.

Cases: every matroid of the benchmark's CLI workload, its dual ("name*")
and, unless it is uniform, one relabelling seeded by its name ("name~");
and every rung of the benchmark's uniform ladder and its dual.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from foundry.foundation import computeFoundation, foundationResultToJson
from foundry.matroid import Matroid, namedMatroid

FROZEN = json.loads((Path(__file__).parent / "data" / "foundation_frozen.json").read_text())

CLI_MATROIDS = ("example52", "fano", "nonfano", "nonpappus", "vamos", "ag23", "t8",
                "uniform(2,4)", "uniform(2,5)", "pappus", "uniform(3,6)")
LADDER = ((2, 5), (3, 5), (2, 6), (4, 6), (3, 6), (2, 7), (5, 7), (3, 7), (4, 7),
          (2, 8), (6, 8))


def cases():
    names = []
    for name in CLI_MATROIDS:
        names += [name, name + "*"] + ([] if name.startswith("uniform") else [name + "~"])
    for r, n in LADDER:
        name = "uniform(%d,%d)" % (r, n)
        names += [name, name + "*"]
    return sorted(set(names))


def matroidOf(case):
    m = namedMatroid(case.rstrip("*~"))
    if case.endswith("*"):
        return m.dual()
    if case.endswith("~"):
        perm = list(range(m.n))
        random.Random(case).shuffle(perm)
        return Matroid.fromBases(m.n, [[perm[e] for e in b] for b in m.bases], validate=False)
    return m


def record(case):
    doc = foundationResultToJson(computeFoundation(matroidOf(case)))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_frozen_record_covers_every_case():
    assert sorted(FROZEN) == cases()


@pytest.mark.parametrize("case", cases())
def test_foundation_matches_frozen_record(case):
    assert record(case) == FROZEN[case]
