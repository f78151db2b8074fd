"""Bounded fuzzing of the JSON loaders through the command line.

Every generated document must get an answer (exit 0) or one line on stderr
with exit code 1 or 2; any exception escaping run() fails the test.  Runs
are derandomized and capped so they stay a small part of the suite.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foundry.cli import run

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

leaves = (st.none() | st.booleans() | st.integers(-3, 9) | st.integers()
          | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3))
junk = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
                    max_leaves=10)


@st.composite
def shapedMatroidDocs(draw):
    """Well-formed documents (often, but not always, a matroid) with at most
    one field replaced by junk."""
    n = draw(st.integers(0, 6))
    rank = draw(st.integers(0, n))
    subset = st.lists(st.integers(0, n), min_size=rank, max_size=rank, unique=True)
    key = draw(st.sampled_from(["bases", "nonbases"]))
    doc = {"n": n, "rank": rank, key: draw(st.lists(subset, max_size=6))}
    for field in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        doc[field] = draw(junk)
    return doc


@st.composite
def pastureDocs(draw):
    """Documents near a pasture's shape: coordinates as long as the group's
    dimension (at most 4) unless a field is junk, and at most one field
    missing."""
    invariants = draw(st.sampled_from([[], [2], [3], [2, 2], [2, 4], [6], [0], [4, 6]]) | junk)
    freeRank = draw(st.integers(-1, 2) | leaves)
    dim = draw(st.integers(0, 3))
    if isinstance(invariants, list) and type(freeRank) is int and 0 <= freeRank:
        dim = min(len(invariants) + freeRank, 4)
    coords = st.lists(st.integers(-2, 6), min_size=dim, max_size=dim) | junk
    doc = {"invariants": invariants, "freeRank": freeRank, "epsilon": draw(coords),
           "hexagons": draw(st.lists(st.lists(coords, min_size=2, max_size=2), max_size=3)
                            | junk)}
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


def runQuietly(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def assertCleanExit(code, err):
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and err.split(":")[0] in ("error", "input error")


@FUZZ
@given(shapedMatroidDocs() | junk)
def test_matroid_documents_answer_or_exit_cleanly(doc):
    assertCleanExit(*runQuietly(["foundation", "--matroid", "-"], json.dumps(doc)))


@FUZZ
@given(pastureDocs())
def test_pasture_documents_answer_or_exit_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("pasture") / "doc.json"
    path.write_text(json.dumps(doc))
    assertCleanExit(*runQuietly(["iso", "--source", "file:%s" % path, "--target", "F3"]))
