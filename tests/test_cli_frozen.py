"""Command line output frozen byte for byte.

tests/data/cli_frozen.json maps each invocation, its arguments joined by
spaces, to [exit code, first 12 hex digits of the sha256 of stdout, the
same of stderr], as foundry.cli.run printed them in process.  The
invocations cover every subcommand in text and JSON and the matrix shapes
that are easy to get wrong: targets whose unit group has no coordinates
(gf:2, krasner), a foundation with no free part (fano), one whose
sublattice has a Z/2 cokernel (example52), a free-rank target (U), a
certificate, isomorphisms and domain errors.

Run this file as a script to print the record of the current code; a
missing record fails test_frozen_record_covers_every_invocation.
"""

import hashlib
import json
from pathlib import Path

import pytest

from foundry.cli import run

DATA = Path(__file__).parent / "data" / "cli_frozen.json"
FROZEN = json.loads(DATA.read_text()) if DATA.exists() else {}

INVOCATIONS = [
    "foundation --matroid example52",
    "foundation --matroid example52 --output json",
    "foundation --matroid fano",
    "foundation --matroid fano --output json",
    "foundation --matroid pappus --basis 0,1,3 --output json",
    "morphisms --matroid example52 --target gf:7",
    "morphisms --matroid example52 --target gf:7 --output json",
    "morphisms --matroid example52 --target gf:7 --count",
    "morphisms --matroid example52 --target gf:2 --stats --output json",
    "morphisms --matroid fano --target gf:2",
    "morphisms --matroid fano --target gf:2 --stats --output json",
    "morphisms --matroid fano --target krasner --output json",
    "morphisms --matroid uniform(2,4) --target krasner --stats",
    "morphisms --matroid example52 --target U --stats",
    "morphisms --matroid example52 --target U --output json",
    "morphisms --matroid uniform(2,4) --target U --stats --output json",
    "morphisms --matroid example52 --target sign --stats",
    "morphisms --matroid pappus --target gf:8 --count --stats",
    "morphisms --matroid pappus --target gf:8 --count --stats --output json",
    "morphisms --matroid pappus --target gf:4 --output json",
    "morphisms --matroid t8 --target gf:3 --stats --output json",
    "morphisms --matroid example52 --target gf:6",
    "representations --matroid example52 --field 5",
    "representations --matroid example52 --field 5 --output json",
    "representations --matroid fano --field 2 --output json",
    "representations --matroid uniform(2,4) --field 4",
    "orientable --matroid fano",
    "orientable --matroid example52 --output json",
    "certificate --matroid vamos --output json",
    "certificate --matroid pappus",
    "iso --matroid uniform(2,4) --target U",
    "iso --matroid uniform(2,4) --target U --output json",
    "iso --source H --target H --output json",
    "iso --matroid fano --target F3",
    "foundation --matroid example52 --basis 0,1,2",
]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def test_frozen_record_covers_every_invocation():
    assert sorted(FROZEN) == sorted(INVOCATIONS)


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_cli_output_matches_frozen_record(invocation, capsys):
    code = run(invocation.split())
    captured = capsys.readouterr()
    assert [code, digest(captured.out), digest(captured.err)] == FROZEN[invocation]


if __name__ == "__main__":
    import contextlib
    import io

    record = {}
    for invocation in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(invocation.split())
        record[invocation] = [code, digest(out.getvalue()), digest(err.getvalue())]
    print("{\n%s\n}" % ",\n".join(" %s: %s" % (json.dumps(k), json.dumps(v))
                                  for k, v in sorted(record.items())))
