"""End-to-end command line checks driven through run()."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import foundry
from foundry.cli import run
from foundry.matroid import matroidToJson, namedMatroid
from foundry.morphism import MAX_MORPHISMS, MAX_TORSION_HOMS
from foundry.pasture import builtinPasture, pastureToJson


def runJson(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_foundation_text(capsys):
    assert run(["foundation", "--matroid", "example52"]) == 0
    out = capsys.readouterr().out
    assert "unit group: Z/2 x Z^3" in out
    assert "reference basis: 0,1,3" in out
    assert "hexagons: 3 (U:3)" in out


def test_foundation_json(capsys):
    code, doc = runJson(capsys, ["foundation", "--matroid", "example52",
                                 "--output", "json"])
    assert code == 0
    assert doc["B0"] == [0, 1, 3]
    assert doc["invariants"] == [2]
    assert doc["freeRank"] == 3
    assert doc["epsilon"] == [1, 0, 0, 0]


def test_foundation_basis_override(capsys):
    assert run(["foundation", "--matroid", "example52", "--basis", "0,1,4"]) == 0
    out = capsys.readouterr().out
    assert "reference basis: 0,1,4" in out


def test_representations_json(capsys):
    code, doc = runJson(capsys, ["representations", "--matroid", "example52",
                                 "--field", "5", "--output", "json"])
    assert code == 0
    assert doc["count"] == 2
    assert doc["matrices"] == [
        [[1, 0, 1, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1, 4], [0, 0, 0, 1, 1, 1, 4]],
        [[1, 0, 1, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1, 2], [0, 0, 0, 1, 1, 1, 2]],
    ]


def test_representations_text_signed_residues(capsys):
    assert run(["representations", "--matroid", "example52", "--field", "5"]) == 0
    out = capsys.readouterr().out
    assert "representations over GF(5): 2" in out
    assert "-1" in out  # 4 displayed symmetrically


def test_representation_check_failure_exits_two(capsys, monkeypatch):
    from foundry import cli
    from foundry.matroid import Matroid

    def wrongMatroid(rows, field, name=None):
        return Matroid.fromBases(len(rows[0]), [tuple(range(len(rows)))])

    monkeypatch.setattr(cli, "matroidOfMatrix", wrongMatroid)
    assert run(["representations", "--matroid", "example52", "--field", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_morphisms_count_and_stats(capsys):
    code, doc = runJson(capsys, ["morphisms", "--matroid", "pappus",
                                 "--target", "gf:8", "--count", "--stats",
                                 "--output", "json"])
    assert code == 0
    assert doc["count"] == 18
    assert doc["stats"]["leafCandidates"] <= 36
    assert doc["stats"]["p1"] + doc["stats"]["p2"] + 2 * doc["stats"]["p3"] == 7


@pytest.mark.parametrize("matroid, field, heads", [("example52", "gf:7", 2),
                                                   ("pappus", "gf:8", 0)])
def test_morphisms_stats_report_the_heads_a_leaf_checks(capsys, matroid, field, heads):
    """leafHeads counts the source hexagon heads that no rule, pair or
    type-four entry of the search covers, in text and in JSON."""
    argv = ["morphisms", "--matroid", matroid, "--target", field, "--count", "--stats"]
    code, doc = runJson(capsys, argv + ["--output", "json"])
    assert code == 0
    assert doc["stats"]["leafHeads"] == heads
    assert run(argv) == 0
    assert ", leafHeads=%d, " % heads in capsys.readouterr().out.splitlines()[-1]


def test_morphisms_count_keeps_no_maps(capsys, monkeypatch):
    """--count reads the count off the search counters: it keeps no map, so
    the listing ceiling does not apply, and prints what a listing counts."""
    argv = ["morphisms", "--matroid", "example52", "--target", "gf:7", "--stats"]
    assert run(argv) == 0
    listing = capsys.readouterr().out.splitlines()
    assert listing[0] == "morphisms: 4"

    def keep(*args):
        raise AssertionError("a counting search kept a map")
    monkeypatch.setattr("foundry.morphism.PastureMorphism.__init__", keep)
    monkeypatch.setattr("foundry.morphism.MAX_MORPHISMS", 0)
    assert run(argv + ["--count"]) == 0
    assert capsys.readouterr().out.splitlines() == ["4", listing[-1]]


def test_morphism_ceiling_admits_exactly_its_value(capsys, monkeypatch):
    # example52 has 4 morphisms into GF(7)
    argv = ["morphisms", "--matroid", "example52", "--target", "gf:7"]
    monkeypatch.setattr("foundry.morphism.MAX_MORPHISMS", 4)
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("morphisms: 4\n")
    monkeypatch.setattr("foundry.morphism.MAX_MORPHISMS", 3)
    for command in (argv, ["representations", "--matroid", "example52", "--field", "7"]):
        assert run(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: more than 3 morphisms from foundation(example52) "
                                "to gf:7; a listing keeps at most that many\n")


def test_listing_past_the_morphism_ceiling_is_refused_within_seconds(capsys):
    """uniform(2,5) has about 4.3e9 morphisms into GF(65521); the listing
    stops at the ceiling (about 3 s on one core) instead of growing for
    minutes."""
    start = time.perf_counter()
    assert run(["morphisms", "--matroid", "uniform(2,5)", "--target", "gf:65521"]) == 2
    assert time.perf_counter() - start < 30
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: more than %d morphisms" % MAX_MORPHISMS)
    assert captured.err.count("\n") == 1


def unitVector(i, n):
    return [int(j == i) for j in range(n)]


# Pastures generated by their fundamental elements whose torsion parts have
# far more endomorphisms than MAX_TORSION_HOMS: Z/10^9 has 10^9 and (Z/2)^16
# has 2^256.
LARGE_TORSION = {
    "Z/10^9": {"invariants": [10 ** 9], "epsilon": [5 * 10 ** 8], "hexagons": [[[1], [1]]]},
    "(Z/2)^16": {"invariants": [2] * 16, "epsilon": unitVector(0, 16),
                 "hexagons": [[unitVector(i, 16), unitVector(i + 1, 16)] for i in range(0, 16, 2)]},
}


@pytest.mark.parametrize("name", sorted(LARGE_TORSION))
def test_iso_past_the_torsion_ceiling_exits_two_before_listing(capsys, monkeypatch, tmp_path,
                                                               name):
    def refuse(*args):
        raise AssertionError("torsion homomorphisms listed past the ceiling")
    monkeypatch.setattr("foundry.morphism.homFinite", refuse)
    path = tmp_path / "pasture.json"
    path.write_text(json.dumps(LARGE_TORSION[name]))
    assert run(["iso", "--source", "file:%s" % path, "--target", "file:%s" % path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: more than %d homomorphisms between the torsion parts "
                            "of the source and the target\n" % MAX_TORSION_HOMS)


def test_torsion_ceiling_admits_gf65521(capsys, monkeypatch):
    """gf:65521's unit group Z/65520 has 65,520 endomorphisms, under the
    ceiling.  Listing them and searching takes 1 to 2 s, so the listing is
    replaced by an empty one: the search runs and finds no isomorphism."""
    listed = []

    def record(source, target):
        listed.append((source.invariants, target.invariants))
        return []
    monkeypatch.setattr("foundry.morphism.homFinite", record)
    argv = ["iso", "--source", "gf:65521", "--target", "gf:65521"]
    for ceiling in (MAX_TORSION_HOMS, 65520):
        monkeypatch.setattr("foundry.morphism.MAX_TORSION_HOMS", ceiling)
        assert run(argv) == 0
        assert capsys.readouterr().out == "isomorphic: no\n"
    assert listed == [((65520,), (65520,))] * 2
    monkeypatch.setattr("foundry.morphism.MAX_TORSION_HOMS", 65519)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: more than 65519 homomorphisms")
    assert len(listed) == 2


def test_morphisms_matrices_listed(capsys):
    code, doc = runJson(capsys, ["morphisms", "--matroid", "example52",
                                 "--target", "gf:5", "--output", "json"])
    assert code == 0
    assert doc["count"] == 2
    assert doc["matrices"] == [[[2, 0, 3, 1]], [[2, 3, 1, 2]]]


def test_morphisms_builtin_target(capsys):
    code, doc = runJson(capsys, ["morphisms", "--matroid", "vamos",
                                 "--target", "sign", "--count",
                                 "--output", "json"])
    assert code == 0
    assert doc["count"] > 0


def test_orientable(capsys):
    code, doc = runJson(capsys, ["orientable", "--matroid", "fano",
                                 "--output", "json"])
    assert code == 0 and doc["orientable"] is False
    code, doc = runJson(capsys, ["orientable", "--matroid", "nonpappus",
                                 "--output", "json"])
    assert code == 0 and doc["orientable"] is True


def test_certificate(capsys):
    code, doc = runJson(capsys, ["certificate", "--matroid", "vamos",
                                 "--output", "json"])
    assert code == 0
    assert doc["certificate"]["kind"] == "OneIsFundamental"
    code, doc = runJson(capsys, ["certificate", "--matroid", "pappus",
                                 "--output", "json"])
    assert code == 0
    assert doc["certificate"] is None


def test_iso_matroid_source(capsys):
    code, doc = runJson(capsys, ["iso", "--matroid", "t8", "--target", "F3",
                                 "--output", "json"])
    assert code == 0
    assert doc["isomorphic"] is True


def test_iso_pasture_source(capsys):
    code, doc = runJson(capsys, ["iso", "--source", "F3", "--target", "sign",
                                 "--output", "json"])
    assert code == 0
    assert doc["isomorphic"] is False


def test_iso_requires_exactly_one_source(capsys):
    assert run(["iso", "--target", "F3"]) == 1
    assert run(["iso", "--matroid", "t8", "--source", "F3",
                "--target", "F3"]) == 1


def test_matroid_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps(matroidToJson(namedMatroid("uniform:2,4")))))
    code, doc = runJson(capsys, ["foundation", "--matroid", "-",
                                 "--output", "json"])
    assert code == 0
    assert doc["freeRank"] == 2


def test_matroid_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matroidToJson(namedMatroid("fano"))))
    code, doc = runJson(capsys, ["orientable", "--matroid", str(path),
                                 "--output", "json"])
    assert code == 0
    assert doc["orientable"] is False


def test_pasture_target_from_file(capsys, tmp_path):
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(pastureToJson(builtinPasture("sign"))))
    code, doc = runJson(capsys, ["morphisms", "--matroid", "fano",
                                 "--target", "file:%s" % path, "--count",
                                 "--output", "json"])
    assert code == 0
    assert doc["count"] == 0


def test_domain_errors_exit_two(capsys):
    assert run(["foundation", "--matroid", "nosuchthing"]) == 2
    assert run(["morphisms", "--matroid", "fano", "--target", "gf:6"]) == 2
    assert run(["morphisms", "--matroid", "fano", "--target", "nosuch"]) == 2
    capsys.readouterr()


def test_input_errors_exit_one(capsys, tmp_path):
    assert run(["foundation", "--matroid", "no/such/file.json"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["foundation", "--matroid", str(bad)]) == 1
    assert run(["morphisms", "--matroid", "fano", "--target", "gf:notanumber"]) == 1
    capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    assert run(["foundation"]) == 1
    assert run(["nosuchcommand"]) == 1
    assert run(["foundation", "--matroid", "fano", "--output", "bogus"]) == 1
    capsys.readouterr()


def test_stdin_bad_json_exits_one(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    assert run(["foundation", "--matroid", "-"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv,stdin", [
    (["foundation", "--matroid", "uniform(20,40)"], None),
    (["foundation", "--matroid", "-"], {"n": 40, "rank": 20, "nonbases": []}),
    (["foundation", "--matroid", "-"], {"n": 10 ** 9, "rank": 0, "nonbases": []}),
    (["foundation", "--matroid", "-"], {"n": 40, "bases": [list(range(20))]}),
])
def test_subset_ceiling_exits_two_before_enumerating(capsys, monkeypatch, argv, stdin):
    """C(40, 20) is about 1.4e11: the guard must refuse it without listing a subset."""
    import io
    import itertools

    def refuse(*args):
        raise AssertionError("r-subsets enumerated past the ceiling")

    monkeypatch.setattr(itertools, "combinations", refuse)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "10000" in err


@pytest.mark.parametrize("argv", [
    ["orientable", "--matroid", "fano", "--jobs", "4"],
    ["iso", "--source", "sign", "--target", "sign", "--jobs", "4"],
])
def test_jobs_flag_is_a_usage_error(capsys, argv):
    """The search is sequential and no subcommand takes --jobs."""
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--jobs" in captured.err


@pytest.mark.parametrize("argv", [
    ["representations", "--matroid", "fano", "--field", "1000000000039"],
    ["morphisms", "--matroid", "fano", "--target", "gf:1000000000039"],
])
def test_field_over_the_ceiling_exits_two(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "ceiling" in captured.err


@pytest.mark.parametrize("field", ["6", "70000"])
def test_refused_field_exits_before_the_foundation(capsys, monkeypatch, field):
    def unreachable(*args, **kwargs):
        raise AssertionError("the foundation was computed for a refused field")
    monkeypatch.setattr("foundry.cli.computeFoundation", unreachable)
    monkeypatch.setattr("foundry.representation.computeFoundation", unreachable)
    assert run(["representations", "--matroid", "uniform(4,9)", "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_refused_field_is_reported_before_a_bad_basis(capsys):
    # (0, 1, 2) is a line of the Fano plane, so not a basis
    argv = ["representations", "--matroid", "fano", "--basis", "0,1,2"]
    assert run(argv + ["--field", "6"]) == 2
    assert capsys.readouterr().err == "error: 6 is not a prime power\n"
    assert run(argv + ["--field", "5"]) == 2
    assert capsys.readouterr().err == "error: (0, 1, 2) is not a basis\n"


@pytest.mark.parametrize("doc", [
    {"n": "abc", "rank": 2, "nonbases": []},
    {"n": 4, "bases": 5},
    {"n": 4.7, "rank": 2, "nonbases": []},
    {"n": 4, "rank": 2, "nonbases": [[0, 1.5]]},
])
def test_matroid_document_with_a_value_that_is_not_an_integer_exits_two(
        capsys, monkeypatch, doc):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert run(["foundation", "--matroid", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"invariants": [2], "freeRank": 0, "epsilon": ["a"], "hexagons": []},
    {"invariants": [2.5], "freeRank": 0, "epsilon": [1], "hexagons": [[[1], [1]]]},
])
def test_pasture_document_with_a_value_that_is_not_an_integer_exits_two(
        capsys, tmp_path, doc):
    path = tmp_path / "pasture.json"
    path.write_text(json.dumps(doc))
    assert run(["iso", "--source", "file:%s" % path, "--target", "F3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("data", [
    b'{"n": ' + b"9" * 5000 + b', "rank": 1, "nonbases": []}',  # over the digit limit
    b"[" * 100000 + b"]" * 100000,  # over the recursion limit
    b'\xff\xfe{"n": 3}',  # not UTF-8
])
def test_unreadable_json_exits_one(capsys, tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    for argv in (["foundation", "--matroid", str(path)],
                 ["iso", "--source", "file:%s" % path, "--target", "F3"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_reader_closing_stdout_early_exits_one_without_a_traceback():
    """The 8930 matrices fill the pipe long before the process ends, so the
    write fails once the reader has taken one line and gone."""
    env = dict(os.environ, PYTHONPATH=str(Path(foundry.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "foundry.cli", "morphisms", "--matroid", "uniform(2,5)",
         "--target", "gf:97"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"morphisms: 8930\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no traceback


def inProcess(argv, stdin, capsys, monkeypatch):
    """(exit code, stdout, stderr) of run(argv), with --help's exit read off
    the SystemExit that argparse raises."""
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    try:
        code = run(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def inFreshProcess(argv, stdin):
    env = dict(os.environ, PYTHONPATH=str(Path(foundry.__file__).parents[1]), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "foundry.cli"] + argv, input=stdin or "",
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_reused_parser_carries_no_state(capsys, monkeypatch):
    """One process runs successes, usage errors, input errors and --help
    back to back on its one parser; each call prints and exits as it does
    alone in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")
    fano = json.dumps(matroidToJson(namedMatroid("fano")))
    calls = [
        (["foundation", "--matroid", "example52", "--output", "json"], None),
        (["foundation", "--matroid", "fano", "--bogus"], None),
        (["orientable", "--matroid", "-", "--output", "json"], fano),
        (["orientable", "--output", "json"], None),
        (["iso", "--matroid", "fano", "--source", "F3", "--target", "F3"], None),
        (["iso", "--source", "F3", "--target", "sign", "--output", "json"], None),
        (["foundation", "--matroid", "-", "--output", "json"], '{"n": 7, "rank": '),
        (["certificate", "--matroid", "-", "--output", "json"], fano),
        (["--help"], None),
        (["morphisms", "--help"], None),
        (["morphisms", "--matroid", "example52", "--target", "gf:7", "--count"], None),
    ]
    for argv, stdin in calls + calls[::-1]:
        assert inProcess(argv, stdin, capsys, monkeypatch) == inFreshProcess(argv, stdin), argv


def test_importing_the_cli_builds_no_parser():
    """Checked in a fresh interpreter that counts the argument parsers
    built: none on import, then one set on the first run, reused after."""
    script = (
        "import argparse, contextlib, io, json\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import foundry.cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        foundry.cli.run(['orientable', '--matroid', 'fano'])\n"
        "    counts.append(len(built))\n"
        "print(json.dumps(counts))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(foundry.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    before, first, second = json.loads(out)
    assert before == 0 and first > 0 and second == first
