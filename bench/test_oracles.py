"""Checks with teeth: each oracle must reject a corrupted answer.

Run with ``python3 -m pytest bench -q`` from the repository root.  Every
test takes true answers to a few cheap queries, corrupts one, and expects
the workload's check to name that query.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import workloads  # noqa: E402

BRUTE_FORCE = json.loads(oracles.BRUTEFORCE_FILE.read_text())["counts"]


def answered(workload, keep):
    """Restrict a workload to the queries whose label passes keep, and answer them."""
    workload.queries = [q for q in workload.queries if keep(q.label)]
    return workload, [q.run() for q in workload.queries]


def index(workload, label):
    return next(i for i, q in enumerate(workload.queries) if q.label == label)


@pytest.fixture(scope="module")
def sweep():
    subjects = {"example52", "example52~", "uniform(2,4)", "vamos"}
    fields = {2, 5, 7, 97}
    return answered(workloads.FieldSweep(7), lambda label: label[1] in subjects
                    and (label[0] == "foundation" or label[2] in fields))


@pytest.fixture(scope="module")
def cli():
    names = {"nonfano", "uniform(2,4)", "vamos"}
    return answered(workloads.CliVerdicts(7), lambda label: label[1] in names)


def test_true_answers_pass(sweep, cli):
    for workload, answers in (sweep, cli):
        assert workload.check(answers, BRUTE_FORCE) == {}


def test_changed_matrix_entry_fails(sweep):
    workload, answers = sweep
    i = index(workload, ("representations", "example52", 5))
    first = [list(row) for row in answers[i][0]]
    first[2][6] = (first[2][6] + 1) % 5 or 1
    bad = list(answers)
    bad[i] = (tuple(tuple(row) for row in first),) + answers[i][1:]
    assert i in workload.check(bad, BRUTE_FORCE)


def test_rescaled_duplicate_fails(sweep):
    workload, answers = sweep
    i = index(workload, ("representations", "example52", 97))
    rows = answers[i][0]
    scaled = (tuple(2 * x % 97 for x in rows[0]),) + rows[1:]
    bad = list(answers)
    bad[i] = answers[i] + (scaled,)
    assert i in workload.check(bad, BRUTE_FORCE)


@pytest.mark.parametrize("label", [
    ("representations", "uniform(2,4)", 7),    # closed form
    ("representations", "example52", 5),       # brute-force table
    ("representations", "example52~", 97),     # relabelled copy's count
])
def test_count_off_by_one_fails(sweep, label):
    workload, answers = sweep
    i = index(workload, label)
    bad = list(answers)
    bad[i] = answers[i][:-1]
    assert i in workload.check(bad, BRUTE_FORCE)


def test_representation_of_vamos_fails(sweep):
    workload, answers = sweep
    i = index(workload, ("representations", "vamos", 7))
    _, rows = oracles.witness("uniform(4,8)")
    bad = list(answers)
    bad[i] = (tuple(tuple(x % 7 for x in row) for row in rows),)
    assert i in workload.check(bad, BRUTE_FORCE)


def test_flipped_ladder_verdict_fails():
    workload = workloads.UniformLadder(7)
    answers = [oracles.uniformRepresentable(r, n, q) for _, r, n, q
               in (query.label for query in workload.queries)]
    assert workload.check(answers, BRUTE_FORCE) == {}
    for i in (0, len(answers) - 1):
        bad = list(answers)
        bad[i] = not bad[i]
        assert list(workload.check(bad, BRUTE_FORCE)) == [i]


def editedJson(answer, edit):
    code, text = answer
    doc = json.loads(text)
    edit(doc)
    return code, json.dumps(doc)


@pytest.mark.parametrize("label, edit", [
    (("orientable", "nonfano", "relabelled"), lambda d: d.update(orientable=False)),
    (("orientable", "vamos", "M"), lambda d: d.update(orientable=False)),
    (("certificate", "vamos", "dual"), lambda d: d.update(certificate=None)),
    (("certificate", "nonfano", "M"),
     lambda d: d.update(certificate={"kind": "OneIsFundamental"})),
    (("foundation", "vamos", "dual"), lambda d: d.update(freeRank=d["freeRank"] - 1)),
    (("foundation", "uniform(2,4)", "M"), lambda d: d.update(invariants=[])),
    (("foundation", "nonfano", "relabelled"), lambda d: d.update(hexagons=[])),
    (("iso", "nonfano", "D"), lambda d: d.update(isomorphic=False)),
])
def test_corrupted_cli_answer_fails(cli, label, edit):
    workload, answers = cli
    i = index(workload, label)
    bad = list(answers)
    bad[i] = editedJson(answers[i], edit)
    assert i in workload.check(bad, BRUTE_FORCE)


def test_failed_exit_code_fails(cli):
    workload, answers = cli
    i = index(workload, ("foundation", "nonfano", "dual"))
    bad = list(answers)
    bad[i] = (2, "")
    assert i in workload.check(bad, BRUTE_FORCE)


def test_non_primitive_polynomial_is_rejected(monkeypatch):
    # x^2 + 1 is irreducible over GF(3), but x has order 4, not 8
    monkeypatch.setitem(oracles.CONWAY, (3, 2), (1, 0, 1))
    with pytest.raises(ValueError):
        oracles.Field(9)


def test_scaling_canonical_form_is_invariant():
    field = oracles.Field(8)
    rows = ((1, 0, 0, 3, 5), (0, 1, 0, 7, 0), (0, 0, 1, 2, 6))
    form = oracles.scalingCanonicalForm(rows, field)
    for a, b, c in itertools.product((1, 3, 6), repeat=3):
        scaled = tuple(tuple(field.mul[field.mul[s][x]][t] for x, t in zip(row, (b, 1, c, a, 5)))
                       for s, row in zip((a, b, c), rows))
        assert oracles.scalingCanonicalForm(scaled, field) == form
    other = ((1, 0, 0, 3, 5), (0, 1, 0, 7, 0), (0, 0, 1, 2, 7))
    assert oracles.scalingCanonicalForm(other, field) != form


def test_witnesses_have_the_published_matroids():
    for name, (_, representable) in oracles.VERDICTS.items():
        if representable:
            _, _, bases = workloads.namedBases(name)
            assert oracles.witnessHolds(name, bases), name


def test_closed_form_agrees_with_brute_force():
    for n in (4, 5):
        _, rank, bases = workloads.namedBases("uniform(2,%d)" % n)
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert oracles.bruteForceCount(bases, n, rank, q) == oracles.uniformRank2Count(n, q)


def test_arc_bound_at_small_fields():
    # U(3,6) is a hyperoval in PG(2,4) but no arc of PG(2,3); U(2,5) needs 5 points
    assert oracles.uniformRepresentable(3, 6, 4)
    assert not oracles.uniformRepresentable(3, 6, 3)
    assert oracles.uniformRepresentable(3, 5, 4) and not oracles.uniformRepresentable(2, 5, 3)
    assert oracles.uniformRepresentable(5, 8, 7) and not oracles.uniformRepresentable(5, 8, 5)
