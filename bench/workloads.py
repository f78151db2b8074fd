"""The benchmark's three workloads: their queries, built from a seed, and the
checks that compare their answers with the oracles.

A query is one user question.  Each workload object holds its queries in a
fixed order; a round asks every query once.  Query functions look ``foundry``
names up through the module objects at call time, so the wrappers that the
traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import foundry.cli
import foundry.foundation
import foundry.matroid
import foundry.morphism
import foundry.pasture
import foundry.representation

import oracles

CATALOGUE = ("example52", "fano", "nonfano", "nonpappus", "vamos", "ag23", "t8",
             "uniform(2,4)", "uniform(2,5)")
NON_REPRESENTABLE = ("nonpappus", "vamos")

# Fields per field-sweep subject.  uniform(2,5) and pappus stop early because
# their answer lists grow like q^2 and their searches cost most: uniform(2,5)
# over all 35 fields takes 96 s, and pappus takes 87 s for GF(97) alone.  With
# these caps the 11th-slowest query (query_tail_ms) falls among many of about
# 0.13 s; with higher ones it sat at the drop below the ten slowest.
SWEEP_FIELDS = oracles.PRIME_POWERS_BELOW_100
SWEEP_FIELDS_CAPPED = {"uniform(2,5)": 19, "pappus": 11}


def namedBases(name):
    """(n, rank, bases) of a built-in matroid."""
    m = foundry.matroid.namedMatroid(name)
    return m.n, m.rank, m.bases


def isUniform(name):
    return name.startswith("uniform(")


def relabelled(m, rng):
    """A copy of m with its ground set permuted by the seeded generator."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    bases = [tuple(sorted(perm[e] for e in b)) for b in m.bases]
    return foundry.matroid.Matroid.fromBases(m.n, bases, validate=False)


FAILED = object()   # the answer recorded for a query that raised


class Query:
    """One user question: a label for reports and a function giving its answer."""

    __slots__ = ("label", "run")

    def __init__(self, label, run):
        self.label = label
        self.run = run


class FieldSweep:
    """All GF(q) representations of each catalogue matroid and of a seeded
    relabelling, plus pappus on small fields; one foundation per matroid."""

    name = "field-sweep"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.subjects = []   # (label, catalogue name, matroid, fields)
        for name in CATALOGUE + ("pappus",):
            m = foundry.matroid.namedMatroid(name)
            cap = SWEEP_FIELDS_CAPPED.get(name, 100)
            fields = tuple(q for q in SWEEP_FIELDS if q <= cap)
            self.subjects.append((name, name, m, fields))
            # relabelling leaves a uniform matroid's bases unchanged; pappus,
            # the costliest search, is asked once
            if not isUniform(name) and name != "pappus":
                self.subjects.append((name + "~", name, relabelled(m, rng), fields))
        self.queries = []
        for label, _, m, fields in self.subjects:
            slot = {}
            self.queries.append(Query(("foundation", label), self._foundation(m, slot)))
            for q in fields:
                self.queries.append(Query(("representations", label, q),
                                          self._representations(m, q, slot)))

    @staticmethod
    def _foundation(m, slot):
        def run():
            fr = foundry.foundation.computeFoundation(m)
            slot["fr"] = fr
            group = fr.foundation.group
            return (tuple(group.invariants), group.freeRank, len(fr.foundation.hexagons))
        return run

    @staticmethod
    def _representations(m, q, slot):
        def run():
            reps = foundry.representation.representationsOverField(
                m, q, foundationResult=slot["fr"])
            return tuple(rep.matrix for rep in reps)
        return run

    def check(self, answers, bruteForce):
        """Problems per query index, from the answers of one round."""
        problems = {}
        byLabel = {}   # (label, "foundation" or q) -> (query index, summary or count)
        fields = {}
        matroids = {label: (name, m) for label, name, m, _ in self.subjects}
        for idx, (query, answer) in enumerate(zip(self.queries, answers)):
            if answer is FAILED:
                continue
            kind, label = query.label[0], query.label[1]
            name, m = matroids[label]
            if kind == "foundation":
                byLabel[(label, "foundation")] = (idx, answer)
                continue
            q = query.label[2]
            if q not in fields:
                fields[q] = oracles.Field(q)
            field = fields[q]
            found = oracles.representationProblems(m.bases, m.n, m.rank, answer, field)
            count = len(answer)
            expected = None
            if name.startswith("uniform(2,"):
                expected = oracles.uniformRank2Count(m.n, q)
            elif name in NON_REPRESENTABLE:
                expected = 0
            elif "%s@%d" % (name, q) in bruteForce:
                expected = bruteForce["%s@%d" % (name, q)]
            if expected is not None and count != expected:
                found.append("%d representations, expected %d" % (count, expected))
            byLabel[(label, q)] = (idx, count)
            if found:
                problems[idx] = found
        for (label, key), (idx, value) in byLabel.items():
            if label.endswith("~") and (label[:-1], key) in byLabel:
                original = byLabel[(label[:-1], key)][1]
                if value != original:
                    problems.setdefault(idx, []).append(
                        "%r differs from the original's %r" % (value, original))
        return problems


def _ladderMatroids():
    rungs = [(2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (2, 8)]
    out = []
    for r, n in rungs:
        out.append((r, n))
        if n - r != r:
            out.append((n - r, n))
    return out


def ladderFields(r, n):
    """The fixed fields asked for U(r,n), from the prime powers below 16: the
    two largest below its arc bound and the two smallest at it.  U(3,7) and
    U(4,7) cost most and get three: the largest below and two at the bound."""
    small = [q for q in SWEEP_FIELDS if q < 16]
    below = [q for q in small if not oracles.uniformRepresentable(r, n, q)]
    above = [q for q in small if oracles.uniformRepresentable(r, n, q)]
    if n == 7 and min(r, n - r) == 3:
        return below[-1:] + above[:2]
    return below[-2:] + above[:2]


class UniformLadder:
    """Is U(r,n) representable over GF(q)?  A fresh foundation per query, as
    a CLI call would compute it, then a findOne search into GF(q).  The
    questions are fixed, so every seed asks the same work; the seed shuffles
    their order."""

    name = "uniform-ladder"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.queries = [Query(("representable", r, n, q), self._ask(r, n, q))
                        for r, n in _ladderMatroids() for q in ladderFields(r, n)]
        rng.shuffle(self.queries)

    @staticmethod
    def _ask(r, n, q):
        def run():
            m = foundry.matroid.namedMatroid("uniform(%d,%d)" % (r, n))
            fr = foundry.foundation.computeFoundation(m)
            found = foundry.morphism.searchMorphisms(
                fr.foundation, foundry.pasture.gfPasture(q), findOne=True)
            return bool(found)
        return run

    def check(self, answers, bruteForce):
        problems = {}
        for idx, (query, answer) in enumerate(zip(self.queries, answers)):
            if answer is FAILED:
                continue
            _, r, n, q = query.label
            expected = oracles.uniformRepresentable(r, n, q)
            if answer is not expected:
                problems[idx] = ["answered %r, the arc bound says %r" % (answer, expected)]
        return problems


# uniform(3,7) is left out: its orientable and certificate queries took 6.8 s
# of a 16 s round, one round per run, and wall_s then spread by 22% across
# runs on a noisy host.  The same exhaustive P0 search runs for every matroid
# without a certificate, uniform(3,6)'s being the costliest.
CLI_MATROIDS = CATALOGUE + ("pappus", "uniform(3,6)")
CLI_ISO = tuple((name, target) for name, (_, target) in oracles.PUBLISHED_FOUNDATIONS.items()
                if target)


def _cliCall(argv, stdin):
    def run():
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin) if stdin is not None else saved
        try:
            with contextlib.redirect_stdout(out):
                code = foundry.cli.run(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()
    return run


class CliVerdicts:
    """``foundry.cli.run`` in-process with JSON output: foundation, orientable
    and certificate for each matroid, its dual and a seeded relabelling, plus
    four isomorphism questions."""

    name = "cli-verdicts"
    COMMANDS = ("foundation", "orientable", "certificate")

    def __init__(self, seed):
        rng = random.Random(seed)
        self.queries = []
        for name in CLI_MATROIDS:
            m = foundry.matroid.namedMatroid(name)
            dual = m.dual()
            variants = [("M", name, None), ("dual", "-", dual)]
            # relabelling leaves a uniform matroid's bases unchanged
            if not isUniform(name):
                variants.append(("relabelled", "-", relabelled(m, rng)))
            for variant, spec, matroid in variants:
                stdin = None if matroid is None else json.dumps(
                    foundry.matroid.matroidToJson(matroid))
                for command in self.COMMANDS:
                    argv = [command, "--matroid", spec, "--output", "json"]
                    self.queries.append(Query((command, name, variant), _cliCall(argv, stdin)))
        for name, target in CLI_ISO:
            argv = ["iso", "--matroid", name, "--target", target, "--output", "json"]
            self.queries.append(Query(("iso", name, target), _cliCall(argv, None)))

    def check(self, answers, bruteForce):
        problems = {}
        parsed = {}
        for idx, answer in enumerate(answers):
            if answer is FAILED:
                continue
            code, text = answer
            if code != 0:
                problems[idx] = ["exit code %d" % code]
                continue
            try:
                parsed[idx] = json.loads(text)
            except json.JSONDecodeError as e:
                problems[idx] = ["output is not JSON: %s" % e]
        reference = {}
        for idx, query in enumerate(self.queries):
            if idx not in parsed:
                continue
            doc = parsed[idx]
            command, name = query.label[0], query.label[1]
            found = []
            if command == "iso":
                if doc.get("isomorphic") is not True:
                    found.append("foundation is not reported isomorphic to %s" % query.label[2])
            elif command == "foundation":
                census = oracles.foundationCensus(doc)
                published = oracles.PUBLISHED_FOUNDATIONS.get(name)
                if published and [census["invariants"], census["freeRank"]] != list(published[0]):
                    found.append("unit group %r, published %r"
                                 % ((census["invariants"], census["freeRank"]), published[0]))
                ref = reference.setdefault((name, command), census)
                if census != ref:
                    found.append("census %r differs from the original's %r" % (census, ref))
            elif command == "orientable":
                if doc.get("orientable") is not oracles.VERDICTS[name][0]:
                    found.append("orientable %r, published %r"
                                 % (doc.get("orientable"), oracles.VERDICTS[name][0]))
            else:
                cert = doc.get("certificate", "missing")
                kind = cert.get("kind") if isinstance(cert, dict) else cert
                representable = oracles.VERDICTS[name][1]
                if (kind is None) is not representable:
                    found.append("certificate %r for a matroid published as %s"
                                 % (kind, "representable" if representable else "non-representable"))
                ref = reference.setdefault((name, command), kind)
                if kind != ref:
                    found.append("certificate %r differs from the original's %r" % (kind, ref))
            if found:
                problems[idx] = found
        return problems


WORKLOADS = {w.name: w for w in (FieldSweep, UniformLadder, CliVerdicts)}
