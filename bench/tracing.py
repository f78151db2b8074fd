"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of ``foundry`` and
replaces every reference to each one in every loaded ``foundry.*`` module,
so calls through a name another module imported (say
``foundry.morphism.cokernelPresentation``) are seen too.  Each call of a
wrapped function is a span (name, start, end, parent), kept in flat arrays
in memory and written out when the run ends; self time is a span's duration
minus that of its direct children.  Hot methods only get call counts, and
the search counters are read from ``SearchStats`` and ``SublatticeData``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import foundry._gf
import foundry.cli
import foundry.foundation
import foundry.matroid
import foundry.morphism
import foundry.pasture
import foundry.representation
import foundry.zlattice

# (span name, owner, attribute): module functions and class methods that get
# spans.  Names follow the package's modules, with ``gf`` for ``_gf``.
SPANNED = (
    ("cli.run", foundry.cli, "run"),
    ("foundation.computeFoundation", foundry.foundation, "computeFoundation"),
    ("foundation.tutteRelations", foundry.foundation, "tutteRelations"),
    ("matroid.rankOf", foundry.matroid.Matroid, "rankOf"),
    ("matroid.flatsOfCorank", foundry.matroid.Matroid, "flatsOfCorank"),
    ("morphism.searchMorphisms", foundry.morphism, "searchMorphisms"),
    ("morphism.fullRankSublattice", foundry.morphism, "fullRankSublattice"),
    ("morphism.torsionHoms", foundry.morphism, "torsionHoms"),
    ("morphism.assemble", foundry.morphism, "assemble"),
    ("morphism.isMorphism", foundry.morphism, "isMorphism"),
    ("representation.representationsOverField", foundry.representation,
     "representationsOverField"),
    ("representation.gpToMatrix", foundry.representation, "gpToMatrix"),
    ("representation.gpFromMorphism", foundry.representation, "gpFromMorphism"),
    ("representation.nonRepresentabilityCertificate", foundry.representation,
     "nonRepresentabilityCertificate"),
    ("zlattice.smithNormalForm", foundry.zlattice, "smithNormalForm"),
    ("zlattice.cokernelPresentation", foundry.zlattice, "cokernelPresentation"),
    ("zlattice.solveModular", foundry.zlattice, "solveModular"),
    ("zlattice.homFinite", foundry.zlattice, "homFinite"),
    ("pasture.gfPasture", foundry.pasture, "gfPasture"),
    ("gf.FiniteField", foundry._gf.FiniteField, "__init__"),
)

COUNTED = (
    ("zlattice.GroupPresentation.reduce", foundry.zlattice.GroupPresentation, "reduce"),
    ("pasture.Pasture.partnersOf", foundry.pasture.Pasture, "partnersOf"),
)

SEARCH_COUNTERS = ("leafCandidates", "assembled", "valid")


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in SPANNED]
        self.spanName = array("i")
        self.spanParent = array("i")
        self.spanStart = array("d")
        self.spanEnd = array("d")
        self.stack = []
        self.counts = {}

    def _spanWrapper(self, index, fn):
        names, parents, starts, ends = self.spanName, self.spanParent, self.spanStart, self.spanEnd
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
        return wrapper

    def _countWrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _searchWrapper(self, fn):
        counts = self.counts
        for key in SEARCH_COUNTERS:
            counts["morphism." + key] = 0

        @functools.wraps(fn)
        def wrapper(p1, p2, findOne=False, findIso=False, stats=None):
            if stats is None:
                stats = foundry.morphism.SearchStats()
            before = [getattr(stats, key) for key in SEARCH_COUNTERS]
            try:
                return fn(p1, p2, findOne=findOne, findIso=findIso, stats=stats)
            finally:
                for key, old in zip(SEARCH_COUNTERS, before):
                    counts["morphism." + key] += getattr(stats, key) - old
        return wrapper

    def _sublatticeWrapper(self, fn):
        counts = self.counts
        counts["morphism.sublattice.p4"] = 0

        @functools.wraps(fn)
        def wrapper(pasture):
            sub = fn(pasture)
            counts["morphism.sublattice.p4"] += sub.counts["p4"]
            return sub
        return wrapper

    def _snfWrapper(self, fn):
        counts = self.counts
        counts["zlattice.smithNormalForm.cells"] = 0

        @functools.wraps(fn)
        def wrapper(a):
            counts["zlattice.smithNormalForm.cells"] += a.rows * a.cols
            return fn(a)
        return wrapper

    def _replace(self, owner, attr, wrapper):
        """Install the wrapper on its owner and wherever the original is bound."""
        original = getattr(owner, attr)
        namespaces = [owner] if isinstance(owner, type) else [
            module for name, module in sorted(sys.modules.items())
            if name == "foundry" or name.startswith("foundry.")]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)

    def install(self):
        inner = {
            "morphism.searchMorphisms": self._searchWrapper,
            "morphism.fullRankSublattice": self._sublatticeWrapper,
            "zlattice.smithNormalForm": self._snfWrapper,
        }
        for index, (name, owner, attr) in enumerate(SPANNED):
            fn = getattr(owner, attr)
            if name in inner:
                fn = inner[name](fn)
            self._replace(owner, attr, self._spanWrapper(index, fn))
        for name, owner, attr in COUNTED:
            self._replace(owner, attr, self._countWrapper(name, getattr(owner, attr)))

    def totals(self):
        """Calls, total seconds and self seconds per span name."""
        k = len(self.names)
        calls, total, selfTime = [0] * k, [0.0] * k, [0.0] * k
        childTime = [0.0] * len(self.spanName)
        for i in range(len(self.spanName) - 1, -1, -1):
            duration = self.spanEnd[i] - self.spanStart[i]
            name = self.spanName[i]
            calls[name] += 1
            total[name] += duration
            selfTime[name] += duration - childTime[i]
            parent = self.spanParent[i]
            if parent >= 0:
                childTime[parent] += duration
        return {name: (calls[i], total[i], selfTime[i]) for i, name in enumerate(self.names)}

    def write(self, path):
        """One header line with the span names, then one span per line:
        name index, start, end and parent index (-1 for none), tab separated."""
        with open(path, "w") as out:
            out.write("\t".join(self.names) + "\n")
            for i in range(len(self.spanName)):
                out.write("%d\t%r\t%r\t%d\n" % (self.spanName[i], self.spanStart[i],
                                                self.spanEnd[i], self.spanParent[i]))


def perLayerMetrics(tracer, rounds, importTimes):
    """The per-layer metrics of BENCHMARK.json, per round of the workload."""
    spans = tracer.totals()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / rounds, "unit": unit}

    for name in ("morphism.searchMorphisms", "morphism.assemble", "zlattice.solveModular",
                 "morphism.isMorphism", "representation.gpToMatrix",
                 "morphism.fullRankSublattice", "zlattice.smithNormalForm", "matroid.rankOf",
                 "gf.FiniteField"):
        put(name + ".calls", spans[name][0], "count")
        put(name + ".s", spans[name][1], "s")
    for name in ("zlattice.cokernelPresentation", "foundation.computeFoundation",
                 "zlattice.homFinite", "cli.run"):
        put(name + ".calls", spans[name][0], "count")
    for name in ("representation.representationsOverField", "representation.gpFromMorphism",
                 "foundation.tutteRelations", "matroid.flatsOfCorank", "morphism.torsionHoms",
                 "representation.nonRepresentabilityCertificate", "pasture.gfPasture"):
        put(name + ".s", spans[name][1], "s")
    for name in ("morphism.searchMorphisms", "foundation.computeFoundation", "cli.run"):
        put(name + ".self_s", spans[name][2], "s")
    for name in ("zlattice.GroupPresentation.reduce", "pasture.Pasture.partnersOf"):
        put(name + ".calls", counts[name], "count")
    for name in ("morphism.leafCandidates", "morphism.assembled", "morphism.valid",
                 "morphism.sublattice.p4", "zlattice.smithNormalForm.cells"):
        put(name, counts[name], "count")
    assembled = counts["morphism.assembled"]
    out["morphism.valid_per_assembled"] = {
        "value": counts["morphism.valid"] / assembled if assembled else 0.0, "unit": "ratio"}
    for name, seconds in importTimes.items():
        out[name] = {"value": seconds, "unit": "s"}
    return out
