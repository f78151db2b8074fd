"""Matroids on ground sets [0, n) with explicit basis lists.

Desk scale by design: bases are stored outright and queries scan their
bitmasks.  Validation checks the exchange axiom once per (r-1)-set inside a
basis, by one AND of bitmasks per such set and basis (see
Matroid._checkExchange).  That keeps every downstream computation exact and
easy to audit for the n <= 12 ground sets this package targets.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque

# The most r-subsets a ground set may have (and the most elements it may
# have).  Bases, nonbases and rank queries all enumerate or store r-subsets,
# so a larger C(n, r) is refused before anything is listed.
MAX_SUBSETS = 10_000


class InvalidMatroidError(ValueError):
    """Raised when input data fails the matroid axioms or is malformed."""


def _checkSize(n, rank):
    """Refuse a rank outside [0, n] and ground sets with more than
    MAX_SUBSETS elements or r-subsets."""
    if not (0 <= rank <= n):
        raise InvalidMatroidError("rank out of range")
    if n > MAX_SUBSETS or math.comb(n, rank) > MAX_SUBSETS:
        raise InvalidMatroidError(
            "n = %d, rank %d: more than %d elements or r-subsets" % (n, rank, MAX_SUBSETS))


class BasisExchangeGraph:
    """Bipartite exchange graph of a basis B0 together with a BFS forest.

    Left vertices are the elements of B0, right vertices the rest; (a, b) is
    an edge when B0 - a + b is a basis.  The forest is discovered by BFS from
    the smallest unvisited left vertex, scanning neighbors in increasing
    label order; edges are recorded (a, b) with the B0 element first.
    """

    __slots__ = ("basis", "edges", "forestEdges")

    def __init__(self, basis, edges, forestEdges):
        self.basis = basis
        self.edges = edges
        self.forestEdges = forestEdges


class Matroid:
    """A matroid given by its full list of bases, kept in lexicographic order;
    masks holds each basis as a bitmask, in the same order."""

    __slots__ = ("n", "rank", "bases", "basesSet", "name", "masks")

    def __init__(self, n, rank, bases, name=None):
        self.n = n
        self.rank = rank
        self.bases = bases
        self.basesSet = frozenset(bases)
        self.name = name
        self.masks = tuple(sum(1 << e for e in b) for b in bases)

    @classmethod
    def fromBases(cls, n, bases, name=None, validate=True):
        n = int(n)
        cleaned = sorted({tuple(sorted(int(e) for e in b)) for b in bases})
        if not cleaned:
            raise InvalidMatroidError("a matroid needs at least one basis")
        rank = len(cleaned[0])
        for b in cleaned:
            if len(b) != rank or len(set(b)) != rank:
                raise InvalidMatroidError("bases must all be r-subsets")
            if b and (b[0] < 0 or b[-1] >= n):
                raise InvalidMatroidError("basis element out of range")
        _checkSize(n, rank)
        m = cls(n, rank, tuple(cleaned), name=name)
        if validate:
            m._checkExchange()
        return m

    @classmethod
    def fromNonbases(cls, n, rank, nonbases, name=None, validate=True):
        n, rank = int(n), int(rank)
        _checkSize(n, rank)
        bad = {tuple(sorted(int(e) for e in s)) for s in nonbases}
        for s in bad:
            if len(s) != rank or len(set(s)) != rank:
                raise InvalidMatroidError("nonbases must all be r-subsets")
            if s and (s[0] < 0 or s[-1] >= n):
                raise InvalidMatroidError("nonbasis element out of range")
        bases = [b for b in itertools.combinations(range(n), rank) if b not in bad]
        if not bases:
            raise InvalidMatroidError("every r-subset was excluded")
        m = cls(n, rank, tuple(bases), name=name)
        if validate:
            m._checkExchange()
        return m

    @staticmethod
    def _extensions(sets):
        """{I: the bitmask of the e with I + e in sets}, for each I that is a
        member of sets less one element, all sets as bitmasks: one fold."""
        extensions = {}
        for s in sets:
            rest = s
            while rest:
                a = rest & -rest
                rest ^= a
                extensions[s ^ a] = extensions.get(s ^ a, 0) | a
        return extensions

    def _checkExchange(self):
        # B1 - a + b is a basis exactly when b is in blocked[B1 - a], so B2
        # fails the exchange at a when it misses that mask, and each (r-1)-set
        # is checked once, however many bases hold it.
        blocked = self._extensions(self.masks)
        failing = {i for i, mask in blocked.items() if not all(map(mask.__and__, self.masks))}
        if not failing:
            return
        # the first failing B1 in basis order, the first B2 it fails against,
        # and the first failing a of B1 - B2 in set order
        b1, m1 = next((b, m) for b, m in zip(self.bases, self.masks)
                      if any(m ^ 1 << a in failing for a in b))
        masks = [blocked[m1 ^ 1 << a] for a in b1]
        b2, m2 = next((b, m) for b, m in zip(self.bases, self.masks)
                      if not all(map(m.__and__, masks)))
        a = next(a for a in set(b1) - set(b2) if not m2 & blocked[m1 ^ 1 << a])
        raise InvalidMatroidError("exchange axiom fails for %r, %r at %r" % (b1, b2, a))

    def nonbases(self):
        return tuple(
            s for s in itertools.combinations(range(self.n), self.rank)
            if s not in self.basesSet
        )

    def rankOf(self, subset):
        """The largest intersection with a basis, counted on bitmasks."""
        mask = 0
        for e in subset:
            mask |= 1 << e
        return max(map(int.bit_count, map(mask.__and__, self.masks)))

    def dual(self):
        full = set(range(self.n))
        cobases = [tuple(sorted(full - set(b))) for b in self.bases]
        return Matroid.fromBases(self.n, cobases, validate=False)

    def nearBases(self):
        """(N, its circuit, the cocircuit avoiding it) for each r-subset N of
        rank r - 1, in lex order, each set a sorted tuple.

        One pass over the bases that meet N in r - 1 elements gives both.
        Each holds all of N but one element of the circuit, so the circuit is
        what they do not all hold.  Outside N they cover the complement of the
        hyperplane cl(N), which is the cocircuit.  An r-subset that no basis
        meets in r - 1 elements has lower rank.
        """
        for nb in self.nonbases():
            mask = sum(1 << e for e in nb)
            near = list(itertools.compress(self.masks, map(
                (self.rank - 1).__eq__, map(int.bit_count, map(mask.__and__, self.masks)))))
            if near:
                inside = functools.reduce(operator.and_, near)
                outside = functools.reduce(operator.or_, near) & ~mask
                yield (nb, tuple(e for e in nb if not inside >> e & 1),
                       tuple(e for e in range(self.n) if outside >> e & 1))

    def greedyBasis(self, subset):
        """The lexicographically first basis of a subset: its elements in
        order, each kept when some basis holds it and every element kept."""
        kept, holding = [], self.masks
        for e in sorted(subset):
            within = [b for b in holding if b >> e & 1]
            if within:
                kept.append(e)
                holding = within
        return tuple(kept)

    def flatsOfCorank(self, k):
        """All flats of rank (rank - k), as sorted tuples in lex order.

        A flat of rank t is cl(S) for an independent t-set S, and cl(S)
        misses exactly the e with S + e independent.  Every independent set
        lies in a basis, so k folds of the bases (_extensions), each taking
        one element out of every set and noting which, give every independent
        (rank - k)-set with the elements its closure misses.  One fold is the
        one _checkExchange makes: cl(B - b) misses the e with B - b + e a
        basis.  No subset needs a closure pass.
        """
        if k > self.rank:
            raise InvalidMatroidError("corank exceeds the rank")
        if k < 0:
            return ()  # no flat has a rank above the matroid's
        extensions = dict.fromkeys(self.masks, 0)
        for _ in range(k):
            extensions = self._extensions(extensions)
        missed = set(extensions.values())
        return tuple(sorted(tuple(e for e in range(self.n) if not x >> e & 1) for x in missed))

    def exchangeGraphAndForest(self, basis):
        # (a, b) is an edge when B0 - a + b is a basis mask; the edges come
        # in lex order, so each neighbour list is built sorted
        b0 = tuple(sorted(basis))
        if b0 not in self.basesSet:
            raise InvalidMatroidError("%r is not a basis" % (b0,))
        mask0 = sum(1 << e for e in b0)
        masks = set(self.masks)
        right = [e for e in range(self.n) if not mask0 >> e & 1]
        edges = [(a, b) for a in b0 for b in right if mask0 ^ 1 << a | 1 << b in masks]
        neighbors = {v: [] for v in b0 + tuple(right)}
        for a, b in edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        visited = set()
        forest = []
        for root in b0:
            if root in visited:
                continue
            visited.add(root)
            queue = deque([root])
            while queue:
                v = queue.popleft()
                onLeft = mask0 >> v & 1
                for w in neighbors[v]:
                    if w in visited:
                        continue
                    visited.add(w)
                    forest.append((v, w) if onLeft else (w, v))
                    queue.append(w)
        return BasisExchangeGraph(b0, frozenset(edges), tuple(forest))

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.bases == other.bases
        )

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        label = self.name or "matroid"
        return "<%s: n=%d rank=%d bases=%d>" % (label, self.n, self.rank, len(self.bases))


# Nonbasis catalogs for the named matroids.  t8 is frozen from the dependent
# 4-subsets of [I4 | J-I] over GF(3), the standard defining representation.
_NAMED_NONBASES = {
    "fano": (7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]),
    "nonfano": (7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6)]),
    "pappus": (9, 3, [(0, 1, 2), (0, 4, 6), (0, 5, 7), (1, 3, 6), (1, 5, 8),
                      (2, 3, 7), (2, 4, 8), (3, 4, 5), (6, 7, 8)]),
    "nonpappus": (9, 3, [(0, 1, 2), (0, 4, 6), (0, 5, 7), (1, 3, 6), (1, 5, 8),
                         (2, 3, 7), (2, 4, 8), (3, 4, 5)]),
    "vamos": (8, 4, [(0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7), (2, 3, 4, 5), (2, 3, 6, 7)]),
    "ag23": (9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
                    (0, 4, 8), (1, 5, 6), (2, 3, 7), (0, 5, 7), (1, 3, 8), (2, 4, 6)]),
    "t8": (8, 4, [(0, 1, 2, 7), (0, 1, 3, 6), (0, 1, 4, 5), (0, 2, 3, 5), (0, 2, 4, 6),
                  (0, 3, 4, 7), (1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7), (2, 3, 6, 7),
                  (4, 5, 6, 7)]),
    "example52": (7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 4, 5), (2, 3, 5)]),
}


def namedMatroid(name):
    """Look up a named matroid; uniform ones as uniform(r,n) or uniform:r,n."""
    key = str(name).strip().lower()
    if key.startswith("uniform"):
        spec = key[len("uniform"):].strip("():")
        parts = [p for p in spec.replace(",", " ").split() if p]
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise InvalidMatroidError("expected uniform(r,n), got %r" % (name,))
        r, n = int(parts[0]), int(parts[1])
        if not (0 <= r <= n):
            raise InvalidMatroidError("uniform(r,n) needs 0 <= r <= n")
        _checkSize(n, r)
        bases = tuple(itertools.combinations(range(n), r))
        return Matroid(n, r, bases, name="uniform(%d,%d)" % (r, n))
    if key in _NAMED_NONBASES:
        n, rank, nonbases = _NAMED_NONBASES[key]
        return Matroid.fromNonbases(n, rank, nonbases, name=key, validate=False)
    raise InvalidMatroidError("unknown matroid name %r" % (name,))


def matroidToJson(m):
    nonbases = m.nonbases()
    doc = {"n": m.n, "rank": m.rank}
    if len(nonbases) <= len(m.bases):
        doc["nonbases"] = [list(s) for s in nonbases]
    else:
        doc["bases"] = [list(b) for b in m.bases]
    return doc


def _jsonInt(doc, key):
    """doc[key], which must be an integer (not a bool or a float)."""
    if type(doc[key]) is not int:
        raise InvalidMatroidError("'%s' must be an integer" % key)
    return doc[key]


def _jsonSubsets(doc, key):
    """doc[key], which must be a list of lists of integers."""
    subsets = doc[key]
    if not (isinstance(subsets, list) and all(
            isinstance(s, list) and all(type(e) is int for e in s) for s in subsets)):
        raise InvalidMatroidError("'%s' must be a list of lists of integers" % key)
    return subsets


def matroidFromJson(doc):
    if not isinstance(doc, dict) or "n" not in doc:
        raise InvalidMatroidError("matroid document needs an 'n' field")
    n = _jsonInt(doc, "n")
    if "bases" in doc:
        m = Matroid.fromBases(n, _jsonSubsets(doc, "bases"))
        if "rank" in doc and _jsonInt(doc, "rank") != m.rank:
            raise InvalidMatroidError("stated rank disagrees with the bases")
        return m
    if "nonbases" in doc and "rank" in doc:
        return Matroid.fromNonbases(n, _jsonInt(doc, "rank"), _jsonSubsets(doc, "nonbases"))
    raise InvalidMatroidError("matroid document needs 'bases' or 'rank'+'nonbases'")
