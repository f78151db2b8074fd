"""Finitely presented pastures.

A pasture is described here by its unit group (a GroupPresentation, written
additively), the distinguished 2-torsion element epsilon (the class of -1),
and its hexagons: the equivalence classes of fundamental pairs (x, y) with
x + y = 1, each a canonical closure triple of three pairs (hexagonClosure).
Elements are coordinate tuples; the pasture's multiplication is the group
addition.  The three-term nullset is determined by epsilon and the
fundamental pairs, so no separate nullset data is stored.  A Pasture keeps
pairs, one ordered map from each oriented fundamental pair to its hexagon's
index (hexagons in order, each pair then its swap, the first time seen).
Its partners, each fundamental element's partners keyed and listed in sorted
order, are built the first time they are read.  Its search slot is None
until morphism.py fills it.
"""

from __future__ import annotations

from .zlattice import GroupPresentation
from ._gf import MAX_FIELD_ORDER, FieldError, FiniteField

# Pasture elements are canonical coordinate tuples in the unit group; the
# absorbing zero never appears as a tuple and is passed as None in nullset
# queries.
PastureElement = tuple


class InvalidPastureError(ValueError):
    """Raised for malformed pasture data."""


def closureTriple(group, epsilon, x, y):
    """The three fundamental pairs derived from x + y = 1.

    Multiplying the relation x + y - 1 by -1/x and -1/y gives the partners
    of 1/x and 1/y; additively: (-x, e + y - x) and (-y, e + x - y).  With
    w = e + y - x the last partner is -w, because 2e = 0 (epsilon is
    reduced 2-torsion), so the closure is (x, y), (-x, w), (-y, -w): one
    reduce per element.
    """
    x = group.reduce(x)
    y = group.reduce(y)
    w = group.reduce([e + b - a for e, a, b in zip(epsilon, x, y)])
    return (x, y), (group.neg(x), w), (group.neg(y), group.neg(w))


# The closure triple of the k-th oriented pair, as indices into the six
# oriented pairs of a closure triple listed pair before swap: with
# 2*epsilon = 0, closing any of them gives back three of the same six.
_HEAD_TRIPLES = ((0, 2, 4), (1, 4, 2), (2, 0, 5), (3, 5, 0), (4, 1, 3), (5, 3, 1))


def hexagonClosure(group, epsilon, x, y):
    """The hexagon through the fundamental pair (x, y): one equivalence class
    of fundamental pairs, stored canonically as the closure triple generated
    from the lexicographically smallest of the six oriented pairs in the
    class."""
    triple = closureTriple(group, epsilon, x, y)
    candidates = [p for pair in triple for p in (pair, (pair[1], pair[0]))]
    head = min(range(6), key=candidates.__getitem__)
    return tuple(candidates[i] for i in _HEAD_TRIPLES[head])


def hexagonType(hexagon):
    """Classify a hexagon (a closure triple) as F3, D, H, or U by its
    coordinate pattern."""
    distinct = len({c for pair in hexagon for c in pair})
    if distinct == 1:
        return "F3"
    if sum(1 for x, y in hexagon if x == y) == 1:
        return "D"
    if distinct == 2:
        return "H"
    return "U"


class Pasture:
    """A finitely presented pasture with canonicalized hexagons.

    The hexagons and pairs are built with it; the partner table (partners)
    only when first read, which a search does for its target alone.
    """

    __slots__ = ("group", "epsilon", "hexagons", "name", "field", "pairs", "_partners", "search")

    def __init__(self, group, epsilon, hexagonHeads, name=None, field=None):
        self.group = group
        self.epsilon = group.reduce(epsilon)
        if not group.isZero(group.scale(2, self.epsilon)):
            raise InvalidPastureError("epsilon must be 2-torsion")
        # each distinct head is closed once; the hexagons are sorted below
        hexes = dict.fromkeys(hexagonClosure(group, self.epsilon, x, y)
                              for x, y in dict.fromkeys(hexagonHeads))
        self.hexagons = tuple(sorted(hexes))
        self.name = name
        self.field = field
        # a pair lies in one hexagon only, so a repeat keeps its first place
        self.pairs = {p: k for k, h in enumerate(self.hexagons) for x, y in h
                      for p in ((x, y), (y, x))}
        self._partners = None
        self.search = None

    @property
    def partners(self):
        """Each fundamental element's partners, keyed and listed in sorted
        order, built the first time it is read: only a search target reads
        it, so a pasture that is only ever a search source never sorts its
        pairs."""
        if self._partners is None:
            partners = {}
            for x, y in sorted(self.pairs):
                partners.setdefault(x, []).append(y)
            self._partners = {x: tuple(ys) for x, ys in partners.items()}
        return self._partners

    def partnersOf(self, x):
        return self.partners.get(self.group.reduce(x), ())

    def hexagonTypes(self):
        return tuple(hexagonType(h) for h in self.hexagons)

    def nullsetContains(self, a, b, c):
        """Whether a + b + c contains 0; arguments are tuples or None (zero)."""
        terms = [t if t is None else self.group.reduce(t) for t in (a, b, c)]
        zeros = sum(1 for t in terms if t is None)
        if zeros == 3:
            return True
        if zeros == 2:
            return False
        if zeros == 1:
            u, v = [t for t in terms if t is not None]
            return v == self.group.add(self.epsilon, u)
        a, b, c = terms
        shift = self.group.add(self.epsilon, self.group.neg(c))
        pair = (self.group.add(a, shift), self.group.add(b, shift))
        return pair in self.pairs

    def __eq__(self, other):
        return (
            isinstance(other, Pasture)
            and self.group == other.group
            and self.epsilon == other.epsilon
            and self.hexagons == other.hexagons
        )

    def __hash__(self):
        return hash((self.group, self.epsilon, self.hexagons))

    def __repr__(self):
        label = self.name or "pasture"
        return "<%s: %r, %d hexagons>" % (label, self.group, len(self.hexagons))


# gfPasture's fields by q, least recently used first, each as [pasture, weight]:
# q for the field and q for each search table built into it (tableBuilt), each
# of about q entries.  The weights sum to at most MAX_FIELD_ORDER, one largest
# field's worth, unless the field last returned is held alone.  It then keeps its
# tables while it weighs at most MAX_FIELD_WEIGHT: the largest field and three
# tables, as a search builds a torsion table, a rule table and a scaled pair set
# into it.  Only the search changes a Pasture after __init__, so each is shared.
MAX_FIELD_WEIGHT = 4 * MAX_FIELD_ORDER
_fieldPastures = {}
_cachedWeight = 0


def tableBuilt(pasture, table):
    """Weigh a table just built into pasture, if it is cached; return the table."""
    global _cachedWeight
    entry = _fieldPastures.get(pasture.field.q) if pasture.field is not None else None
    if entry is not None and entry[0] is pasture:
        entry[1] += pasture.field.q
        _cachedWeight += pasture.field.q
    return table


def gfPasture(q):
    """The pasture of GF(q): units Z/(q-1), epsilon = log(-1), field hexagons.

    Built once per q and kept, with what the search builds into it.  Each
    call evicts the fields used least recently until the cached weights sum
    to at most MAX_FIELD_ORDER; the field returned stays, and if it alone
    weighs more than MAX_FIELD_WEIGHT, what the search built into it is
    dropped (a search already running keeps the tables it looked up).  So
    after a call the cache weighs at most MAX_FIELD_ORDER, or holds the
    returned field alone at no more than MAX_FIELD_WEIGHT.  A call weighs
    only the fields it adds, evicts or strips, as the weights are kept.
    """
    global _cachedWeight
    q = int(q)  # the key tableBuilt finds a field by: FiniteField's order
    entry = _fieldPastures.pop(q, None)
    if entry is None:
        entry = [_buildGfPasture(q), q]
        _cachedWeight += q
    while _fieldPastures and _cachedWeight > MAX_FIELD_ORDER:
        _cachedWeight -= _fieldPastures.pop(next(iter(_fieldPastures)))[1]
    if _cachedWeight > MAX_FIELD_WEIGHT:
        _cachedWeight -= entry[1] - q
        entry[0].search, entry[1] = None, q
    _fieldPastures[q] = entry
    return entry[0]


def _buildGfPasture(q):
    try:
        field = FiniteField(q)
    except FieldError as exc:
        raise InvalidPastureError(str(exc)) from exc
    q = field.q
    group = GroupPresentation([q - 1] if q >= 3 else [], 0)
    if q == 2:
        epsilon = ()
    else:
        epsilon = (field.log(field.neg(1)),)
    # One head per S3 orbit {a, 1-a, 1/a, 1-1/a, 1/(1-a), a/(a-1)}: the
    # closure of any member is the same hexagon.
    heads = []
    seen = set()
    inv = field.inv
    for a in range(2, q):
        if a in seen:
            continue
        b = field.sub(1, a)
        seen.update((a, b, inv(a), field.sub(1, inv(a)), inv(b), field.mul(a, inv(field.neg(b)))))
        heads.append(((field.log(a),), (field.log(b),)))
    return Pasture(group, epsilon, heads, name="gf:%d" % q, field=field)


# The named pastures: (invariants, free rank, epsilon, hexagon heads).  P0's
# free generators are x, y, z, w, with hexagons through (x, y), (x, z) and
# (y/z, w).
BUILTIN_PASTURES = {
    "sign": ([2], 0, (1,), [((0,), (0,))]),
    "krasner": ([], 0, (), [((), ())]),
    "f1pm": ([2], 0, (1,), []),
    "U": ([2], 2, (1, 0, 0), [((0, 1, 0), (0, 0, 1))]),
    "D": ([2], 1, (1, 0), [((0, 1), (0, 1))]),
    "H": ([6], 0, (3,), [((1,), (5,))]),
    "F3": ([2], 0, (1,), [((1,), (1,))]),
    "P0": ([2], 4, (1, 0, 0, 0, 0), [((0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
                                     ((0, 1, 0, 0, 0), (0, 0, 0, 1, 0)),
                                     ((0, 0, 1, -1, 0), (0, 0, 0, 0, 1))]),
}

# builtinPasture's pastures by name, shared as gfPasture's are, with what
# the search builds into them.
_builtinPastures = {}


def builtinPasture(name):
    """A named pasture, the name read without case or surrounding blanks;
    each is built on first use and kept."""
    key = str(name).strip().lower()
    label = next((k for k in BUILTIN_PASTURES if k.lower() == key), None)
    if label is None:
        raise InvalidPastureError("unknown pasture name %r" % (name,))
    if label not in _builtinPastures:
        invariants, freeRank, epsilon, heads = BUILTIN_PASTURES[label]
        _builtinPastures[label] = Pasture(GroupPresentation(invariants, freeRank), epsilon,
                                          heads, name=label)
    return _builtinPastures[label]


def pastureToJson(p):
    return {
        "invariants": list(p.group.invariants),
        "freeRank": p.group.freeRank,
        "epsilon": list(p.epsilon),
        "hexagons": [[list(h[0][0]), list(h[0][1])] for h in p.hexagons],
    }


def _jsonInts(values, key):
    """values as a tuple, which must hold only integers (not bools or floats)."""
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise TypeError("'%s' must hold only integers" % key)
    return values


def pastureFromJson(doc, name=None):
    if not isinstance(doc, dict):
        raise InvalidPastureError("pasture document must be an object")
    try:
        (freeRank,) = _jsonInts([doc.get("freeRank", 0)], "freeRank")
        group = GroupPresentation(_jsonInts(doc.get("invariants", []), "invariants"), freeRank)
        epsilon = _jsonInts(doc["epsilon"], "epsilon")
        heads = [(_jsonInts(x, "hexagons"), _jsonInts(y, "hexagons"))
                 for x, y in doc.get("hexagons", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPastureError("malformed pasture document: %s" % exc) from exc
    if len(epsilon) != group.dim:
        raise InvalidPastureError("epsilon has wrong length")
    for x, y in heads:
        if len(x) != group.dim or len(y) != group.dim:
            raise InvalidPastureError("hexagon head has wrong length")
    return Pasture(group, epsilon, heads, name=name)
