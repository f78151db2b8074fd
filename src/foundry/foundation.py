"""The foundation of a matroid.

The foundation is presented as a quotient of the free abelian group on a
formal epsilon symbol and one symbol per basis: coordinate 0 is epsilon and
the symbol of a basis sits at index[basis], the bases numbered from 1 in lex
order.  Degenerate cross-ratio relations plus a gauge (one exchange-forest
symbol per edge and the base basis itself) cut it down; hexagons are read
off from quadruples of hyperplanes over corank-2 flats.
"""

from __future__ import annotations

import itertools

from .matroid import InvalidMatroidError
from .pasture import Pasture
from .zlattice import cokernelPresentation


def inversionParity(seq):
    """Parity (0 or 1) of the permutation sorting seq."""
    count = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                count += 1
    return count & 1


def crossRatioTerms(index, prefix, k1, k2, k3, k4):
    """The cross-ratio symbol for the pairs (k1 k3)(k2 k4) over prefix, as
    (coordinate, coefficient) terms.

    Additively: X(prefix+k1k3) + X(prefix+k2k4) - X(prefix+k1k4)
    - X(prefix+k2k3), with e_eps added when the four sorting signs multiply
    to -1.  All four index sets must be bases.
    """
    prefix = tuple(prefix)
    terms = []
    for ki, kj, coeff in ((k1, k3, 1), (k2, k4, 1), (k1, k4, -1), (k2, k3, -1)):
        basis = tuple(sorted(prefix + (ki, kj)))
        if basis not in index:
            raise InvalidMatroidError("cross-ratio subscript %r is not a basis" % (basis,))
        terms.append((index[basis], coeff))
    # parity of the four sorts of prefix + (ki, kj): inversions within prefix
    # or between prefix and a k cancel, since each k is in two of the pairs
    if (k1 > k3) ^ (k2 > k4) ^ (k1 > k4) ^ (k2 > k3):
        terms.append((0, 1))
    return terms


def tutteRelations(m, index, graph):
    """The relations, as one list row per symbol (epsilon, then each basis
    at its index): the gauge columns 2 e_eps and e_B0, the degenerate
    cross-ratio per near-basis exchange, then one gauge column
    e_(B0 - a + b) per exchange-forest edge.  Each near-basis's circuit and
    cocircuit come from one pass over the bases (Matroid.nearBases)."""
    b0 = set(graph.basis)
    columns = [[(0, 2)], [(index[graph.basis], 1)]]
    for nb, circuit, cocircuit in m.nearBases():
        i, j = circuit[0], cocircuit[0]
        for a in circuit[1:]:
            prefix = tuple(e for e in nb if e not in (i, a))
            for b in cocircuit[1:]:
                columns.append(crossRatioTerms(index, prefix, i, a, j, b))
    for a, b in graph.forestEdges:
        columns.append([(index[tuple(sorted(b0 - {a} | {b}))], 1)])
    rows = [[0] * len(columns) for _ in range(1 + len(index))]
    for j, terms in enumerate(columns):
        for i, coeff in terms:  # the coordinates of one column are distinct
            rows[i][j] = coeff
    return rows


class FoundationResult:
    """The foundation pasture, the quotient map from symbols, the gauge basis,
    and each basis's symbol coordinate (index; epsilon is coordinate 0).
    The image of a symbol is its column of rhoZero.matrix, whose torsion
    rows cokernelPresentation reduces, so the column is canonical."""

    __slots__ = ("matroid", "foundation", "rhoZero", "basis", "index", "graph",
                 "_nearImages")

    def __init__(self, matroid, foundation, rhoZero, basis, index, graph):
        self.matroid = matroid
        self.foundation = foundation
        self.rhoZero = rhoZero
        self.basis = basis
        self.index = index
        self.graph = graph
        self._nearImages = None

    def nearBasisImages(self):
        """The foundation elements of the bases next to B0, built on first use.

        Maps (i, j), for j outside B0, to the rhoZero image of the symbol of
        B0 - B0[i] + j; pairs whose exchange is not a basis are absent.
        These r(n - r) entries are all a reduced matrix reads.
        """
        if self._nearImages is None:
            b0 = set(self.basis)
            images = {}
            for i, a in enumerate(self.basis):
                for j in range(self.matroid.n):
                    if j in b0:
                        continue
                    k = self.index.get(tuple(sorted(b0 - {a} | {j})))
                    if k is not None:
                        images[(i, j)] = tuple([row[k] for row in self.rhoZero.matrix])
            self._nearImages = images
        return self._nearImages


def computeFoundation(m, basis=None):
    """Foundation of a matroid, with hexagons, relative to a gauge basis B0."""
    if basis is None:
        basis = m.bases[0]
    basis = tuple(sorted(basis))
    if basis not in m.basesSet:
        raise InvalidMatroidError("%r is not a basis" % (basis,))
    index = {b: i for i, b in enumerate(m.bases, 1)}
    graph = m.exchangeGraphAndForest(basis)
    pres, rhoZero = cokernelPresentation(tutteRelations(m, index, graph))
    epsilon = tuple([row[0] for row in rhoZero.matrix])
    heads = []
    if m.rank >= 2:
        # rhoZero of a cross ratio: the signed sum of its columns of rhoZero,
        # each kept as its nonzeros (mostly one, whatever the group's size)
        dim = 1 + len(index)
        columns = [[] for _ in range(dim)]
        for k, row in enumerate(rhoZero.matrix):
            for i in itertools.compress(range(dim), row):
                columns[i].append((k, row[i]))

        def image(terms):
            vec = [0] * pres.dim
            for i, coeff in terms:
                for k, x in columns[i]:
                    vec[k] += coeff * x
            return pres.reduce(vec)

        hyperplanes = [sum(1 << e for e in h) for h in m.flatsOfCorank(1)]
        for flat in m.flatsOfCorank(2):
            inside = sum(1 << e for e in flat)
            over = [h & ~inside for h in hyperplanes if not inside & ~h]
            if len(over) < 4:
                continue
            prefix = m.greedyBasis(flat)
            for quad in itertools.combinations(over, 4):
                # the least element of each hyperplane outside the flat
                a1, a2, a3, a4 = ((h & -h).bit_length() - 1 for h in quad)
                first = image(crossRatioTerms(index, prefix, a1, a2, a3, a4))
                second = image(crossRatioTerms(index, prefix, a1, a3, a2, a4))
                heads.append((first, second))
    name = "foundation(%s)" % (m.name or "matroid")
    foundation = Pasture(pres, epsilon, heads, name=name)
    return FoundationResult(m, foundation, rhoZero, basis, index, graph)


def foundationResultToJson(fr):
    from .pasture import pastureToJson

    doc = pastureToJson(fr.foundation)
    doc["rhoZero"] = fr.rhoZero.matrix
    doc["B0"] = list(fr.basis)
    return doc
