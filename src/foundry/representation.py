"""Explicit finite-field representations derived from foundation morphisms.

A morphism from the foundation into a finite field assigns a unit to every
basis symbol.  Those values form a Grassmann-Pluecker function; reading off
the values adjacent to the reference basis yields a representing matrix in
reduced form, byte for byte reproducible.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul

from ._gf import FiniteField
from .foundation import computeFoundation, inversionParity
from .matroid import Matroid
from .morphism import searchMorphisms
from .pasture import builtinPasture, gfPasture


class GPFunction:
    """Pasture-valued Grassmann-Pluecker function on the bases of a matroid.

    values maps each sorted basis to an element of the target unit group;
    nonbases are implicitly zero.
    """

    __slots__ = ("matroid", "target", "values")

    def __init__(self, matroid, target, values):
        self.matroid = matroid
        self.target = target
        self.values = dict(values)


class FieldRepresentation:
    """A matrix over a finite field together with the morphism it came from."""

    __slots__ = ("morphism", "matrix", "field")

    def __init__(self, morphism, matrix, field):
        self.morphism = morphism
        self.matrix = matrix
        self.field = field

    def __repr__(self):
        return "FieldRepresentation(q=%d, %r)" % (self.field.q, [list(r) for r in self.matrix])


def gpFromMorphism(foundationResult, morphism):
    """Evaluate the morphism on every basis symbol of the foundation.

    The whole function is what validateGP checks; a matrix needs only the
    entries next to B0, which gpToMatrix reads directly.
    """
    fr = foundationResult
    values = {}
    for b in fr.matroid.bases:
        k = fr.index[b]
        values[b] = morphism.apply([row[k] for row in fr.rhoZero.matrix])
    return GPFunction(fr.matroid, morphism.target, values)


def validateGP(gp):
    """Check support and every three-term Grassmann-Pluecker relation.

    Terms use sorted subscripts; the sign of reordering (J, a, b) into a
    sorted subset folds in as epsilon.  The middle product carries the minus
    sign of the classical identity.
    """
    m = gp.matroid
    target = gp.target
    g = target.group
    eps = target.epsilon
    if set(gp.values) != set(m.bases):
        return False

    def term(J, a, b):
        v = gp.values.get(tuple(sorted(J + (a, b))))
        if v is None:
            return None
        return g.add(v, eps) if inversionParity(J + (a, b)) else v

    def prod(x, y):
        return None if x is None or y is None else g.add(x, y)

    for J in combinations(range(m.n), m.rank - 2):
        rest = [e for e in range(m.n) if e not in J]
        for e1, e2, e3, e4 in combinations(rest, 4):
            first = prod(term(J, e1, e2), term(J, e3, e4))
            middle = prod(term(J, e1, e3), term(J, e2, e4))
            if middle is not None:
                middle = g.add(middle, eps)
            last = prod(term(J, e1, e4), term(J, e2, e3))
            if not target.nullsetContains(first, middle, last):
                return False
    return True


def gpToMatrix(foundationResult, morphism):
    """The reduced matrix of a morphism into a field pasture.

    Columns of the reference basis form an identity; any other entry (i, j)
    is the value at the basis obtained by exchanging the i-th reference
    element for j, and zero when that exchange is not a basis.  Only those
    r(n - r) values are computed, from the foundation elements v cached by
    FoundationResult.nearBasisImages.  A field's unit group has at most one
    coordinate, so the morphism is one row (empty for GF(2)) and each value
    is the field's generator to the power row . v.
    """
    fr = foundationResult
    target = morphism.target
    if target.field is None:
        raise ValueError("morphism target %r has no attached field" % (target.name,))
    row, = morphism.matrix or ((),)
    exp = target.field.exp
    rows = []
    for a in fr.basis:
        rows.append([0] * fr.matroid.n)
        rows[-1][a] = 1
    for (i, j), v in fr.nearBasisImages().items():
        rows[i][j] = exp(sum(map(mul, row, v)))
    return tuple(map(tuple, rows))


def _det(rows, cols, field):
    a = [[rows[i][j] for j in cols] for i in range(len(rows))]
    n = len(a)
    det = 1
    for k in range(n):
        pivotRow = next((i for i in range(k, n) if a[i][k]), None)
        if pivotRow is None:
            return 0
        if pivotRow != k:
            a[k], a[pivotRow] = a[pivotRow], a[k]
            det = field.neg(det)
        det = field.mul(det, a[k][k])
        inv = field.inv(a[k][k])
        for i in range(k + 1, n):
            factor = field.mul(a[i][k], inv)
            if factor:
                for j in range(k, n):
                    a[i][j] = field.sub(a[i][j], field.mul(factor, a[k][j]))
    return det


def matroidOfMatrix(rows, field, name=None):
    """The matroid of nonvanishing maximal minors (always a valid matroid)."""
    if isinstance(field, int):
        field = FiniteField(field)
    rows = tuple(tuple(r) for r in rows)
    r = len(rows)
    n = len(rows[0]) if rows else 0
    bases = [s for s in combinations(range(n), r) if _det(rows, s, field)]
    return Matroid.fromBases(n, bases, name=name, validate=False)


def representationsOverField(matroid, q, basis=None, foundationResult=None):
    """All inequivalent representations of the matroid over GF(q).

    One representation per foundation morphism, in the canonical morphism
    order.  Distinct morphisms produce distinct reduced matrices.  The field
    is built first, so a refused q costs no foundation.
    """
    target = gfPasture(q)
    fr = foundationResult if foundationResult is not None else computeFoundation(matroid, basis)
    out = []
    for f in searchMorphisms(fr.foundation, target):
        out.append(FieldRepresentation(f, gpToMatrix(fr, f), target.field))
    return out


def isOrientable(matroid, basis=None, foundationResult=None):
    """Whether the foundation admits a morphism to the sign pasture."""
    fr = foundationResult if foundationResult is not None else computeFoundation(matroid, basis)
    return bool(searchMorphisms(fr.foundation, builtinPasture("sign"), findOne=True))


class Certificate:
    """Why a matroid is representable over no field at all."""

    __slots__ = ("kind", "morphism")

    def __init__(self, kind, morphism=None):
        self.kind = kind
        self.morphism = morphism

    def __repr__(self):
        return "Certificate(%r)" % (self.kind,)


def nonRepresentabilityCertificate(matroid, basis=None, foundationResult=None):
    """A certificate that no finite field representation exists, or None.

    Two kinds: the unit 1 being a fundamental element of the foundation, or
    a morphism from the diamond pasture (which no field receives) into the
    foundation.  Either one rules out every field at once.
    """
    fr = foundationResult if foundationResult is not None else computeFoundation(matroid, basis)
    foundation = fr.foundation
    one = (0,) * foundation.group.dim
    if one in foundation.partners:
        return Certificate("OneIsFundamental")
    ms = searchMorphisms(builtinPasture("P0"), foundation, findOne=True)
    if ms:
        return Certificate("P0Morphism", ms[0])
    return None
