"""Finite field arithmetic with discrete logarithms.

Prime fields use the smallest primitive root; prime powers use the Conway
polynomial, whose residue class of x is primitive by construction.  Elements
are integers 0..q-1; for prime powers the base-p digits are the polynomial
coefficients, little-endian.
"""

from __future__ import annotations

# The largest field order accepted.  A field builds exp and log tables of
# size q (and its pasture about q/6 hexagons), and factoring q by trial
# division costs O(sqrt q), so a larger q is refused before either.
MAX_FIELD_ORDER = 1 << 16

# Conway polynomials (little-endian coefficient lists, monic) for every
# prime power p^k < 100 with k >= 2.
_CONWAY = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (2, 5): [1, 0, 1, 0, 0, 1],
    (2, 6): [1, 1, 0, 1, 1, 0, 1],
    (3, 2): [2, 2, 1],
    (3, 3): [1, 2, 0, 1],
    (3, 4): [2, 0, 0, 2, 1],
    (5, 2): [2, 4, 1],
    (7, 2): [3, 6, 1],
}


class FieldError(ValueError):
    """Raised for non prime powers, prime powers outside the Conway table and
    orders above MAX_FIELD_ORDER."""


def _factor(n):
    """The prime factorisation {p: k} of n >= 1, by trial division."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _primitiveRoot(p):
    """The smallest generator of the units modulo an odd prime p."""
    cofactors = [(p - 1) // r for r in _factor(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))


class FiniteField:
    """GF(q) with exp/log tables relative to a fixed primitive generator."""

    __slots__ = ("q", "p", "k", "generator", "_exp", "_log")

    def __init__(self, q):
        q = int(q)
        if q > MAX_FIELD_ORDER:
            raise FieldError("field order %d is above the ceiling %d" % (q, MAX_FIELD_ORDER))
        if q < 2:
            raise FieldError("field order must be at least 2")
        factors = _factor(q)
        if len(factors) != 1:
            raise FieldError("%d is not a prime power" % q)
        [(p, k)] = factors.items()
        self.q, self.p, self.k = q, p, k
        if k == 1:
            self.generator = 1 if q == 2 else _primitiveRoot(q)
        else:
            if (p, k) not in _CONWAY:
                raise FieldError(
                    "no Conway polynomial on file for %d^%d (orders >= 100)" % (p, k)
                )
            self.generator = p  # the class of x
        exp = []
        a = 1
        for _ in range(q - 1):
            exp.append(a)
            a = self.mulRaw(a, self.generator)
        if a != 1 or len(set(exp)) != q - 1:
            raise FieldError("generator is not primitive for q=%d" % q)
        self._exp = exp
        self._log = {v: i for i, v in enumerate(exp)}

    def digits(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def undigits(self, ds):
        val = 0
        for d in reversed(ds):
            val = val * self.p + d % self.p
        return val

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self.undigits([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return self.undigits([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mulRaw(self, a, b):
        """Product without the exp/log tables (used to build them)."""
        if self.k == 1:
            return (a * b) % self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        conway = _CONWAY[(self.p, self.k)]
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    # x^i = -sum conway[j] x^(i-k+j) since the polynomial is monic
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * conway[j]) % self.p
        return self.undigits(prod[: self.k])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def exp(self, i):
        return self._exp[i % (self.q - 1)]

    def log(self, a):
        if a == 0:
            raise ZeroDivisionError("log of zero")
        return self._log[a]

    def units(self):
        return list(self._exp)
