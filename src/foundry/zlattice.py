"""Exact integer linear algebra for finitely generated abelian groups.

Everything works over plain Python ints, and a matrix is the tuple of its
rows, each a tuple of ints: Smith normal form by elimination over the
nonzeros of each pivot row, which reduces D (and the column transform V, for
callers that read it) and logs its row operations instead of carrying the
row transform U, so that a caller rebuilds only the rows of U it reads; a
span check that inserts columns into an echelon basis; cokernel
presentations that build no column transform and one row of U per
generator; modular linear solves against a matrix factored once; and
enumeration of homomorphisms between finite abelian groups.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import mod, mul


def _identityRows(n, width):
    """The first n rows of the width x width identity, as lists."""
    return [[0] * i + [1] + [0] * (width - 1 - i) for i in range(n)]


def _swapCols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _pivot(d, t):
    """(i, j) of the nonzero entry of least absolute value in the block of d
    from (t, t), the lowest (i, j) among equals; None when the block is zero."""
    best = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            e = abs(row[j])
            if e and (best is None or e < best[0]):
                if e == 1:
                    return i, j  # nothing later in scan order can beat a unit
                best = (e, i, j)
    return None if best is None else best[1:]


def _smith(d, v):
    """Reduce the list rows d to Smith normal form in place, and return the
    log of its row operations, from which _rowsOfU builds rows of U.

    Each column operation on d is repeated on the rows v; cokernelPresentation,
    which reads no column transform, passes no rows of v, which costs
    nothing.  No row transform is carried: the log lists each row operation
    as a triple (i, t, q), q != 0 meaning row i -= q * row t, and q == 0 a
    swap of rows i and t.  A row step has i > t; the divisibility fix-up
    row t += row offender is (t, offender, -1), and the negation of row t is
    (t, t, 2).

    Pivot selection is deterministic: the entry of smallest absolute value in
    the working block, ties broken by lowest (row, col).  The diagonal is
    nonnegative and each entry divides the next.  Each row step costs the
    nonzeros of the pivot row of d.  When no row below the pivot keeps a
    remainder, the column step changes the pivot row alone (and v), and a
    unit pivot leaves no remainder in it.  The invariant factors never need
    the transforms (Kannan and Bachem, SIAM J. Comput. 1979), and the log
    keeps U as an LU factorisation keeps its multipliers (Golub and Van
    Loan, Matrix Computations, 3.2).
    """
    log = []
    m = len(d)
    n = len(d[0]) if d else 0
    t = 0
    while t < min(m, n):
        best = _pivot(d, t)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            log.append((t, bi, 0))
        if bj != t:
            _swapCols(d[t:], t, bj)  # rows above t are zero right of their pivot
            _swapCols(v, t, bj)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            log.append((t, t, 2))
        pivot, top = d[t][t], d[t]
        # rows from t on are zero left of column t: run over the pivot row's nonzeros
        cols = list(itertools.compress(range(t + 1, n), top[t + 1:]))
        rest = []  # the rows below the pivot that keep a remainder in column t
        for i in range(t + 1, m):
            q = d[i][t] // pivot
            if q:
                row = d[i]
                row[t] -= q * pivot
                for j in cols:
                    row[j] -= q * top[j]
                log.append((i, t, q))
                if row[t]:
                    rest.append(row)
        liveV = [row for row in v if row[t]]
        if rest or liveV:
            for j in cols:
                q = top[j] // pivot
                top[j] -= q * pivot
                for row in rest:
                    row[j] -= q * row[t]
                for row in liveV:
                    row[j] -= q * row[t]
        else:  # the column step changes the pivot row alone
            for j in cols:
                top[j] %= pivot
        if rest or (pivot > 1 and any(top[j] for j in cols)):
            continue  # leftover remainders are smaller than the pivot; reselect
        offender = None
        if pivot > 1:  # a unit pivot divides every entry
            for i in range(t + 1, m):
                if any(d[i][j] % pivot for j in range(t + 1, n)):
                    offender = i
                    break
        if offender is not None:
            d[t] = [a + b for a, b in zip(top, d[offender])]
            log.append((t, offender, -1))
            continue
        t += 1
    return log


def _rowsOfU(log, g, rows):
    """The rows (given by index) of the g x g row transform U that _smith
    logged, as tuples: each is its unit row with the log applied in reverse,
    row i -= q * row t becoming x[t] -= q * x[i].  The rows are carried as
    columns, one list over the requested rows per coordinate, so that each
    logged operation runs over the nonzeros of one column."""
    k = range(len(rows))
    xs = [[0] * len(k) for _ in range(g)]
    for r, i in enumerate(rows):
        xs[i][r] = 1
    for i, t, q in reversed(log):
        if q:
            xi, xt = xs[i], xs[t]
            for r in itertools.compress(k, xi):
                xt[r] -= q * xi[r]
        else:
            xs[i], xs[t] = xs[t], xs[i]
    return list(zip(*xs))


def smithNormalForm(a, cols=0):
    """Smith normal form of the matrix with rows a (cols columns, read only
    when a has no rows): the rows of U, D and V with U @ a @ V == D.  U is
    built from the elimination's log (_rowsOfU), all of its rows."""
    d = [list(row) for row in a]
    k = len(d[0]) if d else cols
    v = _identityRows(k, k)
    u = _rowsOfU(_smith(d, v), len(d), range(len(d)))
    return tuple(tuple(map(tuple, m)) for m in (u, d, v))


def _xgcd(a, b):
    """(g, s, t) with s * a + t * b == g == gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def spansLattice(columns, dim):
    """Whether the columns (each a sequence of dim integers) span all of Z^dim.

    The columns go one at a time, as sparse vectors, into an echelon basis of
    the lattice they span: at the column's first nonzero row, the basis
    vector there and the column are replaced by a unimodular combination
    whose pivot is their extended gcd, and the column moves on with a zero
    in that row.  The columns span Z^dim exactly when every row holds a
    pivot equal to 1, and the answer is True as soon as that happens, with
    no Smith elimination (Kannan and Bachem, SIAM J. Comput. 1979).
    """
    basis = {}  # row -> the basis vector whose first nonzero entry is there
    missing = dim  # rows without a unit pivot
    for col in columns:
        if not missing:
            break
        c = {i: y for i, y in enumerate(col) if y}
        while c:
            i = min(c)
            y = c[i]
            b = basis.get(i)
            if b is None:
                basis[i] = c if y > 0 else {k: -w for k, w in c.items()}
                if y in (1, -1):
                    missing -= 1
                break
            x = b[i]
            if x == 1:
                for k, z in b.items():
                    w = c.get(k, 0) - y * z
                    if w:
                        c[k] = w
                    else:
                        del c[k]
                continue
            g, s, t = _xgcd(x, y)
            x, y = x // g, y // g
            newB, newC = {}, {}
            for k in b.keys() | c.keys():
                z, w = b.get(k, 0), c.get(k, 0)
                if s * z + t * w:
                    newB[k] = s * z + t * w
                if x * w - y * z:
                    newC[k] = x * w - y * z
            basis[i], c = newB, newC
            if g == 1:
                missing -= 1
    return not missing


class GroupPresentation:
    """A finitely generated abelian group Z/a_1 + ... + Z/a_p + Z^freeRank.

    The invariants a_i are all >= 2 and form a divisibility chain.  Elements
    are coordinate tuples of length dim; torsion coordinates come first.
    """

    __slots__ = ("invariants", "freeRank")

    def __init__(self, invariants, freeRank):
        invariants = tuple(int(a) for a in invariants)
        for a in invariants:
            if a < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(invariants, invariants[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if freeRank < 0:
            raise ValueError("free rank must be nonnegative")
        self.invariants = invariants
        self.freeRank = int(freeRank)

    @property
    def dim(self):
        return len(self.invariants) + self.freeRank

    def zero(self):
        return (0,) * self.dim

    def reduce(self, vec):
        """Canonical coordinates: torsion entries mod a_i, free entries as-is."""
        vec = tuple(vec)
        invariants = self.invariants
        if len(vec) != len(invariants) + self.freeRank:
            raise ValueError("element has wrong length")
        return tuple(map(mod, vec, invariants)) + vec[len(invariants):]

    def add(self, *vecs):
        total = [0] * self.dim
        for v in vecs:
            for i, x in enumerate(v):
                total[i] += x
        return self.reduce(total)

    def neg(self, vec):
        return self.reduce([-x for x in vec])

    def scale(self, k, vec):
        return self.reduce([k * x for x in vec])

    def isZero(self, vec):
        return self.reduce(vec) == self.zero()

    def freePart(self, vec):
        """Just the free coordinates, as a tuple of length freeRank."""
        vec = tuple(vec)
        return vec[len(self.invariants):]

    def allElements(self):
        """All elements in lexicographic coordinate order (finite groups only)."""
        if self.freeRank:
            raise ValueError("group is infinite")
        return [tuple(c) for c in itertools.product(*(range(a) for a in self.invariants))]

    def relationColumns(self):
        """Columns a_i * e_i spanning the relation lattice inside Z^dim."""
        cols = []
        for i, a in enumerate(self.invariants):
            col = [0] * self.dim
            col[i] = a
            cols.append(tuple(col))
        return cols

    def __eq__(self, other):
        return (
            isinstance(other, GroupPresentation)
            and self.invariants == other.invariants
            and self.freeRank == other.freeRank
        )

    def __hash__(self):
        return hash((self.invariants, self.freeRank))

    def __repr__(self):
        return "GroupPresentation(%r, %r)" % (list(self.invariants), self.freeRank)


class GroupHom:
    """A homomorphism between presented groups, given by an integer matrix.

    The matrix is target.dim rows, each source.dim ints long, taken as
    given, and acts on coordinate columns.  Well-definedness requires
    a_j * column(j) to vanish in the target for every torsion coordinate j
    of the source.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if len(matrix) != target.dim or any(len(row) != source.dim for row in matrix):
            raise ValueError("hom matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, vec):
        if len(vec) != self.source.dim:
            raise ValueError("element has wrong length")
        return self.target.reduce([sum(map(mul, row, vec)) for row in self.matrix])

    def isWellDefined(self):
        return all(self.target.isZero([a * row[j] for row in self.matrix])
                   for j, a in enumerate(self.source.invariants))

    def canonicalMatrix(self):
        """The matrix with every column reduced to canonical target
        coordinates: torsion rows mod their invariant, free rows as they are."""
        invariants = self.target.invariants
        return (tuple(tuple([x % a for x in row]) for row, a in zip(self.matrix, invariants))
                + self.matrix[len(invariants):])

    def compose(self, inner):
        """self after inner (source of self must be target of inner)."""
        if inner.target != self.source:
            raise ValueError("homs are not composable")
        columns = [[row[j] for row in inner.matrix] for j in range(inner.source.dim)]
        return GroupHom(inner.source, self.target, tuple(
            tuple([sum(map(mul, row, col)) for col in columns]) for row in self.matrix))

    def isSurjective(self):
        """True when the image together with target relations spans Z^dim."""
        cols = list(zip(*self.matrix)) + self.target.relationColumns()
        return spansLattice(cols, self.target.dim)

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.source == other.source
            and self.target == other.target
            and self.canonicalMatrix() == other.canonicalMatrix()
        )

    def __hash__(self):
        return hash((self.source, self.target, self.canonicalMatrix()))

    def __repr__(self):
        return "GroupHom(%r)" % (self.matrix,)


def cokernelPresentation(relations):
    """Present Z^g modulo the column span of an integer matrix.

    relations is the matrix's g rows as lists of one length, which are
    reduced in place.  Returns (presentation, projection) where projection
    is the quotient hom from the free ambient group Z^g (presented with no
    torsion) onto the cokernel in canonical coordinates.  Only the diagonal
    and the rows of U that the projection keeps, its torsion rows then its
    free rows, are read off the elimination: no row transform is carried
    beside d, and _rowsOfU rebuilds just those rows from its log.
    """
    d = relations
    g = len(d)
    log = _smith(d, [])
    diag = [row[i] for i, row in enumerate(d[:len(d[0])])] if d else []
    torsionRows = [i for i, a in enumerate(diag) if a >= 2]
    freeRows = [i for i in range(g) if i >= len(diag) or diag[i] == 0]
    pres = GroupPresentation([diag[i] for i in torsionRows], len(freeRows))
    rows = _rowsOfU(log, g, torsionRows + freeRows)
    rows[:len(torsionRows)] = [tuple([x % a for x in row]) for row, a in zip(rows, pres.invariants)]
    projection = GroupHom(GroupPresentation([], g), pres, tuple(rows))
    return pres, projection


class ModularSolver:
    """Solutions x of x @ A == B modulo n for one fixed A, given as its rows
    a, one per entry of x (an A with no rows has no columns either).

    W is A, stacked on n times the identity when n > 0, so that the system
    is x' @ W == B over Z with x the first len(a) coordinates of x'.  With
    U @ W^T @ V == D in Smith normal form, x' = V z where z_i = (U B)_i / d_i;
    there is no solution when some d_i does not divide (U B)_i, or some zero
    d_i meets a nonzero (U B)_i.  __init__ reduces the rows (A^T | n I) of
    W^T once (_smith), carrying only V's first len(a) rows, as _smith changes
    each row of V on its own, and builds every row of U from the
    elimination's log (_rowsOfU).  It keeps what a solve reads: U's rows,
    the diagonal padded with zeros to one entry per row of U, and those rows
    of V cut to one column per row of U, as z is zero past them.  n == 0
    means solve over the integers.
    """

    __slots__ = ("n", "cols", "steps", "vRows")

    def __init__(self, a, n):
        if n < 0:
            raise ValueError("modulus must be nonnegative")
        rows, cols = len(a), len(a[0]) if a else 0
        # x @ W == b  <=>  W^T @ x^T == b^T
        d = [[row[j] for row in a] + ([0] * j + [n] + [0] * (cols - 1 - j) if n else [])
             for j in range(cols)]
        v = _identityRows(rows, rows + cols if n else rows)
        # an A with no columns leaves nothing to factor, and U has no rows
        u = _rowsOfU(_smith(d, v), cols, range(cols)) if cols else []
        diag = [row[i] for i, row in enumerate(d) if i < len(row)]
        self.n = n
        self.cols = cols
        # (row of U, its diagonal entry), one per coordinate of U b
        self.steps = tuple(zip(u, diag + [0] * (len(u) - len(diag))))
        self.vRows = tuple(row[:len(u)] for row in v)

    def solve(self, b):
        """One solution x for the right-hand side B (a sequence of one int
        per column of A), or None."""
        if len(b) != self.cols:
            raise ValueError("right-hand side has wrong length")
        z = []
        for row, d in self.steps:
            c = sum(map(mul, row, b))
            if d:
                if c % d:
                    return None
                z.append(c // d)
            elif c:
                return None
            else:
                z.append(0)
        n = self.n
        if n:
            return tuple([sum(map(mul, row, z)) % n for row in self.vRows])
        return tuple([sum(map(mul, row, z)) for row in self.vRows])


def solveModular(a, b, n):
    """One solution x of x @ A == B modulo n, or None, for A given as in
    ModularSolver.  n == 0 means solve over the integers."""
    return ModularSolver(a, n).solve(b)


def homFinite(source, target):
    """All homomorphisms between finite groups, in a fixed deterministic order.

    The count is the product over (i, j) of gcd(a_j, b_i).  Enumeration order:
    columns left to right, rows top to bottom, smallest multiplier first.
    """
    if source.freeRank or target.freeRank:
        raise ValueError("homFinite needs finite groups on both sides")
    slots = []
    for j, a in enumerate(source.invariants):
        for i, b in enumerate(target.invariants):
            g = gcd(a, b)
            step = b // g
            slots.append([(i, j, step * t) for t in range(g)])
    homs = []
    p, q = source.dim, target.dim
    for choice in itertools.product(*slots):
        mat = [[0] * p for _ in range(q)]
        for i, j, val in choice:
            mat[i][j] = val
        homs.append(GroupHom(source, target, tuple(map(tuple, mat))))
    return homs
