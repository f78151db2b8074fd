"""Oracles for the benchmark that do not trust the foundation.

Everything here is written against raw linear algebra, closed-form counts and
published verdicts: finite-field arithmetic modulo Conway polynomials
(primitivity checked here), determinants, a canonical form under row and
column scaling, a brute-force count of normalised reduced matrices, the arc
bound for uniform matroids, and a census of a foundation read back from the
CLI's JSON output.  The checks import nothing from ``foundry``; only the
brute-force command reads the catalogue's bases through the package.

Run ``python3 bench/oracles.py`` to recompute the brute-force table and
compare it with ``bench/bruteforce_counts.json``; ``--write`` rewrites it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

BRUTEFORCE_FILE = Path(__file__).resolve().parent / "bruteforce_counts.json"
BRUTE_FORCE_LIMIT = 60000   # most candidate matrices enumerated per (matroid, q)

# Conway polynomials C(p, k), little-endian coefficients of the monic
# polynomial, for every proper prime power below 100.
CONWAY = {
    (2, 2): (1, 1, 1),                # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),             # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),          # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),       # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 1, 1, 0, 1),    # x^6 + x^4 + x^3 + x + 1
    (3, 2): (2, 2, 1),                # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),             # x^3 + 2x + 1
    (3, 4): (2, 0, 0, 2, 1),          # x^4 + 2x^3 + 2
    (5, 2): (2, 4, 1),                # x^2 + 4x + 2
    (7, 2): (3, 6, 1),                # x^2 + 6x + 3
}

PRIME_POWERS_BELOW_100 = tuple(
    q for q in range(2, 100)
    if len({p for p in range(2, q + 1) if q % p == 0
            and all(p % d for d in range(2, p))}) == 1
)


def primePower(q):
    """(p, k) with q == p**k, by trial division; ValueError otherwise."""
    if q < 2:
        raise ValueError("%d is not a prime power" % q)
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError("%d is not a prime power" % q)
    return p, k


class Field:
    """GF(q) on the integers 0..q-1, with full addition and product tables.

    For q = p^k with k >= 2 an element's base-p digits, little-endian, are
    its polynomial coefficients modulo the Conway polynomial, which is the
    encoding ``foundry`` documents for its matrices.
    """

    def __init__(self, q):
        p, k = primePower(q)
        self.q, self.p, self.k = q, p, k
        self.add = [[self._digitwise(a, b, 1) for b in range(q)] for a in range(q)]
        self.neg = [self._digitwise(0, a, -1) for a in range(q)]
        if k == 1:
            self.mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            self.mul = self._tablesFromPowersOfX(CONWAY[(p, k)])
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def _digitwise(self, a, b, sign):
        out, place = 0, 1
        for _ in range(self.k):
            out += ((a % self.p + sign * (b % self.p)) % self.p) * place
            a, b, place = a // self.p, b // self.p, place * self.p
        return out

    def _timesX(self, a, poly):
        """a * x modulo the monic polynomial, on the digit encoding."""
        p, k = self.p, self.k
        digits = [(a // p ** i) % p for i in range(k)]
        top = digits[-1]
        shifted = [0] + digits[:-1]
        reduced = [(d - top * c) % p for d, c in zip(shifted, poly[:k])]
        return sum(d * p ** i for i, d in enumerate(reduced))

    def _tablesFromPowersOfX(self, poly):
        q = self.q
        powers = [1]
        for _ in range(q - 2):
            powers.append(self._timesX(powers[-1], poly))
        # x must have order exactly q - 1; that also proves the quotient
        # ring is a field, so the polynomial is irreducible and primitive.
        if self._timesX(powers[-1], poly) != 1 or len(set(powers)) != q - 1 or 0 in powers:
            raise ValueError("Conway polynomial for q=%d is not primitive" % q)
        log = {v: i for i, v in enumerate(powers)}
        table = [[0] * q for _ in range(q)]
        for a in range(1, q):
            for b in range(1, q):
                table[a][b] = powers[(log[a] + log[b]) % (q - 1)]
        return table

    def sub(self, a, b):
        return self.add[a][self.neg[b]]


def determinant(rows, cols, field):
    """Determinant over the field of the square submatrix on the columns."""
    a = [[row[j] for j in cols] for row in rows]
    n = len(a)
    mul, add, neg, inv = field.mul, field.add, field.neg, field.inv
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = neg[det]
        det = mul[det][a[k][k]]
        scale = inv[a[k][k]]
        for i in range(k + 1, n):
            factor = mul[a[i][k]][scale]
            if factor:
                nf = neg[factor]
                rowI, rowK = a[i], a[k]
                for j in range(k, n):
                    rowI[j] = add[rowI[j]][mul[nf][rowK[j]]]
    return det


def integerDeterminant(rows, cols):
    """Exact determinant over the integers, by cofactor expansion."""
    a = [[row[j] for j in cols] for row in rows]
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * integerDeterminant(a[1:], [c for c in range(len(a)) if c != j])
               for j in range(len(a)) if a[0][j])


def basesOfMatrix(rows, field=None):
    """The r-subsets of columns with a nonzero maximal minor (over Z if no field)."""
    r, n = len(rows), len(rows[0])
    out = set()
    for s in itertools.combinations(range(n), r):
        d = integerDeterminant(rows, s) if field is None else determinant(rows, s, field)
        if d:
            out.add(s)
    return out


def scalingCanonicalForm(rows, field):
    """The representative of D1 * M * D2 (diagonal, invertible) whose entries
    on a fixed spanning forest of the support are 1.

    The forest is found by breadth-first search over rows and columns in
    index order, and the support does not change under scaling, so two
    matrices get the same form exactly when they are scaling equivalent.
    """
    r, n = len(rows), len(rows[0])
    mul, inv = field.mul, field.inv
    rowScale, colScale = [None] * r, [None] * n
    for root in range(r):
        if rowScale[root] is not None:
            continue
        rowScale[root] = 1
        queue = [("r", root)]
        while queue:
            kind, i = queue.pop(0)
            if kind == "r":
                for j in range(n):
                    if rows[i][j] and colScale[j] is None:
                        colScale[j] = inv[mul[rowScale[i]][rows[i][j]]]
                        queue.append(("c", j))
            else:
                for k in range(r):
                    if rows[k][i] and rowScale[k] is None:
                        rowScale[k] = inv[mul[rows[k][i]][colScale[i]]]
                        queue.append(("r", k))
    colScale = [1 if c is None else c for c in colScale]
    return tuple(tuple(mul[mul[rowScale[i]][rows[i][j]]][colScale[j]] for j in range(n))
                 for i in range(r))


def representationProblems(bases, n, rank, matrices, field):
    """Why a list of matrices is not a set of pairwise inequivalent
    representations of the matroid with these bases (empty when it is)."""
    problems = []
    want = set(bases)
    forms = set()
    for idx, m in enumerate(matrices):
        if len(m) != rank or any(len(row) != n for row in m):
            problems.append("matrix %d has shape other than %dx%d" % (idx, rank, n))
            continue
        if any(not (0 <= x < field.q) for row in m for x in row):
            problems.append("matrix %d has an entry outside GF(%d)" % (idx, field.q))
            continue
        if basesOfMatrix(m, field) != want:
            problems.append("matrix %d does not have the matroid's bases" % idx)
        form = scalingCanonicalForm(m, field)
        if form in forms:
            problems.append("matrix %d is scaling equivalent to an earlier one" % idx)
        forms.add(form)
    return problems


def uniformRank2Count(n, q):
    """Inequivalent GF(q) representations of U(2,n): (q-2)!/(q-n+1)!.

    Fix the first three points at 0, infinity and 1 on the projective line;
    the other n-3 points are distinct among the remaining q-2.
    """
    if n - 1 > q:
        return 0
    count = 1
    for t in range(q - n + 2, q - 1):
        count *= t
    return count


def uniformRepresentable(rank, n, q):
    """Whether U(rank, n) is GF(q)-representable, by the arc bound.

    Duality swaps rank and corank, so k = min(rank, n - rank) decides.
    k <= 1 always; k = 2: n points on the projective line, n <= q + 1; k = 3:
    arcs in the plane, n <= q + 1 for odd q (Segre) and n <= q + 2 for even q
    (hyperovals; Bose).
    """
    k = min(rank, n - rank)
    if k <= 1:
        return True
    if k == 2:
        return n <= q + 1
    if k == 3:
        return n <= q + (2 if q % 2 == 0 else 1)
    raise ValueError("no arc bound on file for U(%d,%d)" % (rank, n))


# -- published verdicts -------------------------------------------------------

# name -> (orientable, representable over some field).  Sources are listed in
# bench/README.md.  Both verdicts are invariant under relabelling and under
# duality, so the table also speaks for every variant of each matroid.
VERDICTS = {
    "example52": (True, True),
    "fano": (False, True),
    "nonfano": (True, True),
    "pappus": (True, True),
    "nonpappus": (True, False),
    "vamos": (True, False),
    "ag23": (False, True),
    "t8": (False, True),
    "uniform(2,4)": (True, True),
    "uniform(2,5)": (True, True),
    "uniform(3,6)": (True, True),
}

# Witnesses for "representable": columns are the points.  Integer matrices
# prove real representability, hence orientability; the others are over the
# stated prime field.  Uniform matroids use the moment curve (see witness()).
_WITNESS_COLUMNS = {
    "example52": (0, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 0, 1),
                      (1, 1, 1), (6, 4, 4)]),
    "nonfano": (0, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                    (0, 1, 1), (1, 1, 1)]),
    "pappus": (0, [(0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1),
                   (5, 1, 1), (1, 1, 2), (10, 2, 7), (9, 1, 5)]),
    "fano": (2, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                 (0, 1, 1), (1, 1, 1)]),
    "ag23": (3, [(i // 3, i % 3, 1) for i in range(9)]),
    "t8": (3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
               (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]),
}

# Foundations of five matroids: the unit group as (invariant factors, free
# rank) and the builtin pasture the foundation is isomorphic to.  Sources and
# the check against the fields each matroid is representable over are in
# bench/README.md.
PUBLISHED_FOUNDATIONS = {
    "fano": (([], 0), None),
    "uniform(2,4)": (([2], 2), "U"),
    "nonfano": (([2], 1), "D"),
    "ag23": (([6], 0), "H"),
    "t8": (([2], 0), "F3"),
}


def witness(name):
    """(characteristic or 0, matrix rows) representing the named matroid."""
    if name.startswith("uniform("):
        rank, n = (int(x) for x in name[len("uniform("):-1].split(","))
        return 0, [[t ** i for t in range(1, n + 1)] for i in range(rank)]
    p, cols = _WITNESS_COLUMNS[name]
    return p, [list(row) for row in zip(*cols)]


def witnessHolds(name, bases):
    """Whether the witness matrix of a representable matroid has these bases."""
    p, rows = witness(name)
    if p:
        rows = [[x % p for x in row] for row in rows]
    return basesOfMatrix(rows, Field(p) if p else None) == set(bases)


# -- foundations read back from JSON -----------------------------------------

def foundationCensus(doc):
    """Invariant factors, free rank, hexagon-type census and the number of
    fundamental elements of a foundation from ``foundry foundation --output
    json``, recomputed here from the hexagon heads."""
    invariants = list(doc["invariants"])
    freeRank = doc["freeRank"]
    eps = tuple(doc["epsilon"])

    def reduce(v):
        return tuple(x % a for x, a in zip(v, invariants)) + tuple(v[len(invariants):])

    def triple(x, y):
        x, y = reduce(x), reduce(y)
        return ((x, y),
                (reduce([-a for a in x]), reduce([e + b - a for e, a, b in zip(eps, x, y)])),
                (reduce([-b for b in y]), reduce([e + a - b for e, a, b in zip(eps, x, y)])))

    types = {}
    fundamental = set()
    for x, y in doc["hexagons"]:
        pairs = triple(x, y)
        elements = {c for pair in pairs for c in pair}
        fundamental |= elements
        if len(elements) == 1:
            kind = "F3"
        elif sum(1 for a, b in pairs if a == b) == 1:
            kind = "D"
        elif len(elements) == 2:
            kind = "H"
        else:
            kind = "U"
        types[kind] = types.get(kind, 0) + 1
    return {
        "invariants": invariants,
        "freeRank": freeRank,
        "hexagonTypes": dict(sorted(types.items())),
        "fundamentalElements": len(fundamental),
    }


# -- brute force ---------------------------------------------------------------

def supportAndForest(bases, n, rank):
    """Reference basis B0 (lex first), the support of [I | A] relative to it,
    and a spanning forest of that support (breadth-first, index order)."""
    basesSet = set(bases)
    b0 = min(basesSet)
    others = [j for j in range(n) if j not in b0]
    support = [(i, j) for i, a in enumerate(b0) for j in others
               if tuple(sorted(set(b0) - {a} | {j})) in basesSet]
    seenRows, seenCols, forest = set(), set(), []
    for root in range(rank):
        if root in seenRows:
            continue
        seenRows.add(root)
        queue = [("r", root)]
        while queue:
            kind, v = queue.pop(0)
            for i, j in support:
                if kind == "r" and i == v and j not in seenCols:
                    seenCols.add(j)
                    forest.append((i, j))
                    queue.append(("c", j))
                elif kind == "c" and j == v and i not in seenRows:
                    seenRows.add(i)
                    forest.append((i, j))
                    queue.append(("r", i))
    return b0, support, forest


def bruteForceCandidates(bases, n, rank, q):
    _, support, forest = supportAndForest(bases, n, rank)
    return (q - 1) ** (len(support) - len(forest))


def bruteForceCount(bases, n, rank, q):
    """Number of normalised reduced matrices [I | A] over GF(q) whose matroid
    has exactly these bases: one per rescaling class of representations."""
    field = Field(q)
    b0, support, forest = supportAndForest(bases, n, rank)
    free = [cell for cell in support if cell not in set(forest)]
    basesSet = set(bases)
    allSubsets = list(itertools.combinations(range(n), rank))
    # nonbases first: most candidates fail on their first dependent set
    order = [s for s in allSubsets if s not in basesSet] + [s for s in allSubsets if s in basesSet]
    base = [[0] * n for _ in range(rank)]
    for i, a in enumerate(b0):
        base[i][a] = 1
    for i, j in forest:
        base[i][j] = 1
    count = 0
    for values in itertools.product(range(1, q), repeat=len(free)):
        rows = [list(row) for row in base]
        for (i, j), v in zip(free, values):
            rows[i][j] = v
        if all(bool(determinant(rows, s, field)) == (s in basesSet) for s in order):
            count += 1
    return count


def _catalogue():
    """The catalogue's bases, read from the package: they are inputs, not answers."""
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from workloads import CATALOGUE, namedBases
    return [(name,) + namedBases(name) for name in CATALOGUE + ("pappus",)]


def bruteForceTable():
    table = {}
    for name, n, rank, bases in _catalogue():
        for q in PRIME_POWERS_BELOW_100:
            if bruteForceCandidates(bases, n, rank, q) <= BRUTE_FORCE_LIMIT:
                table["%s@%d" % (name, q)] = bruteForceCount(bases, n, rank, q)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the committed table instead of comparing with it")
    args = parser.parse_args(argv)
    table = bruteForceTable()
    if args.write:
        BRUTEFORCE_FILE.write_text(json.dumps({"limit": BRUTE_FORCE_LIMIT, "counts": table},
                                              indent=1, sort_keys=True) + "\n")
        print("wrote %d counts to %s" % (len(table), BRUTEFORCE_FILE))
        return 0
    committed = json.loads(BRUTEFORCE_FILE.read_text())
    if committed["limit"] != BRUTE_FORCE_LIMIT or committed["counts"] != table:
        print("brute-force table differs from %s" % BRUTEFORCE_FILE, file=sys.stderr)
        return 1
    print("brute-force table matches: %d counts" % len(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
