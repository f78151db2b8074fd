import itertools
import random
from collections import Counter
from math import prod
from operator import mul

import pytest
from sympy import Matrix, factorint
from sympy.matrices.normalforms import smith_normal_form

from foundry import zlattice
from foundry.foundation import computeFoundation, tutteRelations
from foundry.matroid import namedMatroid
from foundry.morphism import searchMorphisms, sublatticeOf
from foundry.pasture import builtinPasture, gfPasture
from foundry.zlattice import (
    GroupHom,
    GroupPresentation,
    ModularSolver,
    _smith,
    cokernelPresentation,
    homFinite,
    smithNormalForm,
    solveModular,
    spansLattice,
)
from test_foundation import denseRelations, maskIndex, symbolIndex
from test_foundation_frozen import cases as frozenFoundationCases
from test_foundation_frozen import matroidOf as frozenFoundationMatroid


def randomMatrix(rng, rows, cols, bound=30):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def width(a):
    """The column count of a matrix with at least one row."""
    return len(a[0]) if a else 0


def matmul(a, b):
    """The product of two matrices given as rows, a's width b's height."""
    assert all(len(row) == len(b) for row in a)
    columns = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def sympyDiagonal(a):
    """Oracle: Smith diagonal via sympy, normalized nonnegative and padded."""
    k = min(len(a), width(a))
    if k == 0:
        return tuple()
    s = smith_normal_form(Matrix([list(row) for row in a]))
    return tuple(abs(int(s[i, i])) for i in range(k))


def diagonal(res):
    """The diagonal of a Smith form's D, one entry per row or column,
    whichever are fewer."""
    _, d, _ = res
    return tuple(d[i][i] for i in range(min(len(d), width(d))))


def assertSmithProduct(a, cols):
    """U @ a @ V == D for the Smith form of a (cols columns), with U square
    on a's rows and V on its columns."""
    u, d, v = res = smithNormalForm(a, cols)
    assert len(u) == len(a) and len(v) == cols
    assert matmul(matmul(u, a), v) == d
    return res


def isDiagonalChain(res):
    diag = diagonal(res)
    for i, x in enumerate(diag):
        if x < 0:
            return False
        if i and diag[i - 1] and x % diag[i - 1]:
            return False
        if i and diag[i - 1] == 0 and x != 0:
            return False
    return True


def test_snf_structure_random():
    rng = random.Random(20260823)
    for _ in range(60):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        a = randomMatrix(rng, rows, cols)
        res = u, d, v = assertSmithProduct(a, cols)
        assert abs(Matrix(u).det()) == 1
        assert abs(Matrix(v).det()) == 1
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        assert isDiagonalChain(res)
        assert diagonal(res) == sympyDiagonal(a)


def test_snf_degenerate_shapes():
    for a, cols in (((), 4), (((0, 0), (0, 0)), 2), (((5,),), 1)):
        assertSmithProduct(a, cols)
    assert diagonal(smithNormalForm(((5,),))) == (5,)
    assert diagonal(smithNormalForm(((-5,),))) == (5,)


def test_cokernel_known_groups():
    pres, proj = cokernelPresentation([[2, 0], [0, 3]])
    assert pres.invariants == (6,)
    assert pres.freeRank == 0
    pres, _ = cokernelPresentation([[2, 0], [0, 2]])
    assert pres.invariants == (2, 2)
    pres, proj = cokernelPresentation([[0], [0]])
    assert pres.invariants == () and pres.freeRank == 2
    pres, _ = cokernelPresentation([list(row) for row in identity(3)])
    assert pres.dim == 0


def test_cokernel_random_structure():
    rng = random.Random(99)
    for _ in range(40):
        g = rng.randint(1, 6)
        m = rng.randint(0, 6)
        rel = randomMatrix(rng, g, m, bound=12)
        pres, proj = cokernelPresentation([list(row) for row in rel])
        diag = sympyDiagonal(rel)
        assert pres.invariants == tuple(d for d in diag if d >= 2)
        assert pres.freeRank == g - sum(1 for d in diag if d)
        # projection kills every relation column and is onto
        for column in zip(*rel):
            assert pres.isZero(proj.apply(column))
        assert proj.isSurjective()


def denseSmithForm(a, n, log=None):
    """Oracle: the Smith elimination with both transforms that the sparse
    one replaced, every row and column operation over whole rows and
    columns.  Each row operation that changes d goes into the list log, when
    given, as (kind, the triple that _smith logs for it)."""

    def record(kind, op):
        if log is not None:
            log.append((kind, op))

    def addRow(mat, dst, src, factor):
        mat[dst] = [x + factor * y for x, y in zip(mat[dst], mat[src])]

    def addCol(mat, dst, src, factor):
        for row in mat:
            row[dst] += factor * row[src]

    def swapCols(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    m = len(a)
    d = [list(row) for row in a]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = abs(d[i][j])
                if e and (best is None or e < best[0]):
                    best = (e, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            record("swap", (t, bi, 0))
        d[t], d[bi] = d[bi], d[t]
        u[t], u[bi] = u[bi], u[t]
        swapCols(d, t, bj)
        swapCols(v, t, bj)
        if d[t][t] < 0:
            record("negation", (t, t, 2))
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        pivot = d[t][t]
        for i in range(t + 1, m):
            q = d[i][t] // pivot
            if q:
                addRow(d, i, t, -q)
                addRow(u, i, t, -q)
                record("remainder" if d[i][t] else "row step", (i, t, q))
        for j in range(t + 1, n):
            q = d[t][j] // pivot
            if q:
                addCol(d, j, t, -q)
                addCol(v, j, t, -q)
        if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
            continue
        offender = next((i for i in range(t + 1, m)
                         if any(d[i][j] % pivot for j in range(t + 1, n))), None)
        if offender is not None:
            record("fix-up", (t, offender, -1))
            addRow(d, t, offender, 1)
            addRow(u, t, offender, 1)
            continue
        t += 1
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def assertSameSmithForm(a, cols):
    assert smithNormalForm(a, cols) == denseSmithForm(a, cols), a


def seededMatrices():
    """3000 seeded matrices of up to 9 rows and 11 columns, zero rows and
    zero columns included, of varied density and entry size, each with its
    column count."""
    rng = random.Random(20261020)
    for _ in range(3000):
        rows, cols = rng.randint(0, 9), rng.randint(0, 11)
        density, bound = rng.uniform(0.1, 1.0), rng.choice([1, 2, 5, 50])
        yield tuple(tuple(rng.randint(-bound, bound) if rng.random() < density else 0
                          for _ in range(cols)) for _ in range(rows)), cols


def test_smith_form_matches_dense_elimination():
    for a, cols in seededMatrices():
        assertSameSmithForm(a, cols)


def test_the_seeded_matrices_log_every_kind_of_row_operation():
    """_smith logs the dense oracle's row operations, in its order, and the
    seeded matrices drive each kind through the loop: a row swap, a
    negation, a row step that leaves a remainder and the divisibility
    fix-up.  The oracles above then check the reverse replay that builds U
    (_rowsOfU) on each kind; foundation relations have almost only unit
    pivots, so they would not."""
    kinds = Counter()
    for a, cols in seededMatrices():
        expected = []
        denseSmithForm(a, cols, expected)
        assert _smith([list(row) for row in a], [list(row) for row in identity(cols)]) == [
            op for _, op in expected], a
        kinds.update(kind for kind, _ in expected)
    assert all(kinds[kind] for kind in ("swap", "negation", "row step", "remainder", "fix-up"))


def foundationRelations():
    """(case, the relation matrix) of every matroid in the frozen foundation
    record, built by the dense definition."""
    for case in frozenFoundationCases():
        m = frozenFoundationMatroid(case)
        yield case, denseRelations(m, symbolIndex(m), m.exchangeGraphAndForest(m.bases[0]))


def test_smith_form_matches_dense_elimination_on_foundation_relations():
    for _, relations in foundationRelations():
        assertSameSmithForm(relations, width(relations))


def keptRows(diag, g):
    """The torsion rows and the free rows of a Smith form with diagonal diag
    and g rows: the rows of U that a cokernel projection keeps."""
    return ([i for i, x in enumerate(diag) if x >= 2],
            [i for i in range(g) if i >= len(diag) or diag[i] == 0])


def fullFormPresentation(a, cols):
    """Oracle: the cokernel presentation and projection matrix read off the
    full smithNormalForm(a, cols)."""
    snf = u, _, _ = smithNormalForm(a, cols)
    diag = diagonal(snf)
    torsion, free = keptRows(diag, len(a))
    rows = [tuple(x % diag[i] for x in u[i]) for i in torsion] + [u[i] for i in free]
    return GroupPresentation([diag[i] for i in torsion], len(free)), tuple(rows)


def assertSameCokernel(a, cols, rows=None):
    """cokernelPresentation of a's rows as lists, and of rows (reduced in
    place) when given, against the full Smith form's."""
    expected = fullFormPresentation(a, cols)
    for relations in [[list(row) for row in a]] + ([] if rows is None else [rows]):
        pres, proj = cokernelPresentation(relations)
        assert (pres, proj.matrix) == expected, a
        assert proj.source == GroupPresentation([], len(a)) and proj.target == pres


def test_cokernel_matches_the_full_smith_form():
    shapes = Counter()
    for a, cols in seededMatrices():
        assertSameCokernel(a, cols)
        shapes[len(a) == 0, cols == 0] += 1
    assert all(shapes[key] for key in ((True, False), (False, True), (True, True)))


def test_cokernel_of_foundation_relations_matches_the_full_smith_form():
    kept = {}
    for case, relations in foundationRelations():
        m = frozenFoundationMatroid(case)
        rows = tutteRelations(m, maskIndex(m), m.exchangeGraphAndForest(m.bases[0]))
        assertSameCokernel(relations, width(relations), rows)
        kept[case] = len(cokernelPresentation([list(row) for row in relations])[1].matrix)
    assert kept["fano"] == 0  # a trivial group keeps no row of U


def test_the_cokernel_rebuilds_only_the_rows_of_u_it_keeps(monkeypatch):
    """On every frozen foundation case, computeFoundation's cokernel asks
    the replay (_rowsOfU) for its torsion rows then its free rows, as the
    full Smith form's diagonal names them, and for no other row of U."""
    requests = []
    replay = zlattice._rowsOfU

    def recordingReplay(log, g, rows):
        requests.append((g, list(rows)))
        return replay(log, g, rows)

    monkeypatch.setattr(zlattice, "_rowsOfU", recordingReplay)
    for case, relations in foundationRelations():
        g = len(relations)
        torsion, free = keptRows(diagonal(smithNormalForm(relations, width(relations))), g)
        requests.clear()
        computeFoundation(frozenFoundationMatroid(case))
        assert requests == [(g, torsion + free)], case
        if case == "t8":
            assert (g, len(torsion + free)) == (60, 1)


def test_span_check_matches_smith_definition():
    """spansLattice against its definition: every invariant factor is 1."""
    rng = random.Random(20261019)
    spanning = 0
    for case in range(3000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 9)
        bound = rng.choice([1, 2, 5, 10 ** 6])
        columns = [[rng.randint(-bound, bound) for _ in range(rows)] for _ in range(cols)]
        if case % 3 == 0 and rows:
            # a unimodular basis, so that spanning cases are common, mixed with
            # scaled copies of itself and of the random columns
            basis = [[int(i == j) for i in range(rows)] for j in range(rows)]
            for _ in range(2 * rows):
                j, k = rng.sample(range(rows), 2) if rows > 1 else (0, 0)
                if j != k:
                    f = rng.randint(-3, 3)
                    basis[j] = [x + f * y for x, y in zip(basis[j], basis[k])]
            if rng.random() < 0.3:
                basis[rng.randrange(rows)] = [2 * x for x in basis[0]]
            columns += basis
        for _ in range(rng.randint(0, 3)):
            if columns:
                col = rng.choice(columns)
                columns.append([rng.choice([-3, -1, 2, 7]) * x for x in col])
        rng.shuffle(columns)
        a = tuple(zip(*columns)) if columns else ((),) * rows
        diag = diagonal(smithNormalForm(a, len(columns)))
        expected = len(diag) == rows and all(x == 1 for x in diag)
        assert spansLattice(columns, rows) == expected, a
        spanning += expected
    assert 500 < spanning < 2500


def referenceSolve(a, b, n):
    """One solution of x @ A == B mod n via a fresh full Smith form per call:
    the particular solution assemble's enumeration order depends on."""
    cols = width(a)
    assert len(b) == cols
    work = a
    if n:
        work = a + tuple(tuple(n if i == j else 0 for j in range(cols)) for i in range(cols))
    snf = u, _, v = smithNormalForm(tuple(zip(*work)), len(work))
    c = [sum(map(mul, row, b)) for row in u]
    diag = diagonal(snf)
    z = [0] * len(work)
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if (d and ci % d) or (not d and ci):
            return None
        z[i] = ci // d if d else 0
    x = [sum(map(mul, row, z)) for row in v][:len(a)]
    return tuple(e % n for e in x) if n else tuple(x)


def test_factored_solver_gives_the_reference_solution():
    rng = random.Random(3031)
    for _ in range(40):
        r = rng.randint(1, 4)
        a = randomMatrix(rng, r, r, bound=9)
        for n in (0, 2, 6, 8, 13):
            solver = ModularSolver(a, n)
            for _ in range(6):
                b = tuple(rng.randint(-20, 20) for _ in range(r))
                assert solver.solve(b) == referenceSolve(a, b, n)
    with pytest.raises(ValueError):
        ModularSolver(((1,),), -1)
    with pytest.raises(ValueError):
        ModularSolver(((1,),), 0).solve((1, 2))


PRIME_POWERS = tuple(q for q in range(2, 100) if len(factorint(q)) == 1)


@pytest.mark.parametrize("name", ["example52", "fano", "nonfano", "pappus", "nonpappus",
                                  "vamos", "ag23", "t8", "uniform:2,4", "uniform:2,5"])
def test_factored_solver_gives_the_reference_solution_on_catalogue_sublattices(
        name, monkeypatch):
    """On each catalogue foundation's A_F, for n == 0 and every modulus
    q - 1 with q < 100 a prime power, the solver gives referenceSolve's
    solution: on every right-hand side that a leaf of a search into GF(q),
    q <= 16, or into U or D solves, and on seeded random ones, solvable
    and not.  This pins each leaf's particular solution, and so the lift
    order, on real sublattices."""
    source = computeFoundation(namedMatroid(name)).foundation
    a = sublatticeOf(source).freeMatrix
    leafSides = {}
    solve = ModularSolver.solve

    def recordingSolve(solver, b):
        leafSides.setdefault(solver.n, set()).add(tuple(b))
        return solve(solver, b)

    monkeypatch.setattr(ModularSolver, "solve", recordingSolve)
    for target in ([gfPasture(q) for q in PRIME_POWERS if q <= 16]
                   + [builtinPasture("U"), builtinPasture("D")]):
        searchMorphisms(source, target)
    monkeypatch.undo()
    assert bool(leafSides) == (name not in ("nonpappus", "vamos"))
    rng = random.Random(name)
    for n in (0,) + tuple(q - 1 for q in PRIME_POWERS):
        solver = ModularSolver(a, n)
        bound = n or 20
        sides = sorted(leafSides.get(n, ()))
        for _ in range(3):
            x = [rng.randrange(-bound, bound) for _ in range(len(a))]
            sides.append(tuple(sum(map(mul, x, col)) for col in zip(*a)))
            sides.append(tuple(rng.randrange(-bound, bound) for _ in range(width(a))))
        for b in sides:
            assert solver.solve(b) == referenceSolve(a, b, n), (n, b)


def bruteSolveMod(a, b, n):
    for x in itertools.product(range(n), repeat=len(a)):
        img = [sum(xi * a[i][j] for i, xi in enumerate(x)) % n for j in range(width(a))]
        if all((img[j] - b[j]) % n == 0 for j in range(width(a))):
            return tuple(x)
    return None


def test_solve_modular_integral():
    rng = random.Random(411)
    for _ in range(40):
        r = rng.randint(1, 4)
        s = rng.randint(1, 5)
        a = randomMatrix(rng, r, s, bound=8)
        x0 = tuple(rng.randint(-5, 5) for _ in range(r))
        b = tuple(sum(x0[i] * a[i][j] for i in range(r)) for j in range(s))
        x = solveModular(a, b, 0)
        assert x is not None
        got = tuple(sum(x[i] * a[i][j] for i in range(r)) for j in range(s))
        assert got == b
    assert solveModular(((2,),), (1,), 0) is None
    assert solveModular(((2, 0),), (2, 1), 0) is None
    assert solveModular(((3, 6),), (3, 6), 0) == (1,)


def test_solve_modular_finite():
    rng = random.Random(555)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6, 8])
        r = rng.randint(1, 3)
        s = rng.randint(1, 3)
        a = randomMatrix(rng, r, s, bound=9)
        b = tuple(rng.randint(0, n - 1) for _ in range(s))
        mine = solveModular(a, b, n)
        brute = bruteSolveMod(a, b, n)
        assert (mine is None) == (brute is None)
        if mine is not None:
            assert all(0 <= xi < n for xi in mine)
            got = [sum(mine[i] * a[i][j] for i in range(r)) % n for j in range(s)]
            assert all((got[j] - b[j]) % n == 0 for j in range(s))


def bruteHomCount(source, target):
    """Oracle: count generator images (t_1..t_p) with a_j * t_j = 0."""
    count = 0
    elements = target.allElements()
    for images in itertools.product(elements, repeat=len(source.invariants)):
        if all(target.isZero(target.scale(a, t)) for a, t in zip(source.invariants, images)):
            count += 1
    return count


FINITE_GROUPS = [
    GroupPresentation([], 0),
    GroupPresentation([2], 0),
    GroupPresentation([3], 0),
    GroupPresentation([4], 0),
    GroupPresentation([6], 0),
    GroupPresentation([2, 4], 0),
    GroupPresentation([2, 2], 0),
]


def test_hom_finite_matches_brute_force():
    for src in FINITE_GROUPS:
        for dst in FINITE_GROUPS:
            homs = homFinite(src, dst)
            assert len(homs) == bruteHomCount(src, dst)
            assert len({h.canonicalMatrix() for h in homs}) == len(homs)
            for h in homs:
                assert h.isWellDefined()


def unitVectorCanonicalMatrix(h):
    """Oracle: the matrix whose j-th column is the hom applied to e_j."""
    dim = h.source.dim
    cols = [h.apply(tuple(int(i == j) for i in range(dim))) for j in range(dim)]
    return tuple(zip(*cols)) if cols else ((),) * h.target.dim


def test_canonical_matrix_matches_unit_vector_definition():
    for src in FINITE_GROUPS:
        for dst in FINITE_GROUPS:
            for h in homFinite(src, dst):
                assert h.canonicalMatrix() == unitVectorCanonicalMatrix(h)
    groups = [GroupPresentation(invariants, free)
              for invariants in ([], [2], [6], [2, 4], [3, 9]) for free in (0, 1, 2)]
    rng = random.Random(77)
    for _ in range(2000):
        src, dst = rng.choice(groups), rng.choice(groups)
        # negative and out-of-range entries in torsion and free rows alike
        mat = tuple(tuple(rng.randint(-40, 40) for _ in range(src.dim))
                    for _ in range(dst.dim))
        h = GroupHom(src, dst, mat)
        assert h.canonicalMatrix() == unitVectorCanonicalMatrix(h)


def test_hom_apply_and_compose():
    rng = random.Random(8)
    src = GroupPresentation([2, 4], 0)
    mid = GroupPresentation([4], 0)
    dst = GroupPresentation([2], 0)
    for f in homFinite(src, mid):
        for g in homFinite(mid, dst):
            gf = g.compose(f)
            for _ in range(5):
                x = tuple(rng.randint(0, 7) for _ in range(src.dim))
                assert gf.apply(x) == g.apply(f.apply(x))


def test_surjectivity_checks():
    z = GroupPresentation([], 1)
    double = GroupHom(z, z, ((2,),))
    assert not double.isSurjective()
    assert GroupHom(z, z, identity(z.dim)).isSurjective()
    z2 = GroupPresentation([2], 0)
    onto = GroupHom(z, z2, ((1,),))
    assert onto.isSurjective()


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation([1], 0)
    with pytest.raises(ValueError):
        GroupPresentation([2, 3], 0)  # 3 is not a multiple of 2
    with pytest.raises(ValueError):
        GroupPresentation([2], -1)
    p = GroupPresentation([2, 4], 1)
    assert p.dim == 3
    assert p.reduce((3, -1, -7)) == (1, 3, -7)
    assert p.add((1, 3, 2), (1, 2, -2)) == (0, 1, 0)
    assert p.neg((1, 1, 5)) == (1, 3, -5)
    assert p.reduce((1, 2, 9)[:2] + (0,)) == (1, 2, 0)
    assert p.freePart((1, 2, 9)) == (9,)
    fin = GroupPresentation([2, 2], 0)
    assert prod(fin.invariants) == 4
    assert len(fin.allElements()) == 4


def test_group_hom_checks_the_shape_of_its_rows():
    """target.dim rows, each source.dim long, with no rows or no columns
    when a group has dimension 0; apply checks the element's length."""
    src, dst = GroupPresentation([2], 1), GroupPresentation([4], 1)
    assert GroupHom(src, dst, ((1, 0), (0, 1))).matrix == ((1, 0), (0, 1))
    for bad in (((1, 0),), ((1, 0), (0, 1), (0, 0)), ((1, 0), (1,)), ((1,), (1, 0)),
                ((1, 0, 0), (0, 1, 0)), ()):
        with pytest.raises(ValueError):
            GroupHom(src, dst, bad)
    with pytest.raises(ValueError):
        GroupHom(src, dst, ((1, 0), (0, 1))).apply((1,))
    trivial = GroupPresentation([], 0)
    assert GroupHom(src, trivial, ()).apply((1, 5)) == ()
    for bad in (((),), ((1, 0),)):
        with pytest.raises(ValueError):
            GroupHom(src, trivial, bad)
    assert GroupHom(trivial, dst, ((), ())).apply(()) == (0, 0)
    for bad in ((), ((),), ((), (0,)), ((0,), (0,))):
        with pytest.raises(ValueError):
            GroupHom(trivial, dst, bad)
    assert GroupHom(trivial, trivial, ()).matrix == ()
