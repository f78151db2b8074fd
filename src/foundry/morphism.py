"""Morphism search between finitely presented pastures.

The search factors through the unit groups: pick a full-rank sublattice of
the source generated by fundamental elements (recording how each generator
was forced), enumerate torsion-block candidates, then extend level by level
through a pruned depth-first search.  Surviving leaf assignments are
assembled into integer matrices, and every assembled matrix is validated
against the full morphism criterion (epsilon preserved, fundamental pairs to
fundamental pairs), which subsumes the necessary conditions used for
pruning.
"""

from __future__ import annotations

from math import gcd

from .zlattice import (
    GroupHom,
    GroupPresentation,
    IntMatrix,
    ModularSolver,
    cokernelPresentation,
    homFinite,
    spansLattice,
)


class NotGeneratedByFundamentalElements(ValueError):
    """The source units are not generated by fundamental elements and epsilon."""


def _vecGcd(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


class PastureMorphism:
    """A pasture morphism stored as a canonicalized unit-group homomorphism."""

    __slots__ = ("source", "target", "hom")

    def __init__(self, source, target, hom):
        self.source = source
        self.target = target
        self.hom = GroupHom(source.group, target.group, hom.canonicalMatrix())

    @property
    def matrix(self):
        return self.hom.matrix

    def apply(self, vec):
        return self.hom.apply(vec)

    def sortKey(self):
        return self.hom.matrix.data

    def __eq__(self, other):
        return (
            isinstance(other, PastureMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.hom.matrix == other.hom.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.hom.matrix))

    def __repr__(self):
        return "PastureMorphism(%r)" % (self.hom.matrix.toLists(),)


def isMorphism(f):
    """Full morphism criterion: well-defined, epsilon to epsilon, and every
    hexagon head pair to a fundamental pair.  The rest of each hexagon then
    follows from the closure identities."""
    if not f.hom.isWellDefined():
        return False
    if f.apply(f.source.epsilon) != f.target.epsilon:
        return False
    pairs = f.target.pairSet()
    for h in f.source.hexagons:
        x, y = h.pairs[0]
        if (f.apply(x), f.apply(y)) not in pairs:
            return False
    return True


def isIsomorphism(f):
    """Group-bijective morphism with equal fundamental-pair counts.

    Surjectivity suffices for bijectivity because the two groups share
    invariant factors and free rank; equal pair counts then force the
    inverse map to carry fundamental pairs back to fundamental pairs.
    """
    if f.source.group.invariants != f.target.group.invariants:
        return False
    if f.source.group.freeRank != f.target.group.freeRank:
        return False
    if len(f.source.pairSet()) != len(f.target.pairSet()):
        return False
    return isMorphism(f) and f.hom.isSurjective()


class _Row:
    """One echelon row over the generator free parts, kept pairwise clean:
    every row is zero at every other row's pivot column.  combo expresses
    the row as an integer combination of the generators at insertion time."""

    __slots__ = ("vec", "combo", "pivot")

    def __init__(self, vec, combo):
        self.vec = vec
        self.combo = combo
        self.pivot = next(i for i, x in enumerate(vec) if x)


class _Record:
    """Reduced residual of one fundamental element against the echelon rows.

    Invariant: res == c0 * freePart(element) - sum(coeffs[i] * freePart(x_i))
    with res zero at every pivot column, c0 > 0 and gcd(res, c0, coeffs) == 1.
    The element is dependent exactly when res vanishes; then (c0, coeffs) is
    its primitive dependency on the generators.
    """

    __slots__ = ("res", "c0", "coeffs", "norm")

    def __init__(self, freePart):
        self.res = list(freePart)
        self.c0 = 1
        self.coeffs = []
        self._renormalize()

    def dependent(self):
        return self.norm is None

    def _renormalize(self):
        g = gcd(_vecGcd(self.res), gcd(self.c0, _vecGcd(self.coeffs)))
        if g > 1:
            self.res = [x // g for x in self.res]
            self.c0 //= g
            self.coeffs = [x // g for x in self.coeffs]
        if any(self.res):
            g = _vecGcd(self.res)
            norm = [x // g for x in self.res]
            if next(x for x in norm if x) < 0:
                norm = [-x for x in norm]
            self.norm = tuple(norm)
        else:
            self.norm = None

    def reduceAgainst(self, row):
        """One fraction-free reduction step at the row's pivot column."""
        a = self.res[row.pivot]
        if not a:
            return
        p = row.vec[row.pivot]
        self.res = [p * x - a * y for x, y in zip(self.res, row.vec)]
        self.c0 *= p
        width = max(len(self.coeffs), len(row.combo))
        coeffs = [p * x for x in self.coeffs] + [0] * (width - len(self.coeffs))
        for i, c in enumerate(row.combo):
            coeffs[i] += a * c
        self.coeffs = coeffs
        self._renormalize()

    def dependency(self, level):
        """(c0, coeffs padded to level) with c0 > 0 and joint gcd 1."""
        coeffs = list(self.coeffs) + [0] * (level - len(self.coeffs))
        return self.c0, tuple(coeffs)


class SublatticeData:
    """Output of the sublattice construction.

    generators: full coordinate vectors x_1..x_r of source units.
    rules: one entry per level, each of
      ("t1", tau, coeffs)   relation sum(c_i x_i, i<l) + c_l u = tau, x_l = v
      ("t2", tau, coeffs)   relation sum(c_i x_i, i<=l) + c_(l+1) v = tau
      ("t3first",) / ("t3second",)  a rank-two pair added over two levels
    typeFourLists: per level, entries (c0u, cu, tauU, c0v, cv, tauV) freezing
    the primitive dependency data of pairs that became doubly dependent.
    counts: how many pairs of each kind produced rules or list entries.
    freeMatrix: A_F, whose columns are the generators' free parts.  Its
    cokernel and its factorisation per modulus are built on first use and
    kept for the life of the source pasture.
    """

    __slots__ = ("generators", "rules", "typeFourLists", "counts", "freeMatrix",
                 "_quotient", "_solvers")

    def __init__(self, generators, rules, typeFourLists, counts, freeMatrix):
        self.generators = generators
        self.rules = rules
        self.typeFourLists = typeFourLists
        self.counts = counts
        self.freeMatrix = freeMatrix
        self._quotient = None
        self._solvers = {}

    def quotient(self):
        """(coker(A_F), projection); finite because A_F has full rank."""
        if self._quotient is None:
            pres, proj = cokernelPresentation(self.freeMatrix)
            if pres.freeRank:
                raise ValueError("sublattice free parts must have full rank")
            self._quotient = (pres, proj)
        return self._quotient

    def solver(self, n):
        """The system x @ A_F == B modulo n (n == 0: over Z), factored once."""
        solver = self._solvers.get(n)
        if solver is None:
            solver = self._solvers[n] = ModularSolver(self.freeMatrix, n)
        return solver


def fullRankSublattice(pasture):
    """Choose free-rank many fundamental generators and record the forcing data.

    Scan order is fixed: hexagons in canonical order, pairs in closure order,
    both orientations.  Preference per round: a pair whose first member is
    already dependent (type 1), else an independent pair whose residuals are
    proportional (type 2, the first member is added), else a pair spanning
    two new directions (type 3, both members added).
    """
    group = pasture.group
    r = group.freeRank
    spanCols = [tuple(x) for x in pasture.fundamentalElements()]
    spanCols.append(tuple(pasture.epsilon))
    spanCols.extend(group.relationColumns())
    if not spansLattice(IntMatrix.fromColumns(spanCols, dim=group.dim)):
        raise NotGeneratedByFundamentalElements(
            "%s is not generated by its fundamental elements and epsilon"
            % (pasture.name or "pasture",))

    pairs = pasture.fundamentalPairs()
    records = {}
    for pair in pairs:
        for e in pair:
            if e not in records:
                records[e] = _Record(group.freePart(e))
    rows = []
    generators = []
    rules = []
    typeFourLists = []
    counts = {"p1": 0, "p2": 0, "p3": 0, "p4": 0}
    consumed = set()
    recorded = set()

    def addGenerator(x):
        generators.append(group.reduce(x))
        level = len(generators)
        vec = list(group.freePart(x))
        combo = [0] * (level - 1) + [1]
        for row in rows:
            a = vec[row.pivot]
            if a:
                p = row.vec[row.pivot]
                vec = [p * s - a * t for s, t in zip(vec, row.vec)]
                rowCombo = list(row.combo) + [0] * (len(combo) - len(row.combo))
                combo = [p * s - a * t for s, t in zip(combo, rowCombo)]
        assert any(vec), "generator does not increase the rank"
        g = gcd(_vecGcd(vec), _vecGcd(combo))
        if g > 1:
            vec = [x // g for x in vec]
            combo = [x // g for x in combo]
        pivot = next(i for i, x in enumerate(vec) if x)
        if vec[pivot] < 0:
            vec = [-x for x in vec]
            combo = [-x for x in combo]
        new = _Row(vec, tuple(combo))
        # keep rows pairwise clean: zero the new pivot column in old rows
        for row in rows:
            a = row.vec[new.pivot]
            if a:
                p = new.vec[new.pivot]
                row.vec = [p * s - a * t for s, t in zip(row.vec, new.vec)]
                oldCombo = list(row.combo) + [0] * (len(new.combo) - len(row.combo))
                row.combo = tuple(p * s - a * t for s, t in zip(oldCombo, new.combo))
        rows.append(new)
        for rec in records.values():
            if not rec.dependent():
                rec.reduceAgainst(new)

    def torsionWitness(c0, coeffs, element):
        """The torsion element c0 * element - sum(coeffs[i] * x_i)."""
        total = group.scale(c0, element)
        for c, x in zip(coeffs, generators):
            if c:
                total = group.add(total, group.scale(-c, x))
        assert not any(group.freePart(total))
        return total

    def recordNewTypeFour():
        bucket = []
        level = len(generators)
        for pair in pairs:
            if pair in recorded or pair in consumed:
                continue
            ru, rv = records[pair[0]], records[pair[1]]
            if ru.dependent() and rv.dependent():
                recorded.add(pair)
                c0u, cu = ru.dependency(level)
                c0v, cv = rv.dependency(level)
                bucket.append((
                    c0u, cu, torsionWitness(c0u, cu, pair[0]),
                    c0v, cv, torsionWitness(c0v, cv, pair[1]),
                ))
        counts["p4"] += len(bucket)
        typeFourLists.append(bucket)

    while len(generators) < r:
        t1 = t2 = t3 = None
        for pair in pairs:
            if pair in consumed or pair in recorded:
                continue
            ru, rv = records[pair[0]], records[pair[1]]
            du, dv = ru.dependent(), rv.dependent()
            if du and dv:
                continue
            if du:
                t1 = pair
                break  # the first type-1 pair in scan order is final
            if dv:
                continue
            if ru.norm == rv.norm:
                if t2 is None:
                    t2 = pair
            elif t3 is None:
                t3 = pair
        if t1 is not None:
            u, v = t1
            c0, coeffs = records[u].dependency(len(generators))
            tau = torsionWitness(c0, coeffs, u)
            addGenerator(v)
            ruleCoeffs = tuple(-c for c in coeffs) + (c0,)
            lead = next(c for c in ruleCoeffs if c)
            if lead < 0:
                ruleCoeffs = tuple(-c for c in ruleCoeffs)
                tau = group.neg(tau)
            rules.append(("t1", tau, ruleCoeffs))
            consumed.add((u, v))
            consumed.add((v, u))
            counts["p1"] += 1
            recordNewTypeFour()
        elif t2 is not None:
            u, v = t2
            ru, rv = records[u], records[v]
            # primitive (alpha, beta) with alpha * res_u == beta * res_v
            gu, gv = _vecGcd(ru.res), _vecGcd(rv.res)
            su = 1 if next(x for x in ru.res if x) > 0 else -1
            sv = 1 if next(x for x in rv.res if x) > 0 else -1
            g = gcd(gu, gv)
            alpha, beta = gv // g, su * sv * (gu // g)
            lu = list(ru.coeffs) + [0] * (len(generators) - len(ru.coeffs))
            lv = list(rv.coeffs) + [0] * (len(generators) - len(rv.coeffs))
            cu0, cv0 = ru.c0, rv.c0
            addGenerator(u)
            before = tuple(-alpha * a + beta * b for a, b in zip(lu, lv))
            ruleCoeffs = before + (alpha * cu0, -beta * cv0)
            g = _vecGcd(ruleCoeffs)
            if g > 1:
                ruleCoeffs = tuple(c // g for c in ruleCoeffs)
            lead = next(c for c in ruleCoeffs if c)
            if lead < 0:
                ruleCoeffs = tuple(-c for c in ruleCoeffs)
            tau = group.scale(ruleCoeffs[-1], v)
            for c, x in zip(ruleCoeffs[:-1], generators):
                if c:
                    tau = group.add(tau, group.scale(c, x))
            assert not any(group.freePart(tau))
            rules.append(("t2", tau, ruleCoeffs))
            consumed.add((u, v))
            consumed.add((v, u))
            counts["p2"] += 1
            recordNewTypeFour()
        elif t3 is not None:
            u, v = t3
            addGenerator(u)
            rules.append(("t3first",))
            consumed.add((u, v))
            consumed.add((v, u))
            counts["p3"] += 1
            typeFourLists.append([])
            addGenerator(v)
            rules.append(("t3second",))
            recordNewTypeFour()
        else:
            raise NotGeneratedByFundamentalElements(
                "no usable fundamental pair found; the free part is not spanned")
    freeMatrix = IntMatrix.fromColumns([group.freePart(x) for x in generators], dim=r)
    return SublatticeData(tuple(generators), tuple(rules), tuple(typeFourLists), counts,
                          freeMatrix)


def sublatticeOf(pasture):
    if pasture._sublattice is None:
        pasture._sublattice = fullRankSublattice(pasture)
    return pasture._sublattice


def _torsionPresentation(group):
    return GroupPresentation(group.invariants, 0)


def torsionHoms(p1, p2, isoOnly=False):
    """Torsion-block candidates: homs of the torsion parts fixing epsilon."""
    t1 = _torsionPresentation(p1.group)
    t2 = _torsionPresentation(p2.group)
    eps1 = p1.epsilon[:t1.dim]
    eps2 = p2.epsilon[:t2.dim]
    out = []
    for h in homFinite(t1, t2):
        if h.apply(eps1) != eps2:
            continue
        if isoOnly and not h.isSurjective():
            continue
        out.append(h)
    return out


class SearchStats:
    """Counters exposed for the candidate-budget guarantees."""

    __slots__ = ("torsionHoms", "leafCandidates", "assembled", "valid")

    def __init__(self):
        self.torsionHoms = 0
        self.leafCandidates = 0
        self.assembled = 0
        self.valid = 0

    def asDict(self):
        return {
            "torsionHoms": self.torsionHoms,
            "leafCandidates": self.leafCandidates,
            "assembled": self.assembled,
            "valid": self.valid,
        }


def _freeRankIncreases(echelon, vec):
    """Integer echelon rank test; returns the extended echelon or None."""
    work = list(vec)
    for pivot, row in echelon:
        a = work[pivot]
        if a:
            p = row[pivot]
            work = [p * x - a * y for x, y in zip(work, row)]
    if not any(work):
        return None
    g = _vecGcd(work)
    work = [x // g for x in work]
    pivot = next(i for i, x in enumerate(work) if x)
    if work[pivot] < 0:
        work = [-x for x in work]
    return echelon + [(pivot, tuple(work))]


def assemble(p1, p2, sub, psi, images, stats=None):
    """All block matrices matching the sublattice images, per the lift family.

    The free block is the unique rational solution of C_F * A_F = B_F, kept
    only when integral; each torsion row is solved modulo its invariant; the
    solution set is one particular lift translated by Hom(coker(A_F), T_2).
    A_F depends only on the sublattice, so its cokernel and its
    factorisations come from sub and each leaf pays only the solves.
    """
    g1, g2 = p1.group, p2.group
    r = len(sub.generators)
    n1, n2 = len(g1.invariants), len(g2.invariants)
    bF = IntMatrix.fromColumns([g2.freePart(y) for y in images], dim=g2.freeRank)
    freeRows = []
    for i in range(g2.freeRank):
        x = sub.solver(0).solve(bF.row(i))
        if x is None:
            return []
        freeRows.append(x)
    psiImages = [psi.apply(x[:n1]) for x in sub.generators]
    particular = []
    for i, b in enumerate(g2.invariants):
        rhs = [y[i] - m[i] for y, m in zip(images, psiImages)]
        x = sub.solver(b).solve(rhs)
        if x is None:
            return []
        particular.append(x)
    qPres, qProj = sub.quotient()
    t2 = _torsionPresentation(g2)
    out = []
    seen = set()
    for h in homFinite(qPres, t2):
        off = (h.matrix @ qProj.matrix).data
        rowsOut = []
        for i in range(n2):
            extra = tuple((particular[i][j] + off[i][j]) % g2.invariants[i]
                          for j in range(r))
            rowsOut.append(tuple(psi.matrix.row(i)) + extra)
        for i in range(g2.freeRank):
            rowsOut.append((0,) * n1 + tuple(freeRows[i]))
        mat = IntMatrix(rowsOut, cols=g1.dim)
        if mat.data in seen:
            continue
        seen.add(mat.data)
        if stats is not None:
            stats.assembled += 1
        out.append(GroupHom(g1, g2, mat))
    return out


def searchMorphisms(p1, p2, findOne=False, findIso=False, stats=None):
    """All pasture morphisms from p1 to p2, canonically sorted.

    findOne stops at the first valid morphism in search order.  findIso
    restricts to isomorphisms: torsion blocks must be bijective, candidate
    free parts must grow the rank, and assembled maps must be invertible.
    Raises NotGeneratedByFundamentalElements when the source premise fails.
    """
    if stats is None:
        stats = SearchStats()
    sub = sublatticeOf(p1)
    if findIso:
        if (p1.group.invariants != p2.group.invariants
                or p1.group.freeRank != p2.group.freeRank
                or len(p1.pairSet()) != len(p2.pairSet())):
            return []
    psis = torsionHoms(p1, p2, isoOnly=findIso)
    stats.torsionHoms = len(psis)
    g2 = p2.group
    r = len(sub.generators)
    n1 = len(p1.group.invariants)
    fe2 = p2.fundamentalElements()
    fp2 = p2.fundamentalPairs()
    scaledPairCache = {}

    def scaledPairs(c0u, c0v):
        key = (c0u, c0v)
        if key not in scaledPairCache:
            scaledPairCache[key] = {
                (g2.scale(c0u, z1), g2.scale(c0v, z2)) for z1, z2 in fp2
            }
        return scaledPairCache[key]

    found = []

    def emit(hom):
        f = PastureMorphism(p1, p2, hom)
        ok = isIsomorphism(f) if findIso else isMorphism(f)
        if ok:
            stats.valid += 1
            found.append(f)
            return findOne
        return False

    def combination(coeffs, images):
        acc = [0] * g2.dim
        for c, y in zip(coeffs, images):
            if c:
                for i, x in enumerate(y):
                    acc[i] += c * x
        return g2.reduce(acc)

    stop = False
    for psi in psis:
        psiCache = {}

        def mapTorsion(vec):
            cached = psiCache.get(vec)
            if cached is None:
                cached = tuple(psi.apply(vec[:n1])) + (0,) * g2.freeRank
                psiCache[vec] = cached
            return cached

        if r == 0:
            stats.leafCandidates += 1
            for hom in assemble(p1, p2, sub, psi, (), stats):
                if emit(hom):
                    stop = True
                    break
            if stop:
                break
            continue

        def candidatesAt(level, images):
            rule = sub.rules[level - 1]
            if rule[0] == "t1":
                tau, coeffs = rule[1], rule[2]
                target = g2.add(mapTorsion(tau), g2.neg(combination(coeffs[:-1], images)))
                cl = coeffs[-1]
                out = []
                for x in fe2:
                    if g2.scale(cl, x) == target:
                        for y in p2.partnersOf(x):
                            if y not in out:
                                out.append(y)
                return out
            if rule[0] == "t2":
                tau, coeffs = rule[1], rule[2]
                target = g2.add(mapTorsion(tau), g2.neg(combination(coeffs[:-2], images)))
                cl, cnext = coeffs[-2], coeffs[-1]
                out = []
                for x, y in fp2:
                    if g2.add(g2.scale(cl, x), g2.scale(cnext, y)) == target:
                        if x not in out:
                            out.append(x)
                return out
            if rule[0] == "t3first":
                return list(fe2)
            return list(p2.partnersOf(images[-1]))

        def passesTypeFour(level, images, y):
            full = images + [y]
            for c0u, cu, tauU, c0v, cv, tauV in sub.typeFourLists[level - 1]:
                yU = g2.add(mapTorsion(tauU), combination(cu, full))
                yV = g2.add(mapTorsion(tauV), combination(cv, full))
                if (yU, yV) not in scaledPairs(c0u, c0v):
                    return False
            return True

        def dfs(level, images, echelon):
            if level > r:
                stats.leafCandidates += 1
                for hom in assemble(p1, p2, sub, psi, tuple(images), stats):
                    if emit(hom):
                        return True
                return False
            for y in candidatesAt(level, images):
                if findIso:
                    grown = _freeRankIncreases(echelon, g2.freePart(y))
                    if grown is None:
                        continue
                else:
                    grown = echelon
                if not passesTypeFour(level, images, y):
                    continue
                if dfs(level + 1, images + [y], grown):
                    return True
            return False

        if dfs(1, [], []):
            break

    unique = {}
    for f in found:
        unique.setdefault(f.sortKey(), f)
    ordered = [unique[k] for k in sorted(unique)]
    return ordered[:1] if findOne else ordered
