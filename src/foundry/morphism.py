"""Morphism search between finitely presented pastures.

The search factors through the unit groups: pick a full-rank sublattice of
the source generated by fundamental elements (recording how each generator
was forced), enumerate torsion-block candidates, then extend level by level
through a pruned depth-first search.  Surviving leaf assignments are
assembled into the integer rows of their lifts; a lift is kept when it
sends every source hexagon head to a fundamental pair, the one part of the
morphism criterion (isMorphism) that does not hold by construction, and
only then becomes a PastureMorphism, its rows taken as they are for the
matrix of its GroupHom.

A leaf checks only the heads of the hexagons the search left open
(SublatticeData.uncheckedHeads).  A hexagon is one closure class of
fundamental pairs, so a hom that keeps epsilon and sends one of its pairs
to a fundamental pair sends all of them to fundamental pairs (the closure
of the image pair, pasture.closureTriple).  Every lift of a leaf agrees
on the generators and on the torsion, hence on every element that is an
integer combination of them plus a torsion element; the search already
matched some pairs of such elements to target pairs on their exact
images, and their hexagons need no check at the leaf.

The search runs on plain integers.  Each rule target and each half of each
type-four check is a slot, a torsion constant plus an integer combination
of the images chosen so far; a sublattice compiles its slots once
(SlotProgram), and the search carries their partial sums down the tree as
one list of ints per target coordinate.  Candidates come from tables that
this module builds into the target once (torsionHoms, ruleCandidates and
scaledPairs), the first time a search reaches them, so repeated searches
into one target, such as the shared gfPasture(q), pay for them once.  Their
order fixes the enumeration order.  The tables and a source's sublattice
(sublatticeOf) are kept in the pasture's search slot, a dict that one memo
reads and fills (_memo), and each table built is reported to the field
cache (pasture.tableBuilt).  Fields (one coordinate), GF(2) and krasner (none)
and targets with free rank all run this one path.

A listing keeps at most MAX_MORPHISMS maps; countMorphisms keeps none.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm, prod
from operator import mul

from .pasture import tableBuilt
from .zlattice import (
    GroupHom,
    GroupPresentation,
    ModularSolver,
    cokernelPresentation,
    homFinite,
    spansLattice,
)


# The most morphisms a listing keeps.  U(r,n) has about q^(r(n-r)-n+1)
# morphisms into GF(q), so a query below the matroid and field ceilings can
# still ask for billions of maps, each a few hundred bytes.
MAX_MORPHISMS = 20_000

# The most torsion-block homs a search lists.  Their count is the product of
# gcd(a_j, b_i) over the two torsion parts' invariants, so Z/10^9 has 10^9
# endomorphisms; gf:65521's unit group Z/65520 has 65,520.
MAX_TORSION_HOMS = 2 ** 16


class NotGeneratedByFundamentalElements(ValueError):
    """The source units are not generated by fundamental elements and epsilon."""


class TooManyMorphisms(ValueError):
    """A listing would keep more than MAX_MORPHISMS morphisms."""


class TooManyTorsionHoms(ValueError):
    """The torsion parts have more than MAX_TORSION_HOMS homomorphisms."""


class PastureMorphism:
    """A pasture morphism stored as a unit-group homomorphism whose matrix
    is already canonical (GroupHom.canonicalMatrix), as every lift the
    search keeps is built."""

    __slots__ = ("source", "target", "hom")

    def __init__(self, source, target, hom):
        self.source = source
        self.target = target
        self.hom = hom

    @property
    def matrix(self):
        return self.hom.matrix

    def apply(self, vec):
        return self.hom.apply(vec)

    def sortKey(self):
        return self.hom.matrix

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
        return "PastureMorphism(%r)" % (self.hom.matrix,)


def isMorphism(f):
    """Full morphism criterion: well-defined, epsilon to epsilon, and every
    hexagon head pair to a fundamental pair (the rest of each hexagon then
    follows from the closure identities).  The oracle for _Search.emit."""
    if not f.hom.isWellDefined():
        return False
    if f.apply(f.source.epsilon) != f.target.epsilon:
        return False
    pairs = f.target.pairs
    for h in f.source.hexagons:
        x, y = h[0]
        if (f.apply(x), f.apply(y)) not in pairs:
            return False
    return True


def _sameShape(p1, p2):
    """Whether the two pastures share invariant factors, free rank and
    fundamental-pair count, as isomorphic pastures must."""
    return (p1.group.invariants == p2.group.invariants
            and p1.group.freeRank == p2.group.freeRank
            and len(p1.pairs) == len(p2.pairs))


def isIsomorphism(f):
    """Group-bijective morphism with equal fundamental-pair counts.

    Surjectivity suffices for bijectivity because the two groups share
    invariant factors and free rank; equal pair counts then force the
    inverse map to carry fundamental pairs back to fundamental pairs.
    """
    return _sameShape(f.source, f.target) and isMorphism(f) and f.hom.isSurjective()


class _Row:
    """One echelon row over the generator free parts, sparse ({free column:
    nonzero entry}) and kept pairwise clean: every row is zero at every other
    row's pivot column, its first nonzero one.  combo expresses the row as an
    integer combination of the generators ({generator index: nonzero
    coefficient})."""

    __slots__ = ("vec", "combo", "pivot")

    def __init__(self, vec, combo):
        self.vec = vec
        self.combo = combo
        self.pivot = min(vec)


class _Direction:
    """A free direction: the fundamental elements whose free parts are
    +-f, sharing one residual against the echelon rows.

    terms are the nonzero (column, entry) of f.  res is sparse ({column:
    nonzero entry}), primitive, its first nonzero entry positive and zero at
    every pivot column: the direction of f modulo the span of the
    generators.  It is None once the direction is dependent, and then so is
    every member.  pairs are the indices of the pairs with a member in it,
    firsts those whose first member is in it.  dependency holds
    (c0, coeffs, torsion) for f, coeffs sparse, computed when first read
    after the direction became dependent (see fullRankSublattice), and
    padded holds (level, coeffs, -coeffs) as tuples over the generators up
    to the level that last read them.
    """

    __slots__ = ("terms", "res", "pairs", "firsts", "dependency", "padded")

    def __init__(self, free):
        self.terms = [(k, x) for k, x in enumerate(free) if x]
        self.res = _primitive(dict(self.terms)) if self.terms else None
        self.pairs = []
        self.firsts = []
        self.dependency = None
        self.padded = None


class _Record:
    """One fundamental element: its direction, the sign of its free part
    against the direction's, and its witness once read."""

    __slots__ = ("element", "direction", "sign", "witness")

    def __init__(self, element, direction, sign):
        self.element = element
        self.direction = direction
        self.sign = sign
        self.witness = None


def _combination(p, x, a, y):
    """The sparse vector p * x - a * y, for sparse x ({index: nonzero}) and
    y given by its nonzero (index, entry) items, with a != 0."""
    out = {k: p * v for k, v in x.items()} if p != 1 else dict(x)
    for k, v in y:
        w = out.get(k, 0) - a * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def _primitive(res):
    """A nonzero sparse vector divided by its gcd, signed so that its first
    nonzero entry is positive."""
    g = gcd(*res.values())
    if res[min(res)] < 0:
        g = -g
    return res if g == 1 else {k: x // g for k, x in res.items()}


class SlotProgram:
    """The linear forms the DFS evaluates, compiled once per sublattice.

    Every t1/t2 rule target and both halves (yU, yV) of every type-four
    entry is a torsion constant tau plus an integer combination of the
    images y_1..y_r; each of them is a slot.  Slots are ordered by the level
    that reads them, deepest level first, and built in one pass over levels
    r..1: the slots made before level l are exactly those read after it, so
    the level's carry and its reads' coefficients on y_(l-1) are taken off
    them before its own slots are appended.

    A node at level l holds its parent's slot values, which include
    y_1..y_(l-2), and its parent's image y_(l-1).  Its reads add the
    parent's image on the fly, and it folds that image into its live slots
    only once one of its candidates survives, so a node whose candidates
    all fail never pays for the carry.  So does the root, whose parent's
    slot values, psi(tau) for the slot constants tau, are mapped as read.

    taus: each slot's constant (a torsion element of the source), in slot order.
    levels: per level l, (kind, ruleRead, ruleCoeffs, entries, carry):
      kind        the rule kind ("t1", "t2", "t3first", "t3second");
      ruleRead    (slot, coefficient on y_(l-1)) of the slot holding
                  tau - sum(c_i y_i, i < l) for t1/t2, else None;
      ruleCoeffs  (c_l,) for t1, (c_l, c_(l+1)) for t2, () otherwise;
      entries     (kU, uPrev, uL, kV, vPrev, vL, c0u, c0v) per type-four
                  entry, one of each swapped pair: its two slots, their
                  coefficients on y_(l-1) and y_l, and its scalings c0;
      carry       the coefficient on y_(l-1) of every slot live after level l.
    Level 1 has no parent image; its coefficients on "y_0" are zero.
    """

    __slots__ = ("taus", "levels")

    def __init__(self, sub):
        taus = []
        onY = []  # per slot, its coefficients on y_0 = 0, y_1, .., y_(readLevel - 1)
        levels = []
        for level in range(len(sub.rules), 0, -1):
            carry = tuple([coeffs[level - 1] for coeffs in onY])
            rule = sub.rules[level - 1]
            ruleRead, ruleCoeffs = None, ()
            if rule[0] in ("t1", "t2"):
                taus.append(rule[1])
                onY.append((0,) + tuple(-c for c in rule[2][:level - 1]))
                ruleRead, ruleCoeffs = (len(onY) - 1, onY[-1][level - 1]), rule[2][level - 1:]
            entries = []
            seen = set()
            for entry in sub.typeFourLists[level - 1]:
                # the swapped pair's entry is the same check, because the
                # target's fundamental pairs are closed under swapping
                if entry[3:] + entry[:3] in seen:
                    continue
                seen.add(entry)
                c0u, cu, tauU, c0v, cv, tauV = entry
                taus += (tauU, tauV)
                onY += ((0,) + cu[:-1], (0,) + cv[:-1])
                entries.append((len(onY) - 2, onY[-2][level - 1], cu[-1],
                                len(onY) - 1, onY[-1][level - 1], cv[-1], c0u, c0v))
            levels.append((rule[0], ruleRead, ruleCoeffs, tuple(entries), carry))
        self.taus = tuple(taus)
        self.levels = tuple(reversed(levels))


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
    uncheckedHeads: the heads, in hexagon order, of the hexagons none of
    whose pairs the search matches on exact images, which every lift of a
    leaf shares.  A pair (u, v) is matched so when it is a t3 pair (level
    l + 1 picks y_(l+1) among the partners of y_l), when its t1 or t2 rule
    has last coefficient +-1 (the rule's slot then fixes the image of the
    dependent member, and the table lists only its partners), or when its
    type-four entry has c0u == c0v == 1 (the entry's slots are the images
    of u and v themselves).  Any lift of a leaf then sends that pair, hence
    its whole hexagon, to fundamental pairs; _Search.emit checks the rest.
    The construction keeps the matched hexagons as indices into
    pasture.hexagons, read off Pasture.pairs, and leaves out their heads.
    freeMatrix: the rows of A_F, whose columns are the generators' free
    parts.  Its factorisation per modulus, its cokernel, the lift offsets
    per target torsion and the search's slot program are built on first use
    and kept for the life of the source pasture.
    """

    __slots__ = ("generators", "rules", "typeFourLists", "counts", "freeMatrix",
                 "uncheckedHeads", "_coker", "_offsets", "_solvers", "_program")

    def __init__(self, generators, rules, typeFourLists, counts, freeMatrix, uncheckedHeads):
        self.generators = generators
        self.rules = rules
        self.typeFourLists = typeFourLists
        self.counts = counts
        self.freeMatrix = freeMatrix
        self.uncheckedHeads = uncheckedHeads
        self._coker = None
        self._offsets = {}
        self._solvers = {}
        self._program = None

    def offsets(self, invariants):
        """How two lifts of the same generator images into the torsion
        Z/invariants may differ: the matrix of h after proj for every h in
        Hom(coker(A_F), Z/invariants), in homFinite order, where proj is the
        projection onto coker(A_F), finite because A_F has full rank.  The
        cokernel reduces a list copy of A_F's rows."""
        offsets = self._offsets.get(invariants)
        if offsets is None:
            pres, proj = self._coker = self._coker or cokernelPresentation(
                [list(row) for row in self.freeMatrix])
            if pres.freeRank:
                raise ValueError("sublattice free parts must have full rank")
            offsets = self._offsets[invariants] = tuple(
                h.compose(proj).matrix for h in homFinite(pres, GroupPresentation(invariants, 0)))
        return offsets

    def solver(self, n):
        """The system x @ A_F == B modulo n (n == 0: over Z), factored once."""
        solver = self._solvers.get(n)
        if solver is None:
            solver = self._solvers[n] = ModularSolver(self.freeMatrix, n)
        return solver

    def program(self):
        """The search's SlotProgram."""
        if self._program is None:
            self._program = SlotProgram(self)
        return self._program


def fullRankSublattice(pasture):
    """Choose free-rank many fundamental generators and record the forcing data.

    Scan order is fixed: hexagons in canonical order, pairs in closure order,
    both orientations.  Preference per round: the first pair in scan order
    whose first member is already dependent (type 1), else the first
    independent pair whose residuals are proportional (type 2, the first
    member is added), else the first pair spanning two new directions (type
    3, both members added).

    One routine, eliminate, reduces a free part f against the echelon rows,
    kept pairwise clean (each is zero at every other row's pivot column), to
    the jointly primitive (c0, coeffs, res) with c0 > 0 and
    res == c0 * f - sum(coeffs[i] * freePart(x_i)) zero at every pivot
    column.  A new generator's row is its res, the free part of
    c0 * x_l - sum(coeffs[i] * x_i).  A dependent element e has an empty res;
    its (c0, coeffs) and the torsion witness c0 * e - sum(coeffs[i] * x_i)
    are its dependency, the one source of rules and type-four entries.  A
    type-1 rule is u's dependency read before v is added, a type-2 rule v's
    read just after u is added; each is written
    sum(-coeffs[i] * x_i) + c0 * e = tau and negated when its first nonzero
    coefficient is negative, as the primitive relation among independent
    x_i and e is unique up to sign.

    Each piece of work is done once per free direction.  The elements of a
    hexagon come in inverse pairs x and -x, whose free parts differ in sign
    only, so one _Direction per free part up to sign keeps the residual,
    reduced against each new echelon row; when it empties, every member is
    dependent.  A direction's dependency is computed when first read and
    kept; a member whose free part is negated takes (c0, -coeffs).  The
    witness's free part depends on the direction alone and is checked to be
    zero once, recomputed from the generators' own free parts; each member's
    torsion coordinates are c0 times its own less sign times the direction's
    sum(coeffs[i] * torsion(x_i)), so an inverse -e has the witness -tau.
    Type-1 candidates are the pair indices collected as their first members
    become dependent; pairs become type-four entries when their last member
    becomes dependent, found through each direction's pair indices, and
    each direction's coefficients are padded once per level.  Every vector
    kept here is a sparse dict.

    The hexagon of each t3 pair, of each t1 or t2 pair whose rule has
    c0 == 1 and of each type-four pair with c0u == c0v == 1 is recorded by
    its index (Pasture.pairs) as the pair is used; the hexagons not recorded
    give uncheckedHeads.

    The span check runs on each hexagon's head pair, epsilon and the
    relation columns: every other fundamental element is -x, -y, e + y - x
    or e + x - y for a head (x, y) (pasture.closureTriple), so these span
    the same lattice as all of them.
    """
    group = pasture.group
    r = group.freeRank
    invariants = group.invariants
    t = len(invariants)
    spanCols = [x for h in pasture.hexagons for x in h[0]]
    spanCols.append(pasture.epsilon)
    spanCols.extend(group.relationColumns())
    if not spansLattice(spanCols, group.dim):
        raise NotGeneratedByFundamentalElements(
            "%s is not generated by its fundamental elements and epsilon"
            % (pasture.name or "pasture",))

    pairs = tuple(pasture.pairs)
    hexagonOf = tuple(pasture.pairs.values())
    records = {}
    directions = {}  # free part -> (direction, sign of the free part against it)
    allDirections = []
    pairRecords = []  # the records of each pair's two members
    for k, pair in enumerate(pairs):
        both = []
        for e in pair:
            rec = records.get(e)
            if rec is None:
                free = e[t:]
                found = directions.get(free)
                if found is None:
                    d = _Direction(free)
                    allDirections.append(d)
                    directions[tuple([-x for x in free])] = (d, -1)
                    found = directions[free] = (d, 1)
                rec = records[e] = _Record(e, *found)
            both.append(rec)
        ru, rv = both
        du, dv = ru.direction, rv.direction
        du.firsts.append(k)
        du.pairs.append(k)
        if dv is not du:
            dv.pairs.append(k)
        pairRecords.append((ru, rv))
    independent = [d for d in allDirections if d.res is not None]
    bothIndependent = [k for k, (ru, rv) in enumerate(pairRecords)
                       if ru.direction.res is not None and rv.direction.res is not None]
    firstDependent = []  # pairs whose first member is dependent, the second maybe not
    newlyDependent = []  # directions dependent since the last type-four round
    rows = {}  # pivot column -> echelon row, in insertion order
    generators = []
    generatorTerms = []  # the nonzero (free column, entry) of each generator
    rules = []
    typeFourLists = []
    counts = {"p1": 0, "p2": 0, "p3": 0, "p4": 0}
    consumed = set()  # the record pairs of the pairs used for rules
    covered = set()  # the hexagons of the pairs the search matches on exact images
    zeros = (0,) * r

    def becameDependent(d):
        newlyDependent.append(d)
        for k in d.firsts:
            firstDependent.append(k)

    for d in allDirections:
        if d.res is None:
            becameDependent(d)

    def eliminate(terms):
        """(c0, coeffs, res) for the free part with these nonzero terms;
        coeffs and res are sparse ({index: nonzero})."""
        hits = [(rows[k], a) for k, a in terms if k in rows]
        c0 = 1
        for row, a in hits:
            p = row.vec[row.pivot]
            c0 = lcm(c0, p // gcd(p, a))
        coeffs = {}
        res = {k: c0 * x for k, x in terms}
        for row, a in hits:
            q = c0 * a // row.vec[row.pivot]
            for i, c in row.combo.items():
                coeffs[i] = coeffs.get(i, 0) + q * c
            for k, x in row.vec.items():
                res[k] = res.get(k, 0) - q * x
        g = gcd(c0, *coeffs.values(), *res.values())
        return (c0 // g, {i: c // g for i, c in coeffs.items() if c},
                {k: x // g for k, x in res.items() if x})

    def addGenerator(x):
        generators.append(group.reduce(x))
        terms = [(k, y) for k, y in enumerate(group.freePart(x)) if y]
        generatorTerms.append(terms)
        c0, coeffs, vec = eliminate(terms)
        if not vec:
            raise RuntimeError("sublattice generator does not increase the rank")
        combo = {i: -c for i, c in coeffs.items()}
        combo[len(generators) - 1] = c0
        new = _Row(vec, combo)
        p = vec[new.pivot]
        # keep rows pairwise clean: zero the new pivot column in old rows
        for row in rows.values():
            a = row.vec.get(new.pivot)
            if a:
                row.vec = _combination(p, row.vec, a, vec.items())
                row.combo = _combination(p, row.combo, a, combo.items())
        rows[new.pivot] = new
        still = []
        for d in independent:
            res = d.res
            a = res.get(new.pivot)
            if a:
                res = _combination(p, res, a, vec.items())
                if not res:
                    d.res = None
                    becameDependent(d)
                    continue
                d.res = _primitive(res)
            still.append(d)
        independent[:] = still

    def dependency(rec, level):
        """(c0, coeffs padded to level, witness) of a dependent element."""
        d = rec.direction
        if d.dependency is None:
            c0, coeffs, _ = eliminate(d.terms)
            free = {k: c0 * x for k, x in d.terms}
            torsion = [0] * t
            for i, c in coeffs.items():
                for k, y in generatorTerms[i]:
                    free[k] = free.get(k, 0) - c * y
                torsion = [s + c * y for s, y in zip(torsion, generators[i])]
            if any(free.values()):
                raise RuntimeError("sublattice witness has a nonzero free part")
            d.dependency = (c0, coeffs, torsion)
        c0, coeffs, torsion = d.dependency
        if rec.witness is None:
            rec.witness = tuple([(c0 * x - rec.sign * s) % a for x, s, a
                                 in zip(rec.element, torsion, invariants)]) + zeros
        padded = d.padded
        if padded is None or padded[0] != level:
            plus = [0] * level
            for i, c in coeffs.items():
                plus[i] = c
            padded = d.padded = (level, tuple(plus), tuple([-c for c in plus]))
        return c0, padded[1] if rec.sign > 0 else padded[2], rec.witness

    def recordNewTypeFour():
        level = len(generators)
        touched = sorted({k for d in newlyDependent for k in d.pairs})
        newlyDependent.clear()
        bucket = []
        for k in touched:
            ru, rv = both = pairRecords[k]
            if (ru.direction.res is not None or rv.direction.res is not None
                    or both in consumed):
                continue
            entry = dependency(ru, level) + dependency(rv, level)
            if entry[0] == entry[3] == 1:
                covered.add(hexagonOf[k])
            bucket.append(entry)
        counts["p4"] += len(bucket)
        typeFourLists.append(bucket)

    def consume(k):
        ru, rv = pairRecords[k]
        consumed.add((ru, rv))
        consumed.add((rv, ru))

    while len(generators) < r:
        t1 = t2 = t3 = None
        # a pair whose members are both dependent is never type 1 again
        firstDependent = [k for k in firstDependent if pairRecords[k][1].direction.res is not None]
        if firstDependent:
            t1 = min(firstDependent)
        else:
            bothIndependent = [k for k in bothIndependent
                               if pairRecords[k][0].direction.res is not None
                               and pairRecords[k][1].direction.res is not None]
            for k in bothIndependent:
                ru, rv = pairRecords[k]
                # the residuals, not the directions: two directions may differ
                # by a factor, as f and 2f do
                if ru.direction.res == rv.direction.res:
                    t2 = k
                    break  # no type-1 pair exists, so the first type-2 pair is final
                if t3 is None:
                    t3 = k
        if t1 is not None:
            k, kind, count = t1, "t1", "p1"
            c0, coeffs, tau = dependency(pairRecords[k][0], len(generators))
            addGenerator(pairs[k][1])
        elif t2 is not None:
            k, kind, count = t2, "t2", "p2"
            addGenerator(pairs[k][0])
            c0, coeffs, tau = dependency(pairRecords[k][1], len(generators))
        elif t3 is not None:
            u, v = pairs[t3]
            addGenerator(u)
            rules.append(("t3first",))
            consume(t3)
            covered.add(hexagonOf[t3])
            counts["p3"] += 1
            typeFourLists.append([])
            addGenerator(v)
            rules.append(("t3second",))
            recordNewTypeFour()
            continue
        else:
            raise NotGeneratedByFundamentalElements(
                "no usable fundamental pair found; the free part is not spanned")
        ruleCoeffs = tuple(-c for c in coeffs) + (c0,)
        if next(c for c in ruleCoeffs if c) < 0:
            ruleCoeffs = tuple(-c for c in ruleCoeffs)
            tau = group.neg(tau)
        rules.append((kind, tau, ruleCoeffs))
        consume(k)
        if c0 == 1:
            covered.add(hexagonOf[k])
        counts[count] += 1
        recordNewTypeFour()
    freeMatrix = tuple(zip(*[group.freePart(x) for x in generators]))
    uncheckedHeads = tuple(h[0] for i, h in enumerate(pasture.hexagons) if i not in covered)
    return SublatticeData(tuple(generators), tuple(rules), tuple(typeFourLists), counts,
                          freeMatrix, uncheckedHeads)


def _memo(pasture, key, build, *args):
    """What the search keeps on pasture under key, a tuple led by the entry's
    kind: found in its search slot, a dict made on first use, else built by
    build(pasture, *args), stored and returned, so a lookup that finds its
    entry builds nothing.  No other code reads or fills the slot.  A build
    that raises stores nothing.  Each target table's build reports it to the
    field cache (pasture.tableBuilt); a source's sublattice weighs nothing."""
    memo = pasture.search
    if memo is None:
        memo = pasture.search = {}
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(pasture, *args)
    return value


def sublatticeOf(pasture):
    """fullRankSublattice(pasture), kept under ("sublattice",) (_memo)."""
    return _memo(pasture, ("sublattice",), fullRankSublattice)


def ruleCandidates(pasture, coeffs):
    """The search's candidate table for a sublattice rule with these
    coefficients, keyed by the value of the rule's slot and kept under
    ("rules", coeffs) (_memo).  One coefficient c: c * x -> the partners of
    every such x, in Pasture.partners order.  Two (c, d): c * x + d * y ->
    the first member x of every such fundamental pair, in Pasture.pairs
    order."""
    return _memo(pasture, ("rules", coeffs), _ruleTable, coeffs)


def _ruleTable(pasture, coeffs):
    g, table = pasture.group, {}
    if len(coeffs) == 1:
        c, = coeffs
        for x, ys in pasture.partners.items():
            table.setdefault(g.scale(c, x), {}).update(dict.fromkeys(ys))
    else:
        c, d = coeffs
        for x, y in pasture.pairs:
            table.setdefault(g.add(g.scale(c, x), g.scale(d, y)), {})[x] = None
    return tableBuilt(pasture, {k: tuple(v) for k, v in table.items()})


def scaledPairs(pasture, c, d):
    """The fundamental pairs (x, y) scaled to (c * x, d * y), each flattened
    into one tuple, as a set kept under ("scaled", (c, d)) (_memo)."""
    return _memo(pasture, ("scaled", (c, d)), _scaledPairSet, c, d)


def _scaledPairSet(pasture, c, d):
    g = pasture.group
    return tableBuilt(pasture, frozenset(g.scale(c, x) + g.scale(d, y) for x, y in pasture.pairs))


def torsionHoms(p1, p2, isoOnly=False):
    """Torsion-block candidates: homs of the torsion parts fixing epsilon, in
    homFinite order, kept in the target under ("torsion", the source's torsion
    invariants, the torsion part of its epsilon, isoOnly) (_memo).  Refused,
    keeping and weighing nothing, before any is listed when there are more
    than MAX_TORSION_HOMS."""
    t = p1.group.invariants
    return _memo(p2, ("torsion", t, p1.epsilon[:len(t)], isoOnly), _torsionTable, p1, isoOnly)


def _torsionTable(p2, p1, isoOnly):
    t1, t2 = (GroupPresentation(p.group.invariants, 0) for p in (p1, p2))
    if prod(gcd(a, b) for a in t1.invariants for b in t2.invariants) > MAX_TORSION_HOMS:
        raise TooManyTorsionHoms(
            "more than %d homomorphisms between the torsion parts of %s and %s"
            % (MAX_TORSION_HOMS, p1.name or "the source", p2.name or "the target"))
    e1, e2 = p1.epsilon[:t1.dim], p2.epsilon[:t2.dim]
    return tableBuilt(p2, tuple(h for h in homFinite(t1, t2)
                                if h.apply(e1) == e2 and (not isoOnly or h.isSurjective())))


class SearchStats:
    """Counters exposed for the candidate-budget guarantees."""

    __slots__ = ("torsionHoms", "leafCandidates", "assembled", "valid")

    def __init__(self):
        self.torsionHoms = self.leafCandidates = self.assembled = self.valid = 0

    def asDict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def _freeRankIncreases(echelon, vec):
    """Integer echelon rank test on sparse rows ({column: nonzero}, keyed by
    their pivot); returns the extended echelon or None."""
    work = {k: x for k, x in enumerate(vec) if x}
    for pivot, row in echelon.items():
        a = work.get(pivot)
        if a:
            work = _combination(row[pivot], work, a, row.items())
    if not work:
        return None
    return {**echelon, min(work): _primitive(work)}


def assemble(p1, p2, sub, psiRows, psiImages, images, stats):
    """The matrix rows of every hom of the unit groups that extends the
    torsion block psi and sends the sublattice generators to images, in
    lift order.

    psiRows are psi's matrix rows and psiImages psi's images of the
    generators' torsion parts.  The free block is the unique rational
    solution of C_F * A_F = B_F, kept only when integral.  Each torsion row
    is one particular solution modulo its invariant, translated by each of
    sub.offsets(invariants) in turn.  A_F depends only on the sublattice and
    the offsets only on it and the target torsion, so a leaf pays only for
    its solves and its rows, which are a canonical matrix as built: torsion
    rows reduced mod their invariant, then the free rows.
    """
    g1, g2 = p1.group, p2.group
    invariants = g2.invariants
    n1, n2 = len(g1.invariants), len(invariants)
    freeRows = ()
    for i in range(n2, g2.dim):
        x = sub.solver(0).solve([y[i] for y in images])
        if x is None:
            return []
        freeRows += ((0,) * n1 + x,)
    particular = []
    for i, b in enumerate(invariants):
        x = sub.solver(b).solve([y[i] - m[i] for y, m in zip(images, psiImages)])
        if x is None:
            return []
        particular.append(x)
    out = []
    for offset in sub.offsets(invariants):
        stats.assembled += 1
        out.append(tuple([row + tuple([(s + t) % b for s, t in zip(x, off)])
                          for row, x, off, b in zip(psiRows, particular, offset, invariants)])
                   + freeRows)
    return out


class _Constants(dict):
    """Coordinate i of psi(tau) over the slot constants tau, the root's parent slot
    values: each mapped when first read; all, as columns maps them, when iterated."""

    __slots__ = ("image", "taus", "columns", "i")

    def __init__(self, image, taus, columns, i):
        self.image, self.taus, self.columns, self.i = image, taus, columns, i

    def __missing__(self, k):
        return self.setdefault(k, self.image(self.taus[k])[self.i])

    def __iter__(self):
        return iter(self.columns()[self.i])


class _Search:
    """One search's levels and its depth-first walk over them.

    The target group is kept coordinate-major: slot values are one list of
    ints per target coordinate, torsion coordinates reduced mod a_i and free
    ones unreduced (modulus 0 below), and images are coordinate tuples.
    Candidates come from the target's partner table and, for every t1/t2
    rule, from its table of the candidates of each value of the rule's slot
    (ruleCandidates).  A type-four entry looks its pair (yU, yV), flattened
    into one tuple, up in the target's fundamental pairs scaled by
    (c0u, c0v) (scaledPairs).  The kept maps are collected in found, or
    only counted when found is None.

    Nothing is looked up before the walk needs it: a level's slot [kind,
    ruleRead, rule table, checks, carry] is filled on first entry, its checks
    (None until then) once a node there has a candidate; psi's images wait.
    """

    __slots__ = ("p1", "p2", "sub", "findOne", "findIso", "stats", "found", "mods", "freeStart",
                 "partners", "pairs", "heads", "levels", "images", "psi", "image", "psiImages")

    def __init__(self, p1, p2, sub, findOne, findIso, stats, keep):
        self.p1, self.p2, self.sub = p1, p2, sub
        self.findOne, self.findIso, self.stats = findOne, findIso, stats
        self.found = [] if keep else None
        g2 = p2.group
        self.mods = g2.invariants + (0,) * g2.freeRank
        self.freeStart = len(g2.invariants)
        self.partners, self.pairs = p2.partners, p2.pairs
        self.heads = sub.uncheckedHeads
        self.levels = [None] * len(sub.rules)

    def run(self, psi):
        """Search below one torsion block; True when findOne has its answer."""
        self.images = []
        self.psi, self.psiImages = psi, None
        n1, free, d = psi.source.dim, (0,) * self.p2.group.freeRank, len(self.mods)
        image = self.image = cache(lambda x: psi.apply(x[:n1]) + free)
        taus = self.sub.program().taus
        columns = cache(lambda: list(zip(*map(image, taus))))
        above = [_Constants(image, taus, columns, i) for i in range(d)]
        return self.descend(1, above, (0,) * d, {})

    def descend(self, level, above, parent, echelon):
        """Visit a node: above holds the parent's slot values, parent its image."""
        if level > len(self.levels):
            self.stats.leafCandidates += 1
            if self.psiImages is None:
                self.psiImages = list(map(self.image, self.sub.generators))
            for rows in assemble(self.p1, self.p2, self.sub, self.psi.matrix, self.psiImages,
                                 self.images, self.stats):
                if self.emit(rows):
                    return True
            return False
        slot = self.levels[level - 1]
        if slot is None:
            kind, ruleRead, coeffs, _, carry = self.sub.program().levels[level - 1]
            slot = self.levels[level - 1] = [
                kind, ruleRead, ruleCandidates(self.p2, coeffs) if coeffs else None, None, carry]
        kind, ruleRead, table, checks, carry = slot
        mods = self.mods
        if table is not None:
            k, c = ruleRead
            value = tuple([(row[k] + c * p) % m if m else row[k] + c * p
                           for row, p, m in zip(above, parent, mods)])
            candidates = table.get(value, ())
        elif kind == "t3first":
            candidates = self.partners
        else:
            candidates = self.partners[parent]
        if checks is None and candidates:
            checks = slot[3] = tuple(
                (((kU, uPrev, uL), (kV, vPrev, vL)), scaledPairs(self.p2, c0u, c0v)) for
                kU, uPrev, uL, kV, vPrev, vL, c0u, c0v in self.sub.program().levels[level - 1][3])
        rows = None
        findIso, images = self.findIso, self.images
        for y in candidates:
            if findIso:
                grown = _freeRankIncreases(echelon, y[self.freeStart:])
                if grown is None:
                    continue
            else:
                grown = echelon
            if checks:
                coords = tuple(zip(above, parent, y, mods))
            for halves, pairs in checks:
                # (yU, yV) as one tuple: yU's coordinates, then yV's
                key = tuple([(row[k] + a * p + b * t) % m if m else row[k] + a * p + b * t
                             for k, a, b in halves for row, p, t, m in coords])
                if key not in pairs:
                    break
            else:
                if rows is None:
                    rows = [[(s + c * p) % m for s, c in zip(row, carry)] if m
                            else [s + c * p for s, c in zip(row, carry)]
                            for row, p, m in zip(above, parent, mods)]
                images.append(y)
                if self.descend(level + 1, rows, y, grown):
                    return True
                images.pop()
        return False

    def emit(self, rows):
        """Keep the lift with these matrix rows when it is a morphism; True
        when findOne has its answer.

        Of isMorphism's checks only the hexagon heads can fail on a lift:
        epsilon is kept, as both epsilons are 2-torsion (free coordinates 0)
        and psi(eps1) == eps2 (torsionHoms), and the lift is well-defined,
        as each torsion column is one of psi (a homFinite hom) over zeros.
        searchMorphisms checked the other shapes an isomorphism needs.  Of
        the heads, only those of sub.uncheckedHeads can fail: every other
        hexagon has a pair that the search matched to a target pair on
        images all of the leaf's lifts share, and a hom keeping epsilon
        that sends one pair of a closure class to a fundamental pair sends
        the whole class to its closure.  The heads are mapped by dot
        products with the rows, torsion coordinates reduced mod their
        invariant; only a lift that passes becomes a GroupHom, whose matrix
        is the rows as they are, already canonical as PastureMorphism
        expects.
        """
        mods, pairs = self.mods, self.pairs
        for x, y in self.heads:
            if (tuple([sum(map(mul, row, x)) % m if m else sum(map(mul, row, x))
                       for row, m in zip(rows, mods)]),
                    tuple([sum(map(mul, row, y)) % m if m else sum(map(mul, row, y))
                           for row, m in zip(rows, mods)])) not in pairs:
                return False
        found = self.found
        if found is not None:  # a counting search never restricts to isomorphisms
            hom = GroupHom(self.p1.group, self.p2.group, rows)
            if self.findIso and not hom.isSurjective():
                return False
            if len(found) == MAX_MORPHISMS:
                raise TooManyMorphisms(
                    "more than %d morphisms from %s to %s; a listing keeps at most that many"
                    % (MAX_MORPHISMS, self.p1.name or "the source", self.p2.name or "the target"))
            found.append(PastureMorphism(self.p1, self.p2, hom))
        self.stats.valid += 1
        return self.findOne


def _search(p1, p2, findOne, findIso, stats, keep):
    """The kept maps (None when not keeping) of a search with these flags."""
    sub = sublatticeOf(p1)
    if findIso and not _sameShape(p1, p2):
        return []
    psis = torsionHoms(p1, p2, isoOnly=findIso)
    stats.torsionHoms = len(psis)
    search = _Search(p1, p2, sub, findOne, findIso, stats, keep)
    for psi in psis:
        if search.run(psi):
            break
    return search.found


def searchMorphisms(p1, p2, findOne=False, findIso=False, stats=None):
    """All pasture morphisms from p1 to p2, canonically sorted.

    For each torsion block psi, a depth-first search picks the image of one
    sublattice generator per level, carrying the values of the sublattice's
    SlotProgram down the tree.  Rule candidates come from the target's
    partner table and its t1 and t2 tables (ruleCandidates).
    Type-four entries are checked in order and stop at the first that fails;
    each costs a multiply-add per coordinate and half and one lookup in the
    target's scaled pairs.  A leaf's lifts are kept when they send each
    source hexagon head to a fundamental pair, which the leaf checks only
    for the heads the search left open (SublatticeData.uncheckedHeads); the
    rest of isMorphism holds by construction.

    findOne stops at the first valid morphism in search order.  findIso
    restricts to isomorphisms: torsion blocks must be bijective, candidate
    free parts must grow the rank, and assembled maps must be invertible.
    Raises NotGeneratedByFundamentalElements when the source premise fails,
    and TooManyMorphisms as soon as more than MAX_MORPHISMS are found.
    """
    found = _search(p1, p2, findOne, findIso, stats or SearchStats(), True)
    # distinct leaves fix distinct images and distinct offsets give distinct
    # lifts, so no map is found twice; findOne stops at its first
    return sorted(found, key=PastureMorphism.sortKey)


def countMorphisms(p1, p2, stats=None):
    """How many morphisms searchMorphisms(p1, p2) lists, by the same search
    keeping none of them, so no ceiling applies."""
    stats = stats or SearchStats()
    _search(p1, p2, False, False, stats, False)
    return stats.valid
