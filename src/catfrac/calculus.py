"""Decision procedures on three-arrow grids.

The equality criterion, the ladder flip and the mixed-composite
criterion all ask for the same kind of certificate: a 4x4 commutative
grid whose outer rows are the two given three-arrows, whose outer columns
are fixed column three-arrows, and whose middle rows/columns have to be
found.  ``find_bridge`` performs that search once, endpoint-pruned and in
index order (first witness wins), and the three public operations
instantiate it.

Grid conventions (rows top to bottom, columns left to right; all
composition diagrammatic):

    row1:  A0 <=b1= A1 -f1-> A2 <=a1= A3          (given)
    row2:  L1 <=bm1= M1 -fm1-> M2 <=am1= R1       (searched)
    row3:  L3 <=bm2= N1 -fm2-> N2 <=am2= R3       (searched)
    row4:  B0 <=b2= B1 -f2-> B2 <=a2= B3          (given)

    left column  (pL: L1->A0 in T, gL: L1->L3, iL: B0->L3 in S)   (given)
    right column (pR: R1->A3 in T, gR: R1->R3, iR: B3->R3 in S)   (given)
    middle columns (searched, normal):
      col2: pm1: M1->A1 in T, gm1: M1->N1, im1: B1->N1 in S
      col3: pm2: M2->A2 in T, gm2: M2->N2, im2: B2->N2 in S

The nine commuting squares:

    E1 comp(pm1, b1) == comp(bm1, pL)    E2 comp(pm1, f1) == comp(fm1, pm2)
    E3 comp(pR, a1) == comp(am1, pm2)    E4 comp(bm1, gL) == comp(gm1, bm2)
    E5 comp(gm1, fm2) == comp(fm1, gm2)  E6 comp(am1, gm2) == comp(gR, am2)
    E7 comp(b2, iL) == comp(im1, bm2)    E8 comp(im1, fm2) == comp(f2, im2)
    E9 comp(iR, am2) == comp(a2, im2)

With identity outer columns, as in the equality criterion, each band of
the grid is a *three-arrow morphism* m -> t with column (c1, c2):

    m.b == c1;t.b    c1;t.f == m.f;c2    m.a;c2 == t.a

The top band is row2 -> row1 with column (pm1, pm2) in T x T (E1-E3),
the middle band row2 -> row3 with (gm1, gm2) in D x D (E4-E6) and the
bottom band row4 -> row3 with (im1, im2) in S x S (E7-E9).  With

    Top[t1] = {m1 : m1 ->_T t1}
    Mid[m1] = {m2 : m1 ->_D m2}
    Bot[t2] = {m2 : t2 ->_S m2}

over the three-arrows of the (source, target) block, a grid exists
exactly when some m1 in Top[t1] has Mid[m1] meeting Bot[t2]: an acyclic
chain of three relations, decided by semi-joins of bitset rows instead
of the 12-deep search.  ``equal_by_3x3`` decides that way and runs
``find_bridge`` only to spell out the witness of a positive verdict.
With BotIn[m2] = {t2 : t2 ->_S m2}, the transpose of Bot, every t2 with
a grid from t1 is one verdict row: the union of BotIn over the union of
Mid over Top[t1].  The theorem suite reads whole rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import DomainError, FinCategory, InvariantError
from .denominators import DenominatorData, factorisations, require_uni_fractionable
from .three_arrows import (
    ThreeArrow,
    block_arrows,
    check_normal,
    check_three_arrow,
    identity_arrow,
    is_normal,
    rank_tables,
    source_of,
    target_of,
)


@dataclass(frozen=True)
class BridgeWitness:
    """Middle rows and middle (normal) columns of a completed grid."""

    top: ThreeArrow
    mid1: ThreeArrow
    mid2: ThreeArrow
    bottom: ThreeArrow
    left: ThreeArrow
    right: ThreeArrow
    col1: ThreeArrow
    col2: ThreeArrow

    def validate(self, dd: DenominatorData) -> None:
        """Re-derive every equation and membership; raises on any defect."""
        cat = dd.base
        for t in (self.top, self.mid1, self.mid2, self.bottom, self.left,
                  self.right, self.col1, self.col2):
            check_three_arrow(dd, t)
        for col in (self.left, self.right, self.col1, self.col2):
            if not is_normal(dd, col):
                raise DomainError("column three-arrow is not normal")
        t1, m1, m2, t2 = self.top, self.mid1, self.mid2, self.bottom
        (pL, gL, iL) = (self.left.b, self.left.f, self.left.a)
        (pR, gR, iR) = (self.right.b, self.right.f, self.right.a)
        (pm1, gm1, im1) = (self.col1.b, self.col1.f, self.col1.a)
        (pm2, gm2, im2) = (self.col2.b, self.col2.f, self.col2.a)
        eqs = [
            (cat.icomp[(pm1, t1.b)], cat.icomp[(m1.b, pL)]),
            (cat.icomp[(pm1, t1.f)], cat.icomp[(m1.f, pm2)]),
            (cat.icomp[(pR, t1.a)], cat.icomp[(m1.a, pm2)]),
            (cat.icomp[(m1.b, gL)], cat.icomp[(gm1, m2.b)]),
            (cat.icomp[(gm1, m2.f)], cat.icomp[(m1.f, gm2)]),
            (cat.icomp[(m1.a, gm2)], cat.icomp[(gR, m2.a)]),
            (cat.icomp[(t2.b, iL)], cat.icomp[(im1, m2.b)]),
            (cat.icomp[(im1, m2.f)], cat.icomp[(t2.f, im2)]),
            (cat.icomp[(iR, m2.a)], cat.icomp[(t2.a, im2)]),
        ]
        for k, (lhs, rhs) in enumerate(eqs, start=1):
            if lhs != rhs:
                raise DomainError(f"grid square E{k} does not commute")

    def ids(self, dd: DenominatorData) -> str:
        rows = [self.top, self.mid1, self.mid2, self.bottom]
        cols = [self.left, self.col1, self.col2, self.right]
        return "rows " + " | ".join(t.ids(dd) for t in rows) + \
            " cols " + " | ".join(t.ids(dd) for t in cols)


def find_bridge(
    dd: DenominatorData,
    t1: ThreeArrow,
    t2: ThreeArrow,
    left: ThreeArrow,
    right: ThreeArrow,
    middles_in_D: bool = False,
    rows_normal: bool = False,
) -> BridgeWitness | None:
    """First grid completion in index order, or None when the space is empty.

    ``middles_in_D`` restricts the middle columns to denominator middles;
    ``rows_normal`` restricts the two middle rows to normal three-arrows.
    """
    cat = dd.base
    left_sol, right_sol = cat.solution_maps()
    den, s_set, t_set = dd.iden, dd.is_, dd.it
    A1, A2 = cat.isrc[t1.f], cat.itgt[t1.f]
    B1, B2 = cat.isrc[t2.f], cat.itgt[t2.f]
    pL, gL, iL = left.b, left.f, left.a
    pR, gR, iR = right.b, right.f, right.a
    w1 = cat.icomp[(t2.b, iL)]
    w3 = cat.icomp[(pR, t1.a)]

    # the endpoint scans read the S/T buckets and every solution-map hit
    # already has the right endpoints; only membership filters remain
    left_pL, right_iR = left_sol[pL], right_sol[iR]
    for pm1 in dd.t_by_tgt[A1]:
        lhs1 = cat.icomp[(pm1, t1.b)]
        w2 = cat.icomp[(pm1, t1.f)]
        for bm1 in left_pL.get(lhs1, ()):
            if bm1 not in den or (rows_normal and bm1 not in t_set):
                continue
            w4 = cat.icomp[(bm1, gL)]
            for im1 in dd.s_by_src[B1]:
                for bm2 in right_sol[im1].get(w1, ()):
                    if bm2 not in den or (rows_normal and bm2 not in t_set):
                        continue
                    for gm1 in left_sol[bm2].get(w4, ()):
                        if middles_in_D and gm1 not in den:
                            continue
                        right_gm1 = right_sol[gm1]
                        for pm2 in dd.t_by_tgt[A2]:
                            left_pm2 = left_sol[pm2]
                            for am1 in left_pm2.get(w3, ()):
                                if am1 not in den or (
                                    rows_normal and am1 not in s_set
                                ):
                                    continue
                                right_am1 = right_sol[am1]
                                for fm1 in left_pm2.get(w2, ()):
                                    for im2 in dd.s_by_src[B2]:
                                        w9 = cat.icomp[(t2.a, im2)]
                                        w8 = cat.icomp[(t2.f, im2)]
                                        for am2 in right_iR.get(w9, ()):
                                            if am2 not in den or (
                                                rows_normal and am2 not in s_set
                                            ):
                                                continue
                                            w6 = cat.icomp[(gR, am2)]
                                            for gm2 in right_am1.get(w6, ()):
                                                if middles_in_D and gm2 not in den:
                                                    continue
                                                w5 = cat.icomp[(fm1, gm2)]
                                                for fm2 in right_gm1.get(w5, ()):
                                                    if (
                                                        cat.icomp.get((im1, fm2))
                                                        != w8
                                                    ):
                                                        continue
                                                    return BridgeWitness(
                                                        t1,
                                                        ThreeArrow(bm1, fm1, am1),
                                                        ThreeArrow(bm2, fm2, am2),
                                                        t2,
                                                        left,
                                                        right,
                                                        ThreeArrow(pm1, gm1, im1),
                                                        ThreeArrow(pm2, gm2, im2),
                                                    )
    return None


@dataclass(frozen=True)
class ThreeByThreeWitness:
    """Equality certificate: identity outer columns, denominator middles."""

    bridge: BridgeWitness

    def validate(self, dd: DenominatorData) -> None:
        self.bridge.validate(dd)
        if (
            self.bridge.col1.f not in dd.iden
            or self.bridge.col2.f not in dd.iden
        ):
            raise DomainError("middle verticals must have denominator middles")
        for t in (self.bridge.left, self.bridge.right):
            if not all(map(dd.base.is_identity, t)):
                raise DomainError("outer columns must be identities")

    def ids(self, dd: DenominatorData) -> str:
        return self.bridge.ids(dd)


def _into_row(cat: FinCategory, den, ranks, into, t: tuple) -> int:
    """Bitset of the block members m with a three-arrow morphism m -> t
    whose column (c1, c2) is drawn from a pool C of morphisms:

        m.b == c1;t.b    c1;t.f == m.f;c2    m.a;c2 == t.a

    ``into[x]`` lists the members of C with target x in index order, and
    ``ranks`` holds the block's prefix tables (first, middle, last) over
    ``cat``: m sits at first[m.b] + middle[m.f] + last[m.a].  Over the
    opposite category, with each tuple and the tables reversed and C
    bucketed by source, the same sweep gives the out-row {m : t -> m}.
    """
    b, f, a = t
    comp = cat.icomp
    left_sol = cat.solution_maps()[0]
    first, middle, last = ranks
    heads = [
        (first[comp[(c1, b)]], comp[(c1, f)])
        for c1 in into[cat.isrc[b]]
        if comp[(c1, b)] in den
    ]
    row = 0
    for c2 in into[cat.itgt[f]]:
        left_c2 = left_sol[c2]
        tails = [last[ma] for ma in left_c2.get(a, ()) if ma in den]
        if not tails:
            continue
        for head, w in heads:
            for mf in left_c2.get(w, ()):
                start = head + middle[mf]
                for tail in tails:
                    row |= 1 << (start + tail)
    return row


class GridRelations:
    """Top, Mid, Bot and BotIn (module docstring) over one (source,
    target) block.

    The block comes from :func:`block_arrows`, which reads composition
    and membership in D alone, in index order, and never the fraction
    partition; :func:`rank_tables` place its members, and ``index`` maps
    each to its position.  Each row is an ``int`` bitset over the
    positions; ``top(k)``, ``mid(k)``, ``bot(k)`` and ``bot_in(k)`` build
    row k on first use and keep it.
    """

    def __init__(self, dd: DenominatorData, source: int, target: int):
        cat, den = dd.base, dd.iden
        arrows = block_arrows(dd, (source, target))
        self.index = {t: k for k, t in enumerate(arrows)}
        ranks = rank_tables(dd, (source, target))
        op, op_ranks = cat.opposite(), ranks[::-1]
        self.normal = 0
        for k, (b, _, a) in enumerate(arrows):
            if b in dd.it and a in dd.is_:
                self.normal |= 1 << k
        t_by_tgt, d_by_src, s_by_src = dd.t_by_tgt, dd.d_by_src, dd.s_by_src
        s_by_tgt = [[s for s in into if s in dd.is_] for into in cat.by_tgt]
        # Top[t1] and BotIn[m2] are in-rows; the out-rows Mid[m1] and Bot[t2]
        # are in-rows of the opposite
        self.top = functools.cache(
            lambda k: _into_row(cat, den, ranks, t_by_tgt, arrows[k])
        )
        self.mid = functools.cache(
            lambda k: _into_row(op, den, op_ranks, d_by_src, arrows[k][::-1])
        )
        self.bot = functools.cache(
            lambda k: _into_row(op, den, op_ranks, s_by_src, arrows[k][::-1])
        )
        self.bot_in = functools.cache(
            lambda k: _into_row(cat, den, ranks, s_by_tgt, arrows[k])
        )
        # the union of Mid over Top[t1], by normal_middles, then by t1
        n = len(arrows)
        self._reach = ([None] * n, [None] * n)

    def reach(self, k: int, normal_middles: bool = False, stop: int = 0) -> int:
        """The union of Mid[m1] over m1 in Top[k] (the semi-join of Top and
        Mid), with only normal m1 and m2 under ``normal_middles``; kept once
        a sweep completes.  A sweep meeting ``stop`` returns what it has."""
        reached = self._reach[normal_middles]
        reach = reached[k]
        if reach is None:
            mask = self.normal if normal_middles else -1
            rest, reach = self.top(k) & mask, 0
            while rest:
                low = rest & -rest
                reach |= self.mid(low.bit_length() - 1) & mask
                if reach & stop:
                    return reach
                rest ^= low
            reached[k] = reach
        return reach

    def grid_exists(
        self, t1: ThreeArrow, t2: ThreeArrow, normal_middles: bool
    ) -> bool:
        """Whether some m1 in Top[t1] has Mid[m1] meeting Bot[t2]; with
        ``normal_middles`` both m1 and m2 must be normal.  After the first
        complete sweep for t1, every verdict on t1 is one intersection.
        """
        bot = self.bot(self.index[t2])
        return bool(self.reach(self.index[t1], normal_middles, bot) & bot)

    def verdict_row(self, k: int) -> int:
        """The positions of every t2 with a grid from position k, with any
        middle rows: the union of BotIn[m2] over m2 in reach(k)."""
        rest, row = self.reach(k), 0
        while rest:
            low = rest & -rest
            row |= self.bot_in(low.bit_length() - 1)
            rest ^= low
        return row


def grid_relations(dd: DenominatorData, source: int, target: int) -> GridRelations:
    """The relations of the (source, target) block of ``dd``, built once
    and kept on ``dd``, so they live exactly as long as the structure."""
    return dd.keep(("grid", source, target), GridRelations, dd, source, target)


def equal_by_3x3(
    dd: DenominatorData, t1: ThreeArrow, t2: ThreeArrow,
    normal_middles: bool = False,
) -> tuple[bool, ThreeByThreeWitness | None]:
    """Decide [t1] == [t2] by the 3x3 grid criterion.

    Inputs must be parallel.  ``normal_middles`` additionally demands the
    two middle rows be normal (available for equal normal inputs).  The
    verdict comes from the block's grid relations; a positive one is
    spelled out by ``find_bridge``, whose first witness in index order is
    returned.
    """
    check_three_arrow(dd, t1)
    check_three_arrow(dd, t2)
    source, target = source_of(dd, t1), target_of(dd, t1)
    if (source, target) != (source_of(dd, t2), target_of(dd, t2)):
        raise DomainError("inputs are not parallel")
    rel = grid_relations(dd, source, target)
    if not rel.grid_exists(t1, t2, normal_middles):
        return False, None
    bridge = find_bridge(
        dd, t1, t2, identity_arrow(dd, source), identity_arrow(dd, target),
        middles_in_D=True, rows_normal=normal_middles,
    )
    if bridge is None:
        raise InvariantError(
            f"grid relations admit a grid for {t1.ids(dd)} and {t2.ids(dd)} "
            "that the witness search does not find"
        )
    wit = ThreeByThreeWitness(bridge)
    wit.validate(dd)
    return True, wit


def mixed_composite_equal(
    dd: DenominatorData,
    t1: ThreeArrow,
    normal2: ThreeArrow,
    normal1: ThreeArrow,
    t2: ThreeArrow,
) -> tuple[bool, BridgeWitness | None]:
    """Decide [t1][normal2] == [normal1][t2] by grid search.

    ``normal1`` spans source(t1) -> source(t2) and becomes the left
    column, ``normal2`` spans target(t1) -> target(t2) and becomes the
    right column; both must be normal.
    """
    for t in (t1, t2, normal1, normal2):
        check_three_arrow(dd, t)
    for t in (normal1, normal2):
        check_normal(dd, t)
    if source_of(dd, normal1) != source_of(dd, t1):
        raise DomainError("left column does not start at source(t1)")
    if target_of(dd, normal1) != source_of(dd, t2):
        raise DomainError("left column does not end at source(t2)")
    if source_of(dd, normal2) != target_of(dd, t1):
        raise DomainError("right column does not start at target(t1)")
    if target_of(dd, normal2) != target_of(dd, t2):
        raise DomainError("right column does not end at target(t2)")
    bridge = find_bridge(dd, t1, t2, normal1, normal2)
    if bridge is None:
        return False, None
    bridge.validate(dd)
    return True, bridge


def flip(dd: DenominatorData, hypothesis: dict) -> BridgeWitness:
    """Turn a mixed fraction-equality ladder square into a grid.

    ``hypothesis`` carries four rows ("top", "row2", "row3", "bottom" as
    ThreeArrow) and the connecting morphism indices: "g2dd", "g2d", "g2"
    (top row down to row2), "d", "e" (row3 up to row2, denominators),
    "i2" (in S, row3 col4 up), "p1" (in T, row3 col1 up), and "g1",
    "g1d", "g1dd" (row3 down to bottom).  All nine hypothesis squares are
    re-checked; the returned grid keeps p1/g1 as its left column and
    g2/i2 as its right column.  Raises AxiomError unless the structure is
    uni-fractionable.
    """
    require_uni_fractionable(dd)
    cat = dd.base
    t1, r2, r3, t2 = (
        hypothesis["top"],
        hypothesis["row2"],
        hypothesis["row3"],
        hypothesis["bottom"],
    )
    for t in (t1, r2, r3, t2):
        check_three_arrow(dd, t)
    g2dd, g2d, g2 = hypothesis["g2dd"], hypothesis["g2d"], hypothesis["g2"]
    d, e = hypothesis["d"], hypothesis["e"]
    i2, p1 = hypothesis["i2"], hypothesis["p1"]
    g1, g1d, g1dd = hypothesis["g1"], hypothesis["g1d"], hypothesis["g1dd"]
    if d not in dd.iden or e not in dd.iden:
        raise DomainError("hypothesis: d, e must be denominators")
    if i2 not in dd.is_:
        raise DomainError("hypothesis: i2 must be an S-denominator")
    if p1 not in dd.it:
        raise DomainError("hypothesis: p1 must be a T-denominator")
    checks = [
        ("g2dd*v1 == b1", (g2dd, r2.b), (t1.b,)),
        ("f1*g2d == g2dd*h1", (t1.f, g2d), (g2dd, r2.f)),
        ("a1*g2d == g2*u1", (t1.a, g2d), (g2, r2.a)),
        ("v2*p1 == d*v1", (r3.b, p1), (d, r2.b)),
        ("h2*e == d*h1", (r3.f, e), (d, r2.f)),
        ("u2*e == i2*u1", (r3.a, e), (i2, r2.a)),
        ("v2*g1 == g1d*b2", (r3.b, g1), (g1d, t2.b)),
        ("h2*g1dd == g1d*f2", (r3.f, g1dd), (g1d, t2.f)),
        ("u2*g1dd == a2", (r3.a, g1dd), (t2.a,)),
    ]

    def evaluate(side):
        if len(side) == 1:
            return side[0]
        if side not in cat.icomp:
            raise DomainError("hypothesis has non-composable legs")
        return cat.icomp[side]

    for label, lhs, rhs in checks:
        if evaluate(lhs) != evaluate(rhs):
            raise DomainError(f"hypothesis square {label} does not commute")
    left = ThreeArrow(p1, g1, cat.iidentity[cat.itgt[t2.b]])
    right = ThreeArrow(cat.iidentity[cat.isrc[t1.a]], g2, i2)
    bridge = find_bridge(dd, t1, t2, left, right)
    if bridge is None:
        raise InvariantError("no grid completion on a certified structure")
    bridge.validate(dd)
    return bridge


@dataclass(frozen=True)
class FactorisationSquare:
    """Witness for splitting a commuting denominator square.

    With comp(f, e) == comp(d, g), d and e denominators: d == comp(i, p),
    e == comp(j, q), comp(f, j) == comp(i, h), comp(p, g) == comp(h, q),
    with i, j in S and p, q in T.  ``refinement`` carries (k, q2) with
    j == comp(j0, k), q0 == comp(k, q2) relative to a given factorisation
    (j0, q0) of e, or (r, p2) dually, when a side was supplied.
    """

    i: str
    p: str
    j: str
    q: str
    h: str
    refinement: tuple[str, str] | None = None


def factorisation_square(
    dd: DenominatorData,
    d: str,
    e: str,
    f: str,
    g: str,
    given: str = "none",
    supplied: tuple[str, str] | None = None,
) -> FactorisationSquare:
    """Split a commuting square f e == d g along factorisations of d and e.

    ``given="none"`` searches all five components.  ``given="left"``
    takes ``supplied`` as the (i, p) factorisation of d and refines the
    cached factorisation (j0, q0) of e to j == j0 k, q0 == k q2,
    returning (i, p, j, q2, h) plus the refinement (k, q2).
    ``given="right"`` is the dual.  Exhaustive search, index order.
    Raises AxiomError unless the structure is uni-fractionable.
    """
    cert = require_uni_fractionable(dd)
    cat = dd.base
    mi = cat.mor_index
    for name in (d, e, f, g):
        if name not in mi:
            raise DomainError(f"unknown morphism id {name!r}")
    di, ei, fi, gi = mi[d], mi[e], mi[f], mi[g]
    if di not in dd.iden or ei not in dd.iden:
        raise DomainError("d and e must be denominators")
    if (
        not cat.composable(fi, ei)
        or not cat.composable(di, gi)
        or cat.icomp[(fi, ei)] != cat.icomp[(di, gi)]
    ):
        raise DomainError("square f e == d g does not commute")
    ms = cat.morphisms
    if given == "none":
        for i, p in factorisations(cat, di, dd.s_sorted, dd.t_sorted):
            for j, q in factorisations(cat, ei, dd.s_sorted, dd.t_sorted):
                for h in _square_mediators(cat, fi, gi, i, p, j, q):
                    return FactorisationSquare(ms[i], ms[p], ms[j], ms[q], ms[h])
        raise InvariantError("no factorisation square on a certified structure")
    if given not in ("left", "right"):
        raise DomainError(f"unknown mode {given!r}")
    if supplied is None:
        raise DomainError("given mode requires the supplied factorisation")
    for name in supplied:
        if name not in mi:
            raise DomainError(f"unknown morphism id {name!r}")
    s0, s1 = mi[supplied[0]], mi[supplied[1]]
    factored, side = (di, "d") if given == "left" else (ei, "e")
    if s0 not in dd.is_ or s1 not in dd.it or cat.icomp.get((s0, s1)) != factored:
        raise DomainError(f"supplied pair is not an S,T factorisation of {side}")
    if given == "left":
        j0, q0 = cert.fac.witnesses[ei]
        j, q2, h, k = _refinement(
            cat, dd.s_sorted, dd.t_sorted, fi, gi, s0, s1, j0, q0
        )
        return FactorisationSquare(
            ms[s0], ms[s1], ms[j], ms[q2], ms[h], refinement=(ms[k], ms[q2])
        )
    # given == "right" is the left refinement of the opposite square
    # (e, d, g, f), where S and T trade places; the cached factorisation of
    # d is read from this structure's certificate, never the opposite's
    i0, p0 = cert.fac.witnesses[di]
    p2, i, h, r = _refinement(
        cat.opposite(), dd.t_sorted, dd.s_sorted, gi, fi, s1, s0, p0, i0
    )
    return FactorisationSquare(
        ms[i], ms[p2], ms[s0], ms[s1], ms[h], refinement=(ms[r], ms[p2])
    )


def _square_mediators(cat: FinCategory, f: int, g: int, i: int, p: int, j: int,
                      q: int):
    """Every h with comp(i, h) == comp(f, j) and comp(h, q) == comp(p, g)."""
    fj = cat.icomp[(f, j)]
    pg = cat.icomp[(p, g)]
    for h in cat.hom(cat.itgt[i], cat.itgt[j]):
        if cat.icomp[(i, h)] == fj and cat.icomp[(h, q)] == pg:
            yield h


def _refinement(cat: FinCategory, s_pool, t_pool, f: int, g: int, i: int,
                p: int, j0: int, q0: int) -> tuple[int, int, int, int]:
    """First (j, q2, h, k) with j == comp(j0, k), q0 == comp(k, q2), k in
    the S pool and q2 in the T pool, and h filling the square against the
    factorisation (i, p) of d.

    Index order; ``(j0, q0)`` is the cached factorisation of e, so
    comp(j, q2) == e holds by associativity.
    """
    for k, q2 in factorisations(cat, q0, s_pool, t_pool):
        j = cat.icomp[(j0, k)]
        for h in _square_mediators(cat, f, g, i, p, j, q2):
            return j, q2, h, k
    raise InvariantError("no refinement square on a certified structure")
