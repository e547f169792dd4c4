"""Three-arrow diagrams and fraction equality.

A three-arrow (b, f, a) is the diagram

    X <=b= X~ --f--> Y~ <=a= Y        (b, a denominators)

read as "invert b, apply f, invert a"; its source is tgt(b) and its
target is src(a).  Fraction equality is the congruence generated by
composing c into the right leg ((b, f, a) ~ (b, fc, ac) when ac stays a
denominator) and c into the left leg ((b, f, a) ~ (cb, cf, a) when cb
stays one).  Its classes are the morphisms of the fraction category.

The partition unions only the moves by a generating set G of D's
non-identity members (:func:`generating_denominators`).  A move by c1;c2
is the move by c1 followed by the move by c2, so the G-moves span the
same classes as the moves by every c, under two axioms: (2 of 3) puts
every c with ac (or cb) in D into D itself, so c is a composite of
members of G, and (Cat) keeps each intermediate leg a;c1 (or c1;b) in D,
so each step of the spelled-out move is itself a move between
three-arrows.  :class:`FractionPartition` therefore refuses a structure
failing either axiom (or the category laws).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import DomainError
from .denominators import (
    AxiomError,
    DenominatorData,
    generating_denominators,
    require_uni_fractionable,
)


class ThreeArrow(NamedTuple):
    """Morphism indices (b, f, a); ordering is index-lexicographic, and a
    three-arrow hashes and compares like the plain tuple (b, f, a)."""

    b: int
    f: int
    a: int

    def ids(self, dd: DenominatorData) -> str:
        m = dd.base.morphisms
        return f"{m[self.b]},{m[self.f]},{m[self.a]}"


def parse_three_arrow(dd: DenominatorData, text: str) -> ThreeArrow:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise DomainError(f"expected 'b,f,a', got {text!r}")
    for p in parts:
        if p not in dd.base.mor_index:
            raise DomainError(f"unknown morphism id {p!r}")
    t = ThreeArrow(*(dd.base.mor_index[p] for p in parts))
    check_three_arrow(dd, t)
    return t


def check_three_arrow(dd: DenominatorData, t: ThreeArrow) -> None:
    cat = dd.base
    if t.b not in dd.iden or t.a not in dd.iden:
        raise DomainError(f"{t.ids(dd)}: outer components must be denominators")
    if cat.isrc[t.b] != cat.isrc[t.f] or cat.itgt[t.a] != cat.itgt[t.f]:
        raise DomainError(f"{t.ids(dd)}: endpoint mismatch")


def source_of(dd: DenominatorData, t: ThreeArrow) -> int:
    return dd.base.itgt[t.b]


def target_of(dd: DenominatorData, t: ThreeArrow) -> int:
    return dd.base.isrc[t.a]


def identity_arrow(dd: DenominatorData, x: int) -> ThreeArrow:
    e = dd.base.iidentity[x]
    return ThreeArrow(e, e, e)


def enumerate_three_arrows(
    dd: DenominatorData, block: tuple[int, int] | None = None
) -> list[ThreeArrow]:
    """All (b, f, a) with b, a in D and matching endpoints, in index order;
    with ``block`` = (source, target), only those from source to target."""
    cat, den = dd.base, dd.iden
    if block is None:
        return [
            ThreeArrow(b, f, a)
            for b in dd.den_sorted
            for f in cat.by_src[cat.isrc[b]]
            for a in cat.by_tgt[cat.itgt[f]]
            if a in den
        ]
    source, target = block
    return [
        ThreeArrow(b, f, a)
        for b in cat.by_tgt[source]
        if b in den
        for f in cat.by_src[cat.isrc[b]]
        for a in cat.hom(target, cat.itgt[f])
        if a in den
    ]


def block_arrows(
    dd: DenominatorData, block: tuple[int, int] | None = None
) -> list[ThreeArrow]:
    """:func:`enumerate_three_arrows` of ``block``, enumerated once and kept
    on ``dd``; the partition and the grid relations of a block share it."""
    return dd.keep(("arrows", block), enumerate_three_arrows, dd, block)


def arrow_rank(dd: DenominatorData, t: ThreeArrow) -> int:
    """Position of ``t`` among all three-arrows of ``dd`` in index order,
    counted without enumerating them, from the :func:`rank_tables` of the
    whole list, built on first use and kept on ``dd``."""
    before_b, before_f, before_a = dd.keep("ranks", rank_tables, dd)
    return before_b[t.b] + before_f[t.f] + before_a[t.a]


def rank_tables(
    dd: DenominatorData, block: tuple[int, int] | None = None
) -> tuple[list[int], list[int], list[int]]:
    """Prefix tables (B, F, A) that place each three-arrow (b, f, a) of
    :func:`enumerate_three_arrows` of ``block`` at B[b] + F[f] + A[a].

    Three-arrows sort by b, then f, then a.  Those before (b, f, a) have a
    smaller first leg (B[b]), or first leg b and a smaller middle f' out
    of the same object (F[f]), or first legs (b, f) and a smaller last leg
    a' into the same object (A[a]).  For a block, only the members of D
    into its source count as first legs, and out of its target as last.
    """
    cat, den = dd.base, dd.iden
    n = cat.n_morphisms
    firsts, lasts = dd.den_sorted, dd.den_sorted
    if block is not None:
        firsts = [b for b in cat.by_tgt[block[0]] if b in den]
        lasts = dd.d_by_src[block[1]]
    # A: last legs into the same object before a; legs: all of them
    before_a, legs = [0] * n, [0] * cat.n_objects
    for a in lasts:
        before_a[a] = legs[cat.itgt[a]]
        legs[cat.itgt[a]] += 1
    # F: (f', a') with f' < f out of src f; per_b: all (f, a) out of an object
    before_f, per_b = [0] * n, [0] * cat.n_objects
    for x, middles in enumerate(cat.by_src):
        for f in middles:
            before_f[f] = per_b[x]
            per_b[x] += legs[cat.itgt[f]]
    before_b, run = [0] * n, 0
    for b in firsts:
        before_b[b] = run
        run += per_b[cat.isrc[b]]
    return before_b, before_f, before_a


def fraction_generators(
    dd: DenominatorData, arrows: list[ThreeArrow], ranks: tuple[list[int], ...]
) -> list[tuple[int, int]]:
    """Generating pairs for fraction equality, as pairs of positions in
    ``arrows`` (all three-arrows or one block), each read from the list's
    :func:`rank_tables` ``ranks``.

    Emits the right-leg moves (b, f, a) ~ (b, fg, ag) and the left-leg
    moves (b, f, a) ~ (gb, gf, a) for every g in
    :func:`generating_denominators`.  They span fraction equality when D
    satisfies (Cat) and (2 of 3) (module docstring), which
    :class:`FractionPartition` checks before it sweeps.
    """
    cat = dd.base
    comp = cat.icomp
    before_b, before_f, before_a = ranks
    gens = generating_denominators(dd)
    from_obj = [[g for g in gens if cat.isrc[g] == x] for x in range(cat.n_objects)]
    to_obj = [[g for g in gens if cat.itgt[g] == x] for x in range(cat.n_objects)]
    pairs = []
    for i, (b, f, a) in enumerate(arrows):
        head, tail = before_b[b], before_a[a]
        for g in from_obj[cat.itgt[a]]:
            pairs.append((i, head + before_f[comp[(f, g)]] + before_a[comp[(a, g)]]))
        for g in to_obj[cat.isrc[b]]:
            pairs.append((i, before_b[comp[(g, b)]] + before_f[comp[(g, f)]] + tail))
    return pairs


class FractionPartition:
    """Classes of three-arrows under fraction equality: of all of them, or
    with ``block`` = (source, target) of the block from source to target.
    Fraction equality relates only parallel three-arrows (every move keeps
    tgt b and src a), so a block's classes are classes of the whole.
    ``groups`` holds the classes by smallest member, members ascending.

    Class ids are "q" + the position of the smallest member among all
    three-arrows in enumeration order (:func:`arrow_rank`), which keeps
    references stable across runs and equal between a block and the
    whole.  Raises AxiomError unless the base is a category and D
    satisfies (Cat) and (2 of 3), under which the generator moves span
    fraction equality.
    """

    def __init__(self, dd: DenominatorData, block: tuple[int, int] | None = None):
        failed = [
            name
            for name in dd.certificate().failed_axioms()
            if name in ("(Base)", "(Cat)", "(2 of 3)")
        ]
        if failed:
            raise AxiomError(failed)
        self.arrows = block_arrows(dd, block)
        self.arrow_index = {t: i for i, t in enumerate(self.arrows)}
        ranks = rank_tables(dd, block)
        # link the larger root under the smaller: a root is its class's minimum
        parent = list(range(len(self.arrows)))
        for i, j in fraction_generators(dd, self.arrows, ranks):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            while parent[j] != j:
                parent[j] = parent[parent[j]]
                j = parent[j]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j
        # one ascending pass: a parent precedes its child, so it points at its root
        self.groups, self.class_of_arrow = [], []
        for i, p in enumerate(parent):
            root = parent[i] = parent[p]
            if root == i:
                self.groups.append([])
            gi = self.class_of_arrow[root] if root < i else len(self.groups) - 1
            self.class_of_arrow.append(gi)
            self.groups[gi].append(i)
        self.class_ids = [
            f"q{arrow_rank(dd, self.arrows[group[0]])}" for group in self.groups
        ]
        self._id_to_group = {cid: gi for gi, cid in enumerate(self.class_ids)}

    def class_index(self, t: ThreeArrow) -> int:
        i = self.arrow_index.get(t)
        if i is None:
            raise DomainError(f"not an enumerated three-arrow: {t}")
        return self.class_of_arrow[i]

    def class_id(self, t: ThreeArrow) -> str:
        return self.class_ids[self.class_index(t)]

    def members(self, gi: int) -> list[ThreeArrow]:
        return [self.arrows[i] for i in self.groups[gi]]

    def representative(self, gi: int) -> ThreeArrow:
        return self.arrows[self.groups[gi][0]]

    def group_of_id(self, cid: str) -> int:
        if cid not in self._id_to_group:
            raise DomainError(f"unknown class id {cid!r}")
        return self._id_to_group[cid]

    def same_class(self, t1: ThreeArrow, t2: ThreeArrow) -> bool:
        return self.class_index(t1) == self.class_index(t2)

    def __len__(self) -> int:
        return len(self.groups)


def fraction_equivalence(dd: DenominatorData) -> FractionPartition:
    """The partition of the three-arrows of ``dd``, built once and kept on
    ``dd``, so it lives exactly as long as the structure."""
    return dd.keep(("partition", None), FractionPartition, dd)


def block_partition(dd: DenominatorData, source: int, target: int) -> FractionPartition:
    """The partition of the (source, target) block of ``dd``, built on
    first use and kept on ``dd`` like :func:`fraction_equivalence`."""
    block = (source, target)
    return dd.keep(("partition", block), FractionPartition, dd, block)


def same_fraction(dd: DenominatorData, t1: ThreeArrow, t2: ThreeArrow) -> bool:
    """Whether [t1] == [t2], from the partition of their block alone;
    three-arrows that are not parallel are never equal."""
    ends = (source_of(dd, t1), target_of(dd, t1))
    if ends != (source_of(dd, t2), target_of(dd, t2)):
        return False
    return block_partition(dd, *ends).same_class(t1, t2)


def is_denominator_class(
    dd: DenominatorData, part: FractionPartition, t: ThreeArrow
) -> bool:
    """Whether the middle component lies in D (a class invariant)."""
    part.class_index(t)
    return t.f in dd.iden


def normalise(dd: DenominatorData, t: ThreeArrow) -> ThreeArrow:
    """A normal three-arrow (T-denominator, f, S-denominator) fraction
    equal to ``t``, computed by the normalisation recipe:

      factor b = i p;  push f out along i to (f1, i1);  factor the
      denominator a i1 = j q;  pull f1 back against q to (f2, q1);
      the result is (q1 p, f2, j).

    All four steps read the certificate's witnesses, so the output is
    deterministic; only its class, not its spelling, is the contract.
    Raises AxiomError unless the structure is uni-fractionable.
    """
    cert = require_uni_fractionable(dd)
    check_three_arrow(dd, t)
    cat = dd.base
    i, p = cert.fac.witnesses[t.b]
    f1, i1 = cert.wu.pushouts[(i, t.f)]
    j, q = cert.fac.witnesses[cat.icomp[(t.a, i1)]]
    f2, q1 = cert.wu.pullbacks[(q, f1)]
    return ThreeArrow(cat.icomp[(q1, p)], f2, j)


def is_normal(dd: DenominatorData, t: ThreeArrow) -> bool:
    return t.b in dd.it and t.a in dd.is_


def check_normal(dd: DenominatorData, t: ThreeArrow) -> None:
    if not is_normal(dd, t):
        raise DomainError(f"{t.ids(dd)} is not normal")


def common_denominator(
    dd: DenominatorData, t1: ThreeArrow, t2: ThreeArrow, mode: str
) -> tuple[ThreeArrow, ThreeArrow]:
    """Normal replacements of t1, t2 sharing legs as demanded by ``mode``.

    "source": both outputs share the T-denominator leg; "target": both
    share the S-denominator leg; "parallel": both.  Built by normalising
    and then completing the T- and/or S-sides with cached Ore squares.
    """
    cert = dd.certificate()
    cat = dd.base
    n1, n2 = normalise(dd, t1), normalise(dd, t2)
    if mode not in ("source", "target", "parallel"):
        raise DomainError(f"unknown mode {mode!r}")
    share_p = mode in ("source", "parallel")
    share_i = mode in ("target", "parallel")
    if share_p and source_of(dd, t1) != source_of(dd, t2):
        raise DomainError("sources differ")
    if share_i and target_of(dd, t1) != target_of(dd, t2):
        raise DomainError("targets differ")
    b1, f1, a1 = n1.b, n1.f, n1.a
    b2, f2, a2 = n2.b, n2.f, n2.a
    if share_p:
        # complete the two T-legs over their common target; the witness for
        # key (n2.b, n1.b) satisfies comp(cf, n2.b) == comp(cp, n1.b), cp in T
        cf, cp = cert.wu.pullbacks[(n2.b, n1.b)]
        b1 = b2 = cat.icomp[(cp, n1.b)]
        f1, f2 = cat.icomp[(cp, f1)], cat.icomp[(cf, f2)]
    if share_i:
        # dually, comp(n1.a, i2c) == comp(n2.a, i1c) with i1c in S
        i2c, i1c = cert.wu.pushouts[(n1.a, n2.a)]
        a1 = a2 = cat.icomp[(n1.a, i2c)]
        f1, f2 = cat.icomp[(f1, i2c)], cat.icomp[(f2, i1c)]
    return ThreeArrow(b1, f1, a1), ThreeArrow(b2, f2, a2)
