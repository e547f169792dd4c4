"""Finite categories and functors as explicit tables.

Everything is id-addressed: objects and morphisms are opaque strings taken
from the input, mapped once to dense indices in input order.  All
tie-breaking anywhere in the library uses that index order, which makes
every construction reproducible from the same file.

Composition is diagrammatic: ``compose(f, g)`` is "f, then g" and is
defined exactly when ``tgt(f) == src(g)``.

All types here are immutable after construction; operations are pure.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass


class DomainError(ValueError):
    """A precondition on ids or endpoints was violated."""


class InvariantError(RuntimeError):
    """Two of the library's own routes disagree on a certified structure."""


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with the offending ids."""

    code: str
    ids: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.code}: ({', '.join(self.ids)})"


def _index(names: list[str], kind: str) -> dict[str, int]:
    idx: dict[str, int] = {}
    for i, name in enumerate(names):
        if name in idx:
            raise DomainError(f"duplicate {kind} id {name!r}")
        idx[name] = i
    return idx


class FinCategory:
    """A finite category given by a total composition table.

    The table ``comp`` maps composable pairs (in diagrammatic order) to
    their composite.  Construction only checks that all ids resolve;
    whether the tables satisfy the category laws is the business of
    :func:`validate_category`, so that defective tables can be loaded,
    inspected and reported on.
    """

    def __init__(
        self,
        name: str,
        objects: list[str],
        morphisms: list[str],
        src: dict[str, str],
        tgt: dict[str, str],
        identity: dict[str, str],
        comp: dict[tuple[str, str], str],
    ):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.obj_index = _index(list(objects), "object")
        self.mor_index = _index(list(morphisms), "morphism")

        def oi(x: str) -> int:
            if x not in self.obj_index:
                raise DomainError(f"unknown object id {x!r}")
            return self.obj_index[x]

        def mi(f: str) -> int:
            if f not in self.mor_index:
                raise DomainError(f"unknown morphism id {f!r}")
            return self.mor_index[f]

        self.isrc = tuple(oi(src[f]) for f in morphisms)
        self.itgt = tuple(oi(tgt[f]) for f in morphisms)
        self.iidentity = tuple(mi(identity[x]) for x in objects)
        self.icomp: dict[tuple[int, int], int] = {
            (mi(f), mi(g)): mi(h) for (f, g), h in comp.items()
        }
        # per-object morphism lists, in index order (used by every search)
        self.by_src: tuple[tuple[int, ...], ...] = tuple(
            tuple(i for i in range(len(morphisms)) if self.isrc[i] == x)
            for x in range(len(objects))
        )
        self.by_tgt: tuple[tuple[int, ...], ...] = tuple(
            tuple(i for i in range(len(morphisms)) if self.itgt[i] == x)
            for x in range(len(objects))
        )
        homs: dict[tuple[int, int], list[int]] = {}
        for i, ends in enumerate(zip(self.isrc, self.itgt)):
            homs.setdefault(ends, []).append(i)
        # hom-sets by (source, target), in index order: a lookup, so that a
        # search costs the same over the category and over its opposite
        self._homs = {ends: tuple(members) for ends, members in homs.items()}
        # derived tables, built on first use and kept with the category
        self._opposite: FinCategory | weakref.ref | None = None
        self._solution_maps = None

    def opposite(self) -> "FinCategory":
        """The opposite category: same ids, every arrow and composite reversed.

        Built once and kept by ``cat``; the opposite links back weakly, so
        the two free by reference counting and ``cat.opposite().opposite()
        is cat`` while ``cat`` lives.  Index order is unchanged, which makes
        every index-order search over the opposite meet its candidates in
        the same order as the dual search over ``cat``.
        """
        op = self._opposite
        if isinstance(op, weakref.ref):
            op = op()
        if op is None:
            op = object.__new__(FinCategory)
            op.__dict__.update(
                self.__dict__,
                name=f"{self.name}^op",
                isrc=self.itgt,
                itgt=self.isrc,
                by_src=self.by_tgt,
                by_tgt=self.by_src,
                icomp={(j, i): k for (i, j), k in self.icomp.items()},
                _homs={(y, x): h for (x, y), h in self._homs.items()},
                _opposite=weakref.ref(self),
                _solution_maps=None,
            )
            self._opposite = op
        return op

    def solution_maps(self):
        """Solution rows: left[y][w] lists every x with comp(x, y) == w and
        right[x][w] every y, in index order; a w with no solution is absent.

        Built on first use, then reused.  The opposite of a live category
        reads the original's pair swapped: left over the opposite is right
        over the original.
        """
        if self._solution_maps is None:
            link = self._opposite
            original = link() if isinstance(link, weakref.ref) else None
            if original is not None:
                left, right = original.solution_maps()
                self._solution_maps = right, left
                return self._solution_maps
            left = [{} for _ in self.morphisms]
            right = [{} for _ in self.morphisms]
            for (x, y), w in sorted(self.icomp.items()):
                left[y].setdefault(w, []).append(x)
                right[x].setdefault(w, []).append(y)
            self._solution_maps = left, right
        return self._solution_maps

    # -- id-level accessors ------------------------------------------------

    def src_of(self, f: str) -> str:
        return self.objects[self.isrc[self.mor_index[f]]]

    def tgt_of(self, f: str) -> str:
        return self.objects[self.itgt[self.mor_index[f]]]

    def identity_of(self, x: str) -> str:
        return self.morphisms[self.iidentity[self.obj_index[x]]]

    def compose(self, f: str, g: str) -> str:
        """Composite of f then g; DomainError on a non-composable pair."""
        i, j = self.mor_index[f], self.mor_index[g]
        if self.itgt[i] != self.isrc[j]:
            raise DomainError(
                f"non-composable pair: {f!r} ends at "
                f"{self.objects[self.itgt[i]]!r} but {g!r} starts at "
                f"{self.objects[self.isrc[j]]!r}"
            )
        k = self.icomp.get((i, j))
        if k is None:
            raise DomainError(f"missing composite for ({f!r}, {g!r})")
        return self.morphisms[k]

    # -- index-level accessors (hot paths) ---------------------------------

    def composable(self, i: int, j: int) -> bool:
        return self.itgt[i] == self.isrc[j]

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def is_identity(self, i: int) -> bool:
        return self.iidentity[self.isrc[i]] == i

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self._homs.get((x, y), ())

    def table_equal(self, other: "FinCategory") -> bool:
        """Structural equality of all tables (ids and order included)."""
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.isrc == other.isrc
            and self.itgt == other.itgt
            and self.iidentity == other.iidentity
            and self.icomp == other.icomp
        )

    def __repr__(self) -> str:
        return (
            f"FinCategory({self.name!r}, {self.n_objects} objects, "
            f"{self.n_morphisms} morphisms)"
        )


def validate_category(cat: FinCategory) -> list[Violation]:
    """Exhaustively check the category laws; empty report iff valid.

    Totality and endpoints are checked over the composable pairs; only
    when that finds a defect does the scan of all pairs list every one.
    Once totality, endpoints and the identity laws hold, associativity is
    decided at a generating set of middles (Light's test); when that finds
    a violation, the full sweep lists every one.
    """
    report: list[Violation] = []
    n = cat.n_morphisms
    for x in range(cat.n_objects):
        e = cat.iidentity[x]
        if cat.isrc[e] != x or cat.itgt[e] != x:
            report.append(
                Violation("identity-endpoints", (cat.objects[x], cat.morphisms[e]))
            )
    if not _table_is_lawful(cat):
        report += _table_violations(cat)
    if report:
        # endpoint defects make the law sweeps unreliable; report them first
        return report
    for i in range(n):
        e_s, e_t = cat.iidentity[cat.isrc[i]], cat.iidentity[cat.itgt[i]]
        if cat.icomp[(e_s, i)] != i:
            report.append(
                Violation("left-identity", (cat.morphisms[e_s], cat.morphisms[i]))
            )
        if cat.icomp[(i, e_t)] != i:
            report.append(
                Violation("right-identity", (cat.morphisms[i], cat.morphisms[e_t]))
            )
    if not report and not associativity_violations(
        cat, frozenset(generating_set(cat, range(n)))
    ):
        # Light's test [Clifford-Preston, 1.2]: the elements m with
        # (x;m);y == x;(m;y) for all x, y are closed under composition, so
        # associativity at a generating set of middles gives it everywhere
        return report
    report += associativity_violations(cat)
    return report


def _table_is_lawful(cat: FinCategory) -> bool:
    """Whether every composable pair has a composite with lawful endpoints
    and no other pair has one: the composable pairs are then all of the
    table's entries, so counting them rules out a spurious one."""
    comp, isrc, itgt = cat.icomp, cat.isrc, cat.itgt
    composable = 0
    for i in range(cat.n_morphisms):
        for j in cat.by_src[itgt[i]]:
            k = comp.get((i, j))
            if k is None or isrc[k] != isrc[i] or itgt[k] != itgt[j]:
                return False
        composable += len(cat.by_src[itgt[i]])
    return composable == len(comp)


def _table_violations(cat: FinCategory) -> list[Violation]:
    """Every missing, spurious or misplaced composite, scanning all n²
    (i, j) pairs in index order."""
    report: list[Violation] = []
    n = cat.n_morphisms
    for i in range(n):
        for j in range(n):
            defined = (i, j) in cat.icomp
            if cat.itgt[i] == cat.isrc[j]:
                if not defined:
                    report.append(
                        Violation(
                            "missing-composite", (cat.morphisms[i], cat.morphisms[j])
                        )
                    )
                else:
                    k = cat.icomp[(i, j)]
                    if cat.isrc[k] != cat.isrc[i] or cat.itgt[k] != cat.itgt[j]:
                        report.append(
                            Violation(
                                "composite-endpoints",
                                (cat.morphisms[i], cat.morphisms[j], cat.morphisms[k]),
                            )
                        )
            elif defined:
                report.append(
                    Violation(
                        "spurious-composite", (cat.morphisms[i], cat.morphisms[j])
                    )
                )
    return report


def associativity_violations(
    cat: FinCategory, middles: frozenset[int] | None = None
) -> list[Violation]:
    """Every composable (i, j, k) with (i;j);k != i;(j;k), in index order,
    over the middles ``j`` in ``middles`` (all morphisms when None).
    Assumes a total table with lawful endpoints."""
    report: list[Violation] = []
    comp = cat.icomp
    for i in range(cat.n_morphisms):
        for j in cat.by_src[cat.itgt[i]]:
            if middles is not None and j not in middles:
                continue
            ij = comp[(i, j)]
            for k in cat.by_src[cat.itgt[j]]:
                if comp[(ij, k)] != comp[(i, comp[(j, k)])]:
                    report.append(
                        Violation(
                            "associativity",
                            (cat.morphisms[i], cat.morphisms[j], cat.morphisms[k]),
                        )
                    )
    return report


def generating_set(cat: FinCategory, members) -> tuple[int, ...]:
    """A generating set of the non-identity ``members`` under composition,
    in index order.

    It holds every member that is not a composite of two non-identity
    members (each generating set must contain those), and then, walking
    the other members in index order, each one that the composites of the
    set do not reach yet.  Needs a total table with lawful endpoints, and
    ``members`` closed under composition, so that composites of members
    stay members; associativity is not needed.  The set is the same over
    ``cat.opposite()``.
    """
    comp = cat.icomp
    members = [m for m in sorted(members) if not cat.is_identity(m)]
    by_src = [[] for _ in range(cat.n_objects)]
    for m in members:
        by_src[cat.isrc[m]].append(m)
    split = {comp[(x, y)] for x in members for y in by_src[cat.itgt[x]]}
    gens = [m for m in members if m not in split]
    reached: set[int] = set()
    out_of = [[] for _ in range(cat.n_objects)]
    into = [[] for _ in range(cat.n_objects)]

    def reach(g: int) -> None:
        # each new composite is composed with every reached member on both
        # sides, so ``reached`` stays closed under composition
        work = [g]
        while work:
            x = work.pop()
            if x in reached:
                continue
            reached.add(x)
            out_of[cat.isrc[x]].append(x)
            into[cat.itgt[x]].append(x)
            work.extend(comp[(x, y)] for y in out_of[cat.itgt[x]])
            work.extend(comp[(y, x)] for y in into[cat.isrc[x]])

    for g in gens:
        reach(g)
    for m in members:
        if m not in reached:
            gens.append(m)
            reach(m)
    return tuple(sorted(gens))


@dataclass
class FunctorTable:
    """A functor between finite categories, as explicit object/morphism maps."""

    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def compose_with(self, other: "FunctorTable") -> "FunctorTable":
        """self then other (other applied second)."""
        if self.target is not other.source and not self.target.table_equal(
            other.source
        ):
            raise DomainError("functors not composable")
        return FunctorTable(
            self.source,
            other.target,
            {x: other.obj_map[y] for x, y in self.obj_map.items()},
            {f: other.mor_map[g] for f, g in self.mor_map.items()},
        )


def identity_functor(cat: FinCategory) -> FunctorTable:
    return FunctorTable(
        cat, cat, {x: x for x in cat.objects}, {f: f for f in cat.morphisms}
    )


def validate_functor(fun: FunctorTable) -> list[Violation]:
    """Empty report iff the tables preserve endpoints, identities, composition."""
    report: list[Violation] = []
    c, d = fun.source, fun.target
    for x in c.objects:
        if fun.obj_map.get(x) not in d.obj_index:
            report.append(Violation("object-not-mapped", (x,)))
    for f in c.morphisms:
        g = fun.mor_map.get(f)
        if g is None or g not in d.mor_index:
            report.append(Violation("morphism-not-mapped", (f,)))
    if report:
        return report
    for f in c.morphisms:
        g = fun.mor_map[f]
        if d.src_of(g) != fun.obj_map[c.src_of(f)] or d.tgt_of(g) != fun.obj_map[
            c.tgt_of(f)
        ]:
            report.append(Violation("endpoints-not-preserved", (f, g)))
    for x in c.objects:
        if fun.mor_map[c.identity_of(x)] != d.identity_of(fun.obj_map[x]):
            report.append(Violation("identity-not-preserved", (x,)))
    if report:
        return report
    for i, f in enumerate(c.morphisms):
        for j in c.by_src[c.itgt[i]]:
            g = c.morphisms[j]
            lhs = fun.mor_map[c.compose(f, g)]
            rhs = d.compose(fun.mor_map[f], fun.mor_map[g])
            if lhs != rhs:
                report.append(Violation("composition-not-preserved", (f, g)))
    return report


def find_inverse(cat: FinCategory, f: str) -> str | None:
    """Two-sided inverse of ``f`` in ``cat``, or None."""
    i = cat.mor_index[f]
    e_s, e_t = cat.iidentity[cat.isrc[i]], cat.iidentity[cat.itgt[i]]
    for j in cat.hom(cat.itgt[i], cat.isrc[i]):
        if cat.icomp[(i, j)] == e_s and cat.icomp[(j, i)] == e_t:
            return cat.morphisms[j]
    return None


def isomorphisms(cat: FinCategory) -> set[str]:
    return {f for f in cat.morphisms if find_inverse(cat, f) is not None}
