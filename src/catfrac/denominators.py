"""Denominator structures and their axioms.

A :class:`DenominatorData` fixes three morphism subsets D ⊇ S, T of a base
category.  The checkers below decide, with explicit witnesses:

  * the saturation ladder for D (multiplicative / semi-saturated via the
    2-out-of-3 closure / weakly saturated via 2-out-of-6),
  * weakly universal Ore completions along S on the pushout side and along
    T on the pullback side,
  * factorisation of every member of D as an S-member followed by a
    T-member,

and bundle the lot into a single structure report.  The downstream
constructions replay the witnesses by key, so the report keeps them as
plain pairs: the index-smallest factorisation (i, p) of every member of
D, and for (WU) the completion (f2, i2) of each generator pair plus
on-demand lookup of every other pair (searched on first lookup, then
kept).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import DomainError, FinCategory, FunctorTable, generating_set

LADDER = ("none", "multiplicative", "semi-saturated", "weakly-saturated")


class DenominatorData:
    """A base category with subsets D, S, T of morphism ids.

    Construction resolves ids only; every axiom is checked by the
    functions below, never assumed, so defective structures can be
    represented and reported on.  The axiom certificate and every other
    derived structure is computed on first use and then reused (written
    once, read-only afterwards; :meth:`keep`).
    """

    def __init__(
        self,
        base: FinCategory,
        denominators: list[str],
        s_denominators: list[str] | None = None,
        t_denominators: list[str] | None = None,
        name: str | None = None,
    ):
        self.base = base
        self.name = name or base.name
        for f in list(denominators) + list(s_denominators or []) + list(
            t_denominators or []
        ):
            if f not in base.mor_index:
                raise DomainError(f"unknown morphism id {f!r}")
        mi = base.mor_index
        self.iden = frozenset(mi[f] for f in denominators)
        self.is_ = frozenset(
            mi[f] for f in (denominators if s_denominators is None else s_denominators)
        )
        self.it = frozenset(
            mi[f] for f in (denominators if t_denominators is None else t_denominators)
        )
        self.den_sorted = tuple(sorted(self.iden))
        self.s_sorted = tuple(sorted(self.is_))
        self.t_sorted = tuple(sorted(self.it))
        # T-members by target, S- and D-members by source, in index order
        self.t_by_tgt = self._buckets(base.by_tgt, self.it)
        self.s_by_src = self._buckets(base.by_src, self.is_)
        self.d_by_src = self._buckets(base.by_src, self.iden)
        # structures derived from (base, D, S, T), by key; see keep
        self.derived: dict = {}

    @staticmethod
    def _buckets(by_end, members) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(g for g in gs if g in members) for gs in by_end)

    def subset(self, which: str) -> frozenset[int]:
        return {"D": self.iden, "S": self.is_, "T": self.it}[which]

    def dump_ids(self, indices) -> list[str]:
        return [self.base.morphisms[i] for i in sorted(indices)]

    @property
    def denominator_ids(self) -> list[str]:
        return self.dump_ids(self.iden)

    @property
    def s_ids(self) -> list[str]:
        return self.dump_ids(self.is_)

    @property
    def t_ids(self) -> list[str]:
        return self.dump_ids(self.it)

    def opposite(self) -> "DenominatorData":
        """The same D over the opposite base, with S and T swapped."""
        return DenominatorData(
            self.base.opposite(), self.denominator_ids, self.t_ids, self.s_ids,
            self.name,
        )

    def keep(self, key, build, *args):
        """``build(*args)`` on the first request for ``key``, kept in
        :attr:`derived` and returned unchanged by every later request, so
        it lives exactly as long as the structure.  Every structure derived
        from (base, D, S, T) is kept here, and only here."""
        try:
            return self.derived[key]
        except KeyError:
            value = self.derived[key] = build(*args)
            return value

    def certificate(self) -> "AxiomCertificate":
        """Axiom report incl. witness caches; computed once, then reused."""
        return self.keep("certificate", check_uni_fractionable, self)


def is_multiplicative(dd: DenominatorData, which: str = "D"):
    """(identities + closure under composition) for the chosen subset."""
    cat, sub = dd.base, dd.subset(which)
    for x in range(cat.n_objects):
        if cat.iidentity[x] not in sub:
            return False, ("identity", cat.objects[x])
    for i in sorted(sub):
        for j in cat.by_src[cat.itgt[i]]:
            if j in sub and cat.icomp[(i, j)] not in sub:
                return False, ("composition", cat.morphisms[i], cat.morphisms[j])
    return True, None


def is_two_of_three(dd: DenominatorData):
    """If two of f, g, fg lie in D, so does the third."""
    cat, den = dd.base, dd.iden
    for i in range(cat.n_morphisms):
        for j in cat.by_src[cat.itgt[i]]:
            k = cat.icomp[(i, j)]
            members = (i in den) + (j in den) + (k in den)
            if members == 2:
                return False, (cat.morphisms[i], cat.morphisms[j], cat.morphisms[k])
    return True, None


def is_two_of_six(dd: DenominatorData):
    """If fg and gh lie in D, then f, g, h and fgh all lie in D."""
    cat, den = dd.base, dd.iden
    for i in range(cat.n_morphisms):
        for j in cat.by_src[cat.itgt[i]]:
            ij = cat.icomp[(i, j)]
            for k in cat.by_src[cat.itgt[j]]:
                if ij in den and cat.icomp[(j, k)] in den:
                    ijk = cat.icomp[(ij, k)]
                    if not (i in den and j in den and k in den and ijk in den):
                        return False, (
                            cat.morphisms[i],
                            cat.morphisms[j],
                            cat.morphisms[k],
                        )
    return True, None


def classify_saturation(dd: DenominatorData) -> str:
    """Highest ladder level for D; "saturated" is a post-localisation notion."""
    if not is_multiplicative(dd, "D")[0]:
        return "none"
    if is_two_of_six(dd)[0]:
        return "weakly-saturated"
    if is_two_of_three(dd)[0]:
        return "semi-saturated"
    return "multiplicative"


def is_weak_pushout(cat: FinCategory, square: tuple[int, int, int, int]) -> bool:
    """Weak pushout: the pushout property without uniqueness of mediators.

    ``square = (i, f, f2, i2)`` with comp(i, f2) == comp(f, i2); for every
    cocone (u, v) with comp(i, u) == comp(f, v) some mediator w must give
    comp(f2, w) == u and comp(i2, w) == v.  Exhaustive, read from the
    solution maps: for each u, the cocones are the v with comp(f, v) ==
    comp(i, u), and the mediator candidates the w with comp(f2, w) == u.
    """
    i, f, f2, i2 = square
    if cat.isrc[i] != cat.isrc[f]:
        raise DomainError("square sides do not share a corner")
    if (
        cat.isrc[f2] != cat.itgt[i]
        or cat.isrc[i2] != cat.itgt[f]
        or cat.itgt[f2] != cat.itgt[i2]
        or cat.icomp[(i, f2)] != cat.icomp[(f, i2)]
    ):
        raise DomainError("square does not commute")
    comp, right_sol = cat.icomp, cat.solution_maps()[1]
    right_f, right_f2 = right_sol[f], right_sol[f2]
    for u in cat.by_src[cat.itgt[i]]:
        mediators = right_f2.get(u, ())
        for v in right_f.get(comp[(i, u)], ()):
            for w in mediators:
                if comp[(i2, w)] == v:
                    break
            else:
                return False
    return True


def is_weak_pullback(cat: FinCategory, square: tuple[int, int, int, int]) -> bool:
    """Dual of :func:`is_weak_pushout`: a weak pushout in the opposite.

    ``square = (p, f, f2, p2)`` with comp(f2, p) == comp(p2, f); every cone
    (u, v) with comp(u, p) == comp(v, f) must factor through the corner.
    """
    return is_weak_pushout(cat.opposite(), square)


@dataclass
class WUResult:
    ok: bool
    failures: list[tuple[str, str, str]]
    pushouts: CompletionMap
    pullbacks: CompletionMap


class CompletionMap(dict):
    """The (WU) witnesses of one side, keyed by (i, f): for each pair the
    first of :func:`completions`, the plain pair (f2, i2).  ``kind``
    ("pushout-side" or "pullback-side") names the side in failure labels.

    Holds the witnesses searched so far.  Looking up any other key runs
    its search then and keeps the witness; KeyError when (i, f) is not a
    pair of this side or has no completion.  The map holds the category
    and the member set, never the :class:`DenominatorData`, so the
    certificate its structure keeps makes no reference cycle.
    """

    def __init__(self, cat: FinCategory, members: frozenset[int], kind: str):
        super().__init__()
        self.cat, self.members, self.kind = cat, members, kind

    def search(self, i: int, f: int) -> tuple[int, int] | None:
        """Find, keep and return the completion of (i, f); None if none."""
        found = next(completions(self.cat, self.members, i, f), None)
        if found is not None:
            self[(i, f)] = found
        return found

    def __missing__(self, key: tuple[int, int]) -> tuple[int, int]:
        i, f = key
        witness = None
        if i in self.members and self.cat.isrc[i] == self.cat.isrc[f]:
            witness = self.search(i, f)
        if witness is None:
            raise KeyError(key)
        return witness


def _wu_sides(dd: DenominatorData) -> tuple[CompletionMap, CompletionMap]:
    # the pullback side is the pushout side of the opposite, where T plays
    # the part of S
    return (
        CompletionMap(dd.base, dd.is_, "pushout-side"),
        CompletionMap(dd.base.opposite(), dd.it, "pullback-side"),
    )


WU_BY_GENERATORS = ("(Base)", "(S-mult)", "(T-mult)")


def check_WU(
    dd: DenominatorData, certified: AxiomCertificate | None = None
) -> WUResult:
    """Weakly universal completions for every (i in S, f) pair with a common
    source and every (p in T, f) pair with a common target.

    When ``certified`` (the certificate under construction) already passes
    (Base), (S-mult) and (T-mult), the pairs (g, f) with g in a generating
    set of S (of T over the opposite) decide the verdict: by the pasting
    lemma for weak pushouts, completions of (g1, f) and of (g2, f1) paste
    to one of (g1;g2, f).  The result then holds the generator witnesses
    plus on-demand lookup of every other key.  Otherwise, or when a
    generator pair fails, :func:`sweep_WU` decides, so the failure list is
    always complete.  Either way each key's witness is the index-smallest
    completion passing the weak universal property.
    """
    if certified is not None and certified.passes(*WU_BY_GENERATORS):
        sides = _wu_sides(dd)
        if all(
            side.search(g, f) is not None
            for side in sides
            for g in generating_set(side.cat, side.members)
            for f in side.cat.by_src[side.cat.isrc[g]]
        ):
            return WUResult(True, [], *sides)
    return sweep_WU(dd)


def sweep_WU(dd: DenominatorData) -> WUResult:
    """Exhaustive (WU): search every pair of both sides, in index order.

    Each pair's witness goes to its side's map; the pair goes to the
    failure list, as (kind, i, f) ids, when no candidate passes.
    """
    sides = _wu_sides(dd)
    failures: list[tuple[str, str, str]] = []
    for side in sides:
        cat = side.cat
        for i in sorted(side.members):
            for f in cat.by_src[cat.isrc[i]]:
                if side.search(i, f) is None:
                    failures.append((side.kind, cat.morphisms[i], cat.morphisms[f]))
    return WUResult(not failures, failures, *sides)


def completions(cat: FinCategory, members: frozenset[int], i: int, f: int):
    """Every (f2, i2) with i2 in ``members`` making (i, f, f2, i2) a weak
    pushout in ``cat``, in index order.  Over ``cat.opposite()`` with T as
    the members these are the pullback-side completions (f2, p2) of
    (p, f)."""
    for f2 in cat.by_src[cat.itgt[i]]:
        for i2 in cat.hom(cat.itgt[f], cat.itgt[f2]):
            if (
                i2 in members
                and cat.icomp[(i, f2)] == cat.icomp[(f, i2)]
                and is_weak_pushout(cat, (i, f, f2, i2))
            ):
                yield f2, i2


def generating_denominators(dd: DenominatorData) -> tuple[int, ...]:
    """A generating set of D's non-identity members under composition, in
    index order (:func:`catfrac.core.generating_set`).  Assumes (Base) and
    (Cat).  Found once per structure and kept on it."""
    return dd.keep("generators", generating_set, dd.base, dd.iden)


def factorisations(cat: FinCategory, x: int, firsts, seconds):
    """Every (i, p) with comp(i, p) == x, i from ``firsts`` and p from
    ``seconds`` (both in index order), in index order."""
    for i in firsts:
        if cat.isrc[i] != cat.isrc[x]:
            continue
        for p in seconds:
            if (
                cat.isrc[p] == cat.itgt[i]
                and cat.itgt[p] == cat.itgt[x]
                and cat.icomp[(i, p)] == x
            ):
                yield i, p


@dataclass
class FacResult:
    """(Fac) verdict: the ids of D with no factorisation, and the pair
    ``witnesses[d] == (i, p)`` of every d that has one."""

    ok: bool
    failures: list[str]
    witnesses: dict[int, tuple[int, int]]


def check_Fac(dd: DenominatorData) -> FacResult:
    """For every d in D search i in S, p in T with comp(i, p) == d.

    The lexicographically smallest (i, p) by index is kept per d, as the
    plain pair: ``witnesses[d] == (i, p)``, in the index order of D.
    """
    cat = dd.base
    witnesses: dict[int, tuple[int, int]] = {}
    failures: list[str] = []
    for d in dd.den_sorted:
        found = next(factorisations(cat, d, dd.s_sorted, dd.t_sorted), None)
        if found:
            witnesses[d] = found
        else:
            failures.append(cat.morphisms[d])
    return FacResult(not failures, failures, witnesses)


@dataclass
class AxiomCertificate:
    """Itemised uni-fractionable structure report, plus witness caches."""

    items: list[tuple[str, bool, object]] = field(default_factory=list)
    wu: WUResult | None = None
    fac: FacResult | None = None

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.items)

    def passes(self, *names: str) -> bool:
        """Whether every named axiom is decided and passed."""
        decided = {name: passed for name, passed, _ in self.items}
        return all(decided.get(name, False) for name in names)

    def failed_axioms(self) -> list[str]:
        return [name for name, passed, _ in self.items if not passed]

    def lines(self) -> list[str]:
        out = []
        for name, passed, detail in self.items:
            line = f"{name} {'PASS' if passed else 'FAIL'}"
            if not passed and detail:
                line += f" witness {detail}"
            out.append(line)
        return out


def _format_wu_failure(fail: tuple[str, str, str]) -> str:
    side, given, f = fail
    label = "i" if side == "pushout-side" else "p"
    return f"{label}={given} f={f}"


def check_uni_fractionable(dd: DenominatorData) -> AxiomCertificate:
    """Run the whole axiom battery and collect one itemised report."""
    from .core import validate_category

    cert = AxiomCertificate()
    base_report = validate_category(dd.base)
    cert.items.append(
        ("(Base)", not base_report, str(base_report[0]) if base_report else None)
    )
    if base_report:
        # every later axiom reads the composition table as total and lawful
        return cert
    ok, wit = is_multiplicative(dd, "D")
    cert.items.append(("(Cat)", ok, " ".join(wit[1:]) if wit else None))
    ok, wit = is_two_of_three(dd)
    cert.items.append(("(2 of 3)", ok, " ".join(wit) if wit else None))
    for which in ("S", "T"):
        ok, wit = is_multiplicative(dd, which)
        cert.items.append(
            (f"({which}-mult)", ok, " ".join(wit[1:]) if wit else None)
        )
    s_sub = dd.is_ <= dd.iden
    t_sub = dd.it <= dd.iden
    cert.items.append(
        (
            "(S<=D)",
            s_sub,
            None if s_sub else " ".join(dd.dump_ids(dd.is_ - dd.iden)),
        )
    )
    cert.items.append(
        (
            "(T<=D)",
            t_sub,
            None if t_sub else " ".join(dd.dump_ids(dd.it - dd.iden)),
        )
    )
    cert.wu = check_WU(dd, cert)
    cert.items.append(
        (
            "(WU)",
            cert.wu.ok,
            _format_wu_failure(cert.wu.failures[0]) if cert.wu.failures else None,
        )
    )
    cert.fac = check_Fac(dd)
    cert.items.append(
        ("(Fac)", cert.fac.ok, cert.fac.failures[0] if cert.fac.failures else None)
    )
    return cert


def is_uni_fractionable(dd: DenominatorData) -> tuple[bool, AxiomCertificate]:
    cert = dd.certificate()
    return cert.ok, cert


def require_uni_fractionable(dd: DenominatorData) -> AxiomCertificate:
    cert = dd.certificate()
    if not cert.ok:
        raise AxiomError(cert.failed_axioms())
    return cert


class AxiomError(ValueError):
    def __init__(self, axioms: list[str]):
        self.axioms = axioms
        super().__init__(f"structure axioms failed: {', '.join(axioms)}")


def validate_uf_morphism(
    fun: FunctorTable, source: DenominatorData, target: DenominatorData
) -> bool:
    """True iff the (valid) functor maps D into D, S into S and T into T."""
    from .core import validate_functor

    if validate_functor(fun):
        return False
    pairs = ((source.iden, target.iden), (source.is_, target.is_), (source.it, target.it))
    for src_set, tgt_set in pairs:
        for i in src_set:
            image = fun.mor_map[fun.source.morphisms[i]]
            if fun.target.mor_index[image] not in tgt_set:
                return False
    return True
