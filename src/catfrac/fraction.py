"""The fraction category: classes of three-arrows with composition.

Composing [b1/f1/a1] and [b2/f2/a2] (strict mode) replays the
construction behind well-definedness: factor the denominator b2 a1 into
an S-part j and a T-part q, pull f1 back against q, push f2 out along j,
and read off (q1 b1, f1' f2', a2 j1).  Lax mode instead searches the
index-smallest arbitrary commuting squares with denominator sides; both
modes land in the same class, which the verification sweeps check
exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DomainError,
    FinCategory,
    FunctorTable,
    InvariantError,
    find_inverse,
    isomorphisms,
    validate_functor,
)
from .denominators import (
    DenominatorData,
    factorisations,
    require_uni_fractionable,
)
from .fileio import Instance
from .three_arrows import (
    FractionPartition,
    ThreeArrow,
    check_three_arrow,
    fraction_equivalence,
    identity_arrow,
    source_of,
    target_of,
)


def strict_composite(
    dd: DenominatorData, t1: ThreeArrow, t2: ThreeArrow
) -> ThreeArrow:
    """One strict-mode composite representative, from the cached witnesses."""
    cert = dd.certificate()
    cat = dd.base
    b2a1 = cat.icomp[(t2.b, t1.a)]
    i, p = cert.fac.witnesses[b2a1]
    f1p, q1 = cert.wu.pullbacks[(p, t1.f)]
    f2p, j1 = cert.wu.pushouts[(i, t2.f)]
    return ThreeArrow(
        cat.icomp[(q1, t1.b)],
        cat.icomp[(f1p, f2p)],
        cat.icomp[(t2.a, j1)],
    )


def lax_composite(
    dd: DenominatorData, t1: ThreeArrow, t2: ThreeArrow
) -> ThreeArrow:
    """Index-smallest composite via arbitrary commuting denominator squares."""
    for t in lax_composites_all(dd, t1, t2):
        return t
    raise InvariantError("no commuting completion on a certified structure")


def lax_composites_all(dd: DenominatorData, t1: ThreeArrow, t2: ThreeArrow):
    """Every lax-mode composite: b2 a1 = d e, g1 e = e1 f1, d g2 = f2 d1
    with d, e, d1, e1 denominators and arbitrary middles g1, g2."""
    cat = dd.base
    left_sol, right_sol = cat.solution_maps()
    b2a1 = cat.icomp[(t2.b, t1.a)]
    for d, e in factorisations(cat, b2a1, dd.den_sorted, dd.den_sorted):
        left_e, right_d = left_sol[e], right_sol[d]
        for e1 in dd.den_sorted:
            if cat.itgt[e1] != cat.isrc[t1.f]:
                continue
            for g1 in left_e.get(cat.icomp[(e1, t1.f)], ()):
                for d1 in dd.den_sorted:
                    if cat.isrc[d1] != cat.itgt[t2.f]:
                        continue
                    for g2 in right_d.get(cat.icomp[(t2.f, d1)], ()):
                        yield ThreeArrow(
                            cat.icomp[(e1, t1.b)],
                            cat.icomp[(g1, g2)],
                            cat.icomp[(t2.a, d1)],
                        )


def compose_fractions(
    dd: DenominatorData,
    part: FractionPartition,
    t1: ThreeArrow,
    t2: ThreeArrow,
    strict: bool = True,
) -> int:
    """Class index of [t1][t2]; requires target(t1) == source(t2)."""
    if target_of(dd, t1) != source_of(dd, t2):
        raise DomainError(
            f"not composable: {t1.ids(dd)} ends at a different object "
            f"than {t2.ids(dd)} starts"
        )
    rep = strict_composite(dd, t1, t2) if strict else lax_composite(dd, t1, t2)
    return part.class_index(rep)


class FractionCategory:
    """The category of fraction-equality classes of three-arrows, fully tabulated."""

    def __init__(
        self,
        dd: DenominatorData,
        part: FractionPartition,
        as_category: FinCategory,
        localisation: FunctorTable,
    ):
        self.dd = dd
        self.partition = part
        self.as_category = as_category
        self.localisation = localisation

    def class_id(self, t: ThreeArrow) -> str:
        return self.partition.class_id(t)


def build_fraction_category(dd: DenominatorData) -> FractionCategory:
    """Assemble the fraction category over a certified structure.

    The composition table is computed once per composable class pair from
    the index-smallest representatives in strict mode; identities are the
    classes of (1, 1, 1).
    """
    require_uni_fractionable(dd)
    cat = dd.base
    part = fraction_equivalence(dd)
    n = len(part)
    src = {}
    tgt = {}
    # classes by source object, in class order: the composable partners
    by_source: list[list[int]] = [[] for _ in range(cat.n_objects)]
    for gi in range(n):
        rep = part.representative(gi)
        src[part.class_ids[gi]] = cat.objects[source_of(dd, rep)]
        tgt[part.class_ids[gi]] = cat.objects[target_of(dd, rep)]
        by_source[source_of(dd, rep)].append(gi)
    identity = {
        cat.objects[x]: part.class_ids[part.class_index(identity_arrow(dd, x))]
        for x in range(cat.n_objects)
    }
    comp: dict[tuple[str, str], str] = {}
    for g1 in range(n):
        rep1 = part.representative(g1)
        for g2 in by_source[target_of(dd, rep1)]:
            rep2 = part.representative(g2)
            g = compose_fractions(dd, part, rep1, rep2, strict=True)
            comp[(part.class_ids[g1], part.class_ids[g2])] = part.class_ids[g]
    # the fraction category only depends on (base, D), so it is named after
    # the base, not after the S/T-carrying structure
    as_category = FinCategory(
        f"Fr({cat.name})", list(cat.objects), list(part.class_ids), src, tgt,
        identity, comp,
    )
    loc = FunctorTable(
        cat,
        as_category,
        {x: x for x in cat.objects},
        {
            f: part.class_ids[
                part.class_index(
                    ThreeArrow(
                        cat.iidentity[cat.isrc[i]], i, cat.iidentity[cat.itgt[i]]
                    )
                )
            ]
            for i, f in enumerate(cat.morphisms)
        },
    )
    return FractionCategory(dd, part, as_category, loc)


def inverse_of_denominator(fc: FractionCategory, d: str) -> str:
    """Class of (d, 1, 1), the two-sided inverse of the localised ``d``."""
    dd, cat = fc.dd, fc.dd.base
    i = cat.mor_index[d]
    if i not in dd.iden:
        raise DomainError(f"{d!r} is not a denominator")
    e_src = cat.iidentity[cat.isrc[i]]
    return fc.partition.class_id(ThreeArrow(i, e_src, e_src))


def invert_class(fc: FractionCategory, t: ThreeArrow) -> str:
    """Inverse class of [t] for t with a denominator middle.

    Factors the middle as d1 d2 (S then T, cached), Ore-completes d1
    against b and d2 against a, and returns [d2c / ac bc / d1c].
    """
    dd, cat = fc.dd, fc.dd.base
    cert = dd.certificate()
    check_three_arrow(dd, t)
    if t.f not in dd.iden:
        raise DomainError("middle component is not a denominator")
    d1, d2 = cert.fac.witnesses[t.f]
    bc, d1c = cert.wu.pushouts[(d1, t.b)]
    ac, d2c = cert.wu.pullbacks[(d2, t.a)]
    return fc.partition.class_id(ThreeArrow(d2c, cat.icomp[(ac, bc)], d1c))


def _target_inverse(target: FinCategory, f: str) -> str:
    inv = find_inverse(target, f)
    if inv is None:
        raise DomainError(f"image {f!r} is not invertible in the target")
    return inv


def _require_inverting(dd: DenominatorData, fun: FunctorTable) -> None:
    if validate_functor(fun):
        raise DomainError("input is not a functor")
    for d in dd.den_sorted:
        _target_inverse(fun.target, fun.mor_map[dd.base.morphisms[d]])


def induced_functor(fc: FractionCategory, fun: FunctorTable) -> FunctorTable:
    """The unique functor out of the fraction category extending ``fun``.

    On a class of (b, f, a) the value is F(b)^-1 F(f) F(a)^-1 computed in
    the target, read off the class representative.
    """
    dd = fc.dd
    _require_inverting(dd, fun)
    tgt = fun.target

    def value(t: ThreeArrow) -> str:
        m = dd.base.morphisms
        fb_inv = _target_inverse(tgt, fun.mor_map[m[t.b]])
        fa_inv = _target_inverse(tgt, fun.mor_map[m[t.a]])
        return tgt.compose(tgt.compose(fb_inv, fun.mor_map[m[t.f]]), fa_inv)

    part = fc.partition
    return FunctorTable(
        fc.as_category,
        tgt,
        {x: fun.obj_map[x] for x in fc.as_category.objects},
        {
            cid: value(part.representative(gi))
            for gi, cid in enumerate(part.class_ids)
        },
    )


def induced_transformation(
    fc: FractionCategory,
    fun_f: FunctorTable,
    fun_g: FunctorTable,
    alpha: dict[str, str],
) -> dict[str, str]:
    """Lift a transformation along the localisation: same components.

    ``alpha`` maps each base object to a target morphism F X -> G X;
    both functors must invert D, and ``alpha`` must be natural on the base.
    """
    dd, tgt = fc.dd, fun_f.target
    cat = dd.base
    for f in cat.morphisms:
        lhs = tgt.compose(fun_f.mor_map[f], alpha[cat.tgt_of(f)])
        rhs = tgt.compose(alpha[cat.src_of(f)], fun_g.mor_map[f])
        if lhs != rhs:
            raise DomainError(f"input transformation not natural at {f!r}")
    _require_inverting(dd, fun_f)
    _require_inverting(dd, fun_g)
    return dict(alpha)


def induced_functor_on_fractions(
    fun: FunctorTable, fc_src: FractionCategory, fc_tgt: FractionCategory
) -> FunctorTable:
    """Componentwise image functor between fraction categories.

    Requires ``fun`` to preserve denominators; each class goes to the
    class of its representative's image.
    """
    dsrc, dtgt = fc_src.dd, fc_tgt.dd
    if validate_functor(fun):
        raise DomainError("input is not a functor")
    msrc = dsrc.base.morphisms
    for d in dsrc.den_sorted:
        if fun.target.mor_index[fun.mor_map[msrc[d]]] not in dtgt.iden:
            raise DomainError(f"denominator {msrc[d]!r} not preserved")

    def image(t: ThreeArrow) -> ThreeArrow:
        mi = fun.target.mor_index
        return ThreeArrow(
            mi[fun.mor_map[msrc[t.b]]],
            mi[fun.mor_map[msrc[t.f]]],
            mi[fun.mor_map[msrc[t.a]]],
        )

    part = fc_src.partition
    return FunctorTable(
        fc_src.as_category,
        fc_tgt.as_category,
        {x: fun.obj_map[x] for x in fc_src.as_category.objects},
        {
            cid: fc_tgt.class_id(image(part.representative(gi)))
            for gi, cid in enumerate(part.class_ids)
        },
    )


def classify_isomorphisms(fc: FractionCategory) -> set[str]:
    """Invertible classes, straight from the composition table.

    On a weakly saturated base these are the classes whose middle is a
    denominator.
    """
    return isomorphisms(fc.as_category)


def is_saturated(fc: FractionCategory) -> bool:
    """Whether every base morphism with invertible image lies in D.

    For a certified structure this is equivalent to weak saturation.
    """
    dd = fc.dd
    isos = isomorphisms(fc.as_category)
    return all(
        fc.localisation.mor_map[f] not in isos
        or dd.base.mor_index[f] in dd.iden
        for f in dd.base.morphisms
    )


def st_independence_check(dd1: DenominatorData, dd2: DenominatorData) -> bool:
    """Whether two structures on the same (base, D) localise identically."""
    if not dd1.base.table_equal(dd2.base) or dd1.iden != dd2.iden:
        raise DomainError("structures do not share base and denominators")
    fc1 = build_fraction_category(dd1)
    fc2 = build_fraction_category(dd2)
    return (
        fc1.partition.groups == fc2.partition.groups
        and fc1.as_category.table_equal(fc2.as_category)
        and fc1.localisation.mor_map == fc2.localisation.mor_map
    )


def full_subcategory(dd: DenominatorData, objects: list[str]) -> DenominatorData:
    """The full subcategory on ``objects`` with restricted D, S, T;
    DomainError names the first id that is not an object of the base."""
    cat, inside = dd.base, set(objects)
    for x in objects:
        if x not in cat.obj_index:
            raise DomainError(f"unknown object id {x!r}")
    keep_obj = [x for x in cat.objects if x in inside]
    keep = [f for f in cat.morphisms if {cat.src_of(f), cat.tgt_of(f)} <= inside]
    keep_set = set(keep)
    sub = FinCategory(
        f"{dd.name}|{','.join(keep_obj)}",
        keep_obj,
        keep,
        {f: cat.src_of(f) for f in keep},
        {f: cat.tgt_of(f) for f in keep},
        {x: cat.identity_of(x) for x in keep_obj},
        {
            (f, g): cat.compose(f, g)
            for f in keep
            for g in keep
            if cat.tgt_of(f) == cat.src_of(g)
        },
    )
    mor = cat.morphisms
    return DenominatorData(
        sub,
        [mor[i] for i in dd.den_sorted if mor[i] in keep_set],
        [mor[i] for i in dd.s_sorted if mor[i] in keep_set],
        [mor[i] for i in dd.t_sorted if mor[i] in keep_set],
        name=sub.name,
    )


@dataclass
class SubcategoryReport:
    variant: str
    sub_uni_fractionable: bool
    hypothesis_ok: bool
    hypothesis_failures: list[str]
    full: bool
    faithful: bool
    dense: bool

    @property
    def equivalence(self) -> bool:
        return self.full and self.faithful and self.dense

    def lines(self) -> list[str]:
        out = [
            f"subcategory-uni-fractionable "
            f"{'PASS' if self.sub_uni_fractionable else 'FAIL'}",
            f"hypothesis({self.variant}) {'PASS' if self.hypothesis_ok else 'FAIL'}",
        ]
        out += [f"  {msg}" for msg in self.hypothesis_failures]
        out += [
            f"full {'PASS' if self.full else 'FAIL'}",
            f"faithful {'PASS' if self.faithful else 'FAIL'}",
            f"dense {'PASS' if self.dense else 'FAIL'}",
            f"equivalence {'PASS' if self.equivalence else 'FAIL'}",
        ]
        return out


def subcategory_equivalence(
    dd: DenominatorData, objects: list[str], variant: str
) -> SubcategoryReport:
    """Check the resolution hypothesis for a full subcategory and then test
    the induced comparison functor for being full, faithful and dense.

    The equivalence is decided exhaustively on the two finished fraction
    categories whether or not the hypothesis holds; a failed hypothesis is
    reported rather than fatal.
    """
    if variant not in ("s-resolution", "t-resolution"):
        raise DomainError(f"unknown variant {variant!r}")
    if not objects:
        raise DomainError("object subset must be nonempty")
    sub = full_subcategory(dd, objects)
    inside = set(objects)
    # t-resolution is the s-resolution hypothesis of the opposite, T for S
    if variant == "s-resolution":
        cat, pool = dd.base, dd.s_sorted
        no_hit = "no denominator into {} from the subcategory"
        escapes = "S-denominator {} leaves the subcategory"
    else:
        cat, pool = dd.base.opposite(), dd.t_sorted
        no_hit = "no denominator out of {} into the subcategory"
        escapes = "T-denominator {} enters from outside"
    failures = [
        no_hit.format(x)
        for y, x in enumerate(cat.objects)
        if not any(
            cat.itgt[d] == y and cat.objects[cat.isrc[d]] in inside
            for d in dd.den_sorted
        )
    ]
    failures += [
        escapes.format(cat.morphisms[i])
        for i in pool
        if cat.objects[cat.isrc[i]] in inside
        and cat.objects[cat.itgt[i]] not in inside
    ]

    sub_ok = sub.certificate().ok
    if not sub_ok:
        return SubcategoryReport(
            variant, False, not failures, failures, False, False, False
        )
    fc_sub = build_fraction_category(sub)
    fc_all = build_fraction_category(dd)
    inclusion = FunctorTable(
        sub.base,
        dd.base,
        {x: x for x in sub.base.objects},
        {f: f for f in sub.base.morphisms},
    )
    fr_inc = induced_functor_on_fractions(inclusion, fc_sub, fc_all)

    full = True
    faithful = True
    fr_all, fr_sub = fc_all.as_category, fc_sub.as_category
    for u in sub.base.objects:
        for v in sub.base.objects:
            sub_hom = fr_sub.hom(fr_sub.obj_index[u], fr_sub.obj_index[v])
            images = [
                fr_inc.mor_map[fr_sub.morphisms[c]] for c in sub_hom
            ]
            big_hom = {
                fr_all.morphisms[c]
                for c in fr_all.hom(fr_all.obj_index[u], fr_all.obj_index[v])
            }
            if set(images) != big_hom:
                full = False
            if len(set(images)) != len(images):
                faithful = False
    isos = isomorphisms(fr_all)
    dense = True
    for x in fr_all.objects:
        ok = any(
            fr_all.morphisms[c] in isos
            for u in inside
            for c in fr_all.hom(fr_all.obj_index[u], fr_all.obj_index[x])
        )
        if not ok:
            dense = False
    return SubcategoryReport(
        variant, True, not failures, failures, full, faithful, dense
    )


def fraction_instance(fc: FractionCategory) -> Instance:
    """File-format document for a built fraction category.

    The emitted denominator structure is the isomorphism classes (with
    S = T = D), which is closed and saturated, so the output reloads as a
    valid structure.  ``classes`` lists every member of each class and
    ``localisation`` maps base morphisms to their classes.
    """
    isos = sorted(
        isomorphisms(fc.as_category), key=lambda c: fc.as_category.mor_index[c]
    )
    classes = {
        cid: [t.ids(fc.dd) for t in fc.partition.members(gi)]
        for gi, cid in enumerate(fc.partition.class_ids)
    }
    return Instance(
        category=fc.as_category,
        denominators=isos,
        s_denominators=isos,
        t_denominators=isos,
        classes=classes,
        localisation={
            f: fc.localisation.mor_map[f] for f in fc.dd.base.morphisms
        },
    )


def fraction_dot(fc: FractionCategory) -> str:
    """Graphviz rendering: objects as nodes, classes as labelled edges."""
    lines = [f'digraph "{fc.as_category.name}" {{']
    for x in fc.as_category.objects:
        lines.append(f'  "{x}";')
    for gi, cid in enumerate(fc.partition.class_ids):
        rep = fc.partition.representative(gi)
        s = fc.dd.base.objects[source_of(fc.dd, rep)]
        t = fc.dd.base.objects[target_of(fc.dd, rep)]
        lines.append(f'  "{s}" -> "{t}" [label="{cid}: {rep.ids(fc.dd)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
