"""Transport of finite (co)products and hom-addition to the fraction side.

Chosen coproducts are supplied as a table (pair of objects -> coproduct
object with embeddings) plus an initial object; chosen products as the
coproduct table of the opposite category (``fileio.CoproductData``).  The
checks here verify the universal properties in the base, decide closure
of D under the induced morphism (co)products by both available routes,
and confirm that localising preserves the whole structure, embedding by
embedding, including the shared-leg induced-morphism formula.
"""

from __future__ import annotations

import itertools

from .core import DomainError, FinCategory, Violation
from .denominators import DenominatorData
from .fileio import AdditionTables, CoproductData
from .fraction import FractionCategory
from .three_arrows import ThreeArrow, common_denominator


def _unique_mediators(cat: FinCategory, c: int, e1: int, e2: int, f1: int, f2: int):
    """All u: c -> tgt(f1) with comp(e1, u) == f1 and comp(e2, u) == f2."""
    return [
        u
        for u in cat.hom(c, cat.itgt[f1])
        if cat.icomp[(e1, u)] == f1 and cat.icomp[(e2, u)] == f2
    ]


def validate_coproducts(cat: FinCategory, cp: CoproductData) -> list[Violation]:
    """Exhaustive universal-property check; empty report iff valid."""
    report: list[Violation] = []
    if cp.initial not in cat.obj_index:
        return [Violation("unknown-initial", (cp.initial,))]
    i0 = cat.obj_index[cp.initial]
    for x in range(cat.n_objects):
        if len(cat.hom(i0, x)) != 1:
            report.append(Violation("initial-not-unique", (cp.initial, cat.objects[x])))
    for x1 in cat.objects:
        for x2 in cat.objects:
            entry = cp.pairwise.get((x1, x2))
            if entry is None:
                report.append(Violation("missing-coproduct", (x1, x2)))
                continue
            cobj, emb1, emb2 = entry
            c = cat.obj_index[cobj]
            e1, e2 = cat.mor_index[emb1], cat.mor_index[emb2]
            if cat.isrc[e1] != cat.obj_index[x1] or cat.itgt[e1] != c:
                report.append(Violation("embedding-endpoints", (x1, x2, emb1)))
                continue
            if cat.isrc[e2] != cat.obj_index[x2] or cat.itgt[e2] != c:
                report.append(Violation("embedding-endpoints", (x1, x2, emb2)))
                continue
            for y in range(cat.n_objects):
                for f1 in cat.hom(cat.obj_index[x1], y):
                    for f2 in cat.hom(cat.obj_index[x2], y):
                        if len(_unique_mediators(cat, c, e1, e2, f1, f2)) != 1:
                            report.append(
                                Violation(
                                    "coproduct-universal-property",
                                    (x1, x2, cat.morphisms[f1], cat.morphisms[f2]),
                                )
                            )
    return report


def validate_products(cat: FinCategory, pd: CoproductData) -> list[Violation]:
    """Exhaustive universal-property check; empty report iff valid.

    Decided as the coproduct check of the opposite category, with the
    violation codes renamed to their product duals.
    """
    return _dual_codes(validate_coproducts(cat.opposite(), pd))


def _dual_codes(report: list[Violation]) -> list[Violation]:
    """Coproduct violation codes renamed to their product duals."""
    for word, dual in (
        ("initial", "terminal"), ("coproduct", "product"), ("embedding", "projection")
    ):
        report = [Violation(v.code.replace(word, dual), v.ids) for v in report]
    return report


def _chosen_embeddings(cat: FinCategory, cp: CoproductData, x1: str, x2: str):
    """(object, emb1, emb2) chosen for the pair, as indices, endpoints checked."""
    cobj, emb1, emb2 = cp.pairwise[(x1, x2)]
    c, e1, e2 = cat.obj_index[cobj], cat.mor_index[emb1], cat.mor_index[emb2]
    if (cat.isrc[e1], cat.itgt[e1], cat.isrc[e2], cat.itgt[e2]) != (
        cat.obj_index[x1], c, cat.obj_index[x2], c
    ):
        raise DomainError(f"chosen maps for the pair ({x1}, {x2}) have wrong endpoints")
    return c, e1, e2


def coproduct_induced(cat: FinCategory, cp: CoproductData, x1: str, x2: str,
                      f1: int, f2: int) -> int:
    mediators = _unique_mediators(cat, *_chosen_embeddings(cat, cp, x1, x2), f1, f2)
    if len(mediators) != 1:
        raise DomainError(f"no unique mediator for the pair ({x1}, {x2})")
    return mediators[0]


def coproduct_of_morphisms(cat: FinCategory, cp: CoproductData,
                           d: int, e: int) -> int:
    """d + e, the induced morphism between the chosen coproducts."""
    x1, x2 = cat.objects[cat.isrc[d]], cat.objects[cat.isrc[e]]
    y1, y2 = cat.objects[cat.itgt[d]], cat.objects[cat.itgt[e]]
    _, emb1, emb2 = _chosen_embeddings(cat, cp, y1, y2)
    return coproduct_induced(
        cat, cp, x1, x2, cat.icomp[(d, emb1)], cat.icomp[(e, emb2)]
    )


def product_induced(cat: FinCategory, pd: CoproductData, y1: str, y2: str,
                    f1: int, f2: int) -> int:
    """The mediator into y1 x y2: the coproduct mediator of the opposite."""
    return coproduct_induced(cat.opposite(), pd, y1, y2, f1, f2)


def product_of_morphisms(cat: FinCategory, pd: CoproductData, d: int, e: int) -> int:
    """d x e, the induced morphism between the chosen products."""
    return coproduct_of_morphisms(cat.opposite(), pd, d, e)


def denominators_closed_under_coproducts(
    dd: DenominatorData, cp: CoproductData
) -> tuple[bool, tuple[str, str] | None]:
    """Closure of D under morphism coproducts, decided over D x D; the
    witness is the first pair in index order whose coproduct leaves D."""
    cat = dd.base
    for d in dd.den_sorted:
        for e in dd.den_sorted:
            if coproduct_of_morphisms(cat, cp, d, e) not in dd.iden:
                return False, (cat.morphisms[d], cat.morphisms[e])
    return True, None


def denominators_closed_under_products(
    dd: DenominatorData, pd: CoproductData
) -> tuple[bool, tuple[str, str] | None]:
    """Closure of D under morphism products: coproduct closure of the
    opposite structure."""
    return denominators_closed_under_coproducts(dd.opposite(), pd)


def _preservation_sweep(
    cat: FinCategory, fr: FinCategory, fc: FractionCategory, cp: CoproductData,
    formula, formula_code: str,
) -> list[Violation]:
    """Initial object, pairwise coproducts and the induced-class formula.

    ``cat`` and ``fr`` are the base and the fraction category, or both
    opposites; ``formula(t1, t2)`` gives the three-arrow whose class must
    be the mediator of the classes of t1 and t2.  Only the tables are read
    here, so the sweep runs unchanged over the opposites.
    """
    report: list[Violation] = []
    loc, part = fc.localisation.mor_map, fc.partition
    i0 = fr.obj_index[cp.initial]
    for x in range(fr.n_objects):
        hom = fr.hom(i0, x)
        if len(hom) != 1:
            report.append(Violation("fraction-initial", (cp.initial, fr.objects[x])))
            continue
        base = cat.hom(cat.obj_index[cp.initial], x)
        if not base:
            raise DomainError(
                f"no base arrow between {cp.initial} and {cat.objects[x]}"
            )
        if fr.morphisms[hom[0]] != loc[cat.morphisms[base[0]]]:
            report.append(
                Violation("fraction-initial-map", (cp.initial, fr.objects[x]))
            )
    for x1, x2 in itertools.product(cat.objects, repeat=2):
        cobj, emb1, emb2 = cp.pairwise[(x1, x2)]
        le1, le2 = fr.mor_index[loc[emb1]], fr.mor_index[loc[emb2]]
        c = fr.obj_index[cobj]
        for y in range(fr.n_objects):
            for phi1 in fr.hom(fr.obj_index[x1], y):
                for phi2 in fr.hom(fr.obj_index[x2], y):
                    ids = (x1, x2, fr.morphisms[phi1], fr.morphisms[phi2])
                    mediators = _unique_mediators(fr, c, le1, le2, phi1, phi2)
                    if len(mediators) != 1:
                        report.append(Violation("fraction-coproduct", ids))
                        continue
                    # shared-leg representatives realise the mediator
                    t1, t2 = (
                        part.representative(part.group_of_id(cid)) for cid in ids[2:]
                    )
                    cid = part.class_id(formula(t1, t2))
                    if cid != fr.morphisms[mediators[0]]:
                        report.append(Violation(formula_code, ids + (cid,)))
    return report


def check_localisation_preserves_coproducts(
    fc: FractionCategory, cp: CoproductData
) -> list[Violation]:
    """Initial object, pairwise coproducts and the induced-class formula.

    The localised initial object must stay initial; each localised
    coproduct must satisfy the universal property against localised
    embeddings; and for every pair of classes with a common target the
    mediator must equal the class of (b1 + b2, induced middle, shared a),
    computed on shared-leg representatives.
    """
    dd, cat = fc.dd, fc.dd.base
    closed, wit = denominators_closed_under_coproducts(dd, cp)
    if not closed:
        raise DomainError(f"denominators not closed under coproducts: {wit}")

    def formula(t1: ThreeArrow, t2: ThreeArrow) -> ThreeArrow:
        s1, s2 = common_denominator(dd, t1, t2, "target")
        bsum = coproduct_of_morphisms(cat, cp, s1.b, s2.b)
        middle = coproduct_induced(
            cat, cp, cat.objects[cat.isrc[s1.f]], cat.objects[cat.isrc[s2.f]],
            s1.f, s2.f,
        )
        return ThreeArrow(bsum, middle, s1.a)

    return _preservation_sweep(
        cat, fc.as_category, fc, cp, formula, "induced-class-formula"
    )


def check_localisation_preserves_products(
    fc: FractionCategory, pd: CoproductData
) -> list[Violation]:
    """Terminal object, pairwise products and the induced-class formula.

    The coproduct sweep over the opposite base and fraction categories,
    with the codes renamed to their product duals.  The formula itself
    stays on the original structure: it reads the (Fac) and pullback
    caches through ``common_denominator(..., "source")``.
    """
    dd, cat = fc.dd, fc.dd.base
    closed, wit = denominators_closed_under_products(dd, pd)
    if not closed:
        raise DomainError(f"denominators not closed under products: {wit}")

    def formula(t1: ThreeArrow, t2: ThreeArrow) -> ThreeArrow:
        s1, s2 = common_denominator(dd, t1, t2, "source")
        asum = product_of_morphisms(cat, pd, s1.a, s2.a)
        middle = product_induced(
            cat, pd, cat.objects[cat.itgt[s1.f]], cat.objects[cat.itgt[s2.f]],
            s1.f, s2.f,
        )
        return ThreeArrow(s1.b, middle, asum)

    return _dual_codes(_preservation_sweep(
        cat.opposite(), fc.as_category.opposite(), fc, pd,
        formula, "induced-class-formula-product",
    ))


def validate_addition(cat: FinCategory, add: AdditionTables) -> list[Violation]:
    """Commutative-monoid laws per hom-set plus bilinearity over composition."""
    report: list[Violation] = []
    homs: dict[tuple[str, str], list[str]] = {}
    for f in cat.morphisms:
        homs.setdefault((cat.src_of(f), cat.tgt_of(f)), []).append(f)
    for key, members in homs.items():
        z = add.zero.get(key)
        if z is None or z not in members:
            report.append(Violation("missing-zero", key))
            continue
        for f in members:
            for g in members:
                s = add.plus.get((f, g))
                if s is None or s not in members:
                    report.append(Violation("missing-sum", (f, g)))
                    continue
                if add.plus.get((g, f)) != s:
                    report.append(Violation("not-commutative", (f, g)))
            if add.plus.get((f, z)) != f:
                report.append(Violation("zero-law", (f,)))
            for g in members:
                for h in members:
                    fg, gh = add.plus.get((f, g)), add.plus.get((g, h))
                    if fg is None or gh is None:
                        continue  # already reported as a missing sum
                    if add.plus.get((fg, h)) != add.plus.get((f, gh)):
                        report.append(Violation("not-associative", (f, g, h)))
    if report:
        return report
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.tgt_of(f) != cat.src_of(g):
                continue
            for g2 in homs[(cat.src_of(g), cat.tgt_of(g))]:
                lhs = cat.compose(f, add.plus[(g, g2)])
                rhs = add.plus[(cat.compose(f, g), cat.compose(f, g2))]
                if lhs != rhs:
                    report.append(Violation("left-bilinearity", (f, g, g2)))
            for f2 in homs[(cat.src_of(f), cat.tgt_of(f))]:
                lhs = cat.compose(add.plus[(f, f2)], g)
                rhs = add.plus[(cat.compose(f, g), cat.compose(f2, g))]
                if lhs != rhs:
                    report.append(Violation("right-bilinearity", (f, f2, g)))
    return report


def sum_formula_check(fc: FractionCategory, add: AdditionTables) -> list[Violation]:
    """[b/f/a] + [b/g/a] == [b/(f+g)/a] and well-definedness of the
    transported addition over all shared-leg representative pairs."""
    dd, cat = fc.dd, fc.dd.base
    bad = validate_addition(cat, add)
    if bad:
        raise DomainError(f"addition tables invalid: {bad[0]}")
    report: list[Violation] = []
    part = fc.partition
    # the three-arrows by outer legs (b, a), in enumeration order: each is
    # paired only with those sharing both its legs
    by_legs: dict[tuple[int, int], list[ThreeArrow]] = {}
    for t in part.arrows:
        by_legs.setdefault((t.b, t.a), []).append(t)
    class_sum: dict[tuple[int, int], int] = {}
    for t1 in part.arrows:
        for t2 in by_legs[(t1.b, t1.a)]:
            f_plus_g = cat.mor_index[
                add.plus[(cat.morphisms[t1.f], cat.morphisms[t2.f])]
            ]
            total = part.class_index(ThreeArrow(t1.b, f_plus_g, t1.a))
            key = (part.class_index(t1), part.class_index(t2))
            if key in class_sum and class_sum[key] != total:
                report.append(
                    Violation(
                        "sum-not-well-defined",
                        (t1.ids(dd), t2.ids(dd), part.class_ids[total]),
                    )
                )
            class_sum[key] = total
    return report
