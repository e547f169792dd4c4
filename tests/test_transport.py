from types import SimpleNamespace

import pytest

from catfrac.core import DomainError, Violation
from catfrac.fileio import AdditionTables, CoproductData
from catfrac.fraction import build_fraction_category
from catfrac.instances import (
    chain,
    make_named,
    make_poset,
    poset_coproducts,
    poset_products,
)
from catfrac.three_arrows import ThreeArrow
from catfrac.transport import (
    check_localisation_preserves_coproducts,
    check_localisation_preserves_products,
    coproduct_of_morphisms,
    denominators_closed_under_coproducts,
    denominators_closed_under_products,
    product_of_morphisms,
    sum_formula_check,
    validate_addition,
    validate_coproducts,
    validate_products,
)

from conftest import CROSS_CHECK, cross_check_fc, poset_addition, z2_shell, zmod


@pytest.mark.parametrize("name", ("CH3", "DIA"))
def test_poset_joins_are_coproducts(name, named):
    dd = named[name]
    assert validate_coproducts(dd.base, poset_coproducts(dd)) == []
    assert validate_products(dd.base, poset_products(dd)) == []


def test_planted_wrong_embedding_reported(named):
    dd = named["CH3"]
    cp = poset_coproducts(dd)
    cp.pairwise[("0", "1")] = ("2", "m_0_2", "m_1_2")
    report = validate_coproducts(dd.base, cp)
    assert any(v.code == "coproduct-universal-property" for v in report)


def test_planted_wrong_projection_reported(named):
    dd = named["CH3"]
    pd = poset_products(dd)
    # the dual plant: 0 with valid projections in place of the meet 1 of (1, 2)
    pd.pairwise[("1", "2")] = ("0", "m_0_1", "m_0_2")
    report = validate_products(dd.base, pd)
    assert Violation("product-universal-property", ("1", "2", "i_1", "m_1_2")) in report
    # swapped projections of a poset product never end where they should
    pd = poset_products(dd)
    obj, pr1, pr2 = pd.pairwise[("0", "1")]
    pd.pairwise[("0", "1")] = (obj, pr2, pr1)
    assert validate_products(dd.base, pd) == [
        Violation("projection-endpoints", ("0", "1", pr2))
    ]


def test_ch3_denominator_closure_trace(named):
    dd = named["CH3"]
    cp = poset_coproducts(dd)
    cat = dd.base
    mi = cat.mor_index
    m01 = mi["m_0_1"]
    # (0<=1) + (0<=1) is 0<=1 again, (0<=1) + 1_2 collapses to 1_2
    assert cat.morphisms[coproduct_of_morphisms(cat, cp, m01, m01)] == "m_0_1"
    assert cat.morphisms[coproduct_of_morphisms(cat, cp, m01, mi["i_2"])] == "i_2"
    closed, witness = denominators_closed_under_coproducts(dd, cp)
    assert closed and witness is None


def test_dia_closure_trivial(named):
    dd = named["DIA"]
    assert denominators_closed_under_coproducts(dd, poset_coproducts(dd))[0]
    assert denominators_closed_under_products(dd, poset_products(dd))[0]


def test_planted_coproduct_table_breaks_closure(named):
    dd = named["CH3"]
    cp = poset_coproducts(dd)
    # reroute the (1, 1) coproduct to 2, making (0<=1)+(0<=1) = 0<=2
    cp.pairwise[("1", "1")] = ("2", "m_1_2", "m_1_2")
    cat = dd.base
    m01 = cat.mor_index["m_0_1"]
    assert cat.morphisms[coproduct_of_morphisms(cat, cp, m01, m01)] == "m_0_2"
    closed, witness = denominators_closed_under_coproducts(dd, cp)
    assert not closed and witness == ("m_0_1", "m_0_1")


def closure_problems(dd, kind, table, decide=None):
    """The verdict and witness of ``decide`` (the library's closure test
    by default) against the D x D sweep, and the verdict against the
    shortcut: S x S and T x T suffice on a uni-fractionable structure,
    since d + e factors through i + j followed by p + q."""
    coproducts = kind == "coproducts"
    of = coproduct_of_morphisms if coproducts else product_of_morphisms
    if decide is None:
        decide = (denominators_closed_under_coproducts if coproducts
                  else denominators_closed_under_products)
    cat, den = dd.base, dd.iden
    verdict = decide(dd, table)
    leaving = [
        (cat.morphisms[d], cat.morphisms[e])
        for d in dd.den_sorted for e in dd.den_sorted
        if of(cat, table, d, e) not in den
    ]
    sweep = (not leaving, leaving[0] if leaving else None)
    problems = [] if verdict == sweep else [f"{verdict} != sweep {sweep}"]
    shortcut = all(
        of(cat, table, i, j) in den
        for pool in (dd.s_sorted, dd.t_sorted) for i in pool for j in pool
    )
    if dd.certificate().ok and verdict[0] != shortcut:
        problems.append(f"{verdict} != shortcut {shortcut}")
    return problems


def closure_cases():
    """(id, structure, kind, table): every poset of the cross-check ladder
    with its joins and its meets, and CH3 with a planted (1, 1) coproduct
    that breaks closure."""
    cases = []
    for name in CROSS_CHECK:
        dd = cross_check_fc(name).dd
        if name not in ("PAR", "Z4"):
            cases.append((f"{name}-coproducts", dd, "coproducts", poset_coproducts(dd)))
            cases.append((f"{name}-products", dd, "products", poset_products(dd)))
    dd = cross_check_fc("CH3").dd
    planted = poset_coproducts(dd)
    planted.pairwise[("1", "1")] = ("2", "m_1_2", "m_1_2")
    return cases + [("CH3-planted-coproducts", dd, "coproducts", planted)]


CLOSURE_CASES = closure_cases()


@pytest.mark.parametrize("case", CLOSURE_CASES, ids=lambda case: case[0])
def test_closure_routes_agree(case):
    _, dd, kind, table = case
    assert closure_problems(dd, kind, table) == []


def test_planted_wrong_closure_verdict_is_caught():
    _, dd, kind, planted = CLOSURE_CASES[-1]
    assert closure_problems(dd, kind, planted, lambda dd, table: (True, None)) == [
        "(True, None) != sweep (False, ('m_0_1', 'm_0_1'))",
        "(True, None) != shortcut False",
    ]


@pytest.mark.parametrize("name", ("CH3", "DIA"))
def test_localisation_preserves_coproducts_and_products(name, named):
    dd = named[name]
    fc = build_fraction_category(dd)
    assert check_localisation_preserves_coproducts(fc, poset_coproducts(dd)) == []
    assert check_localisation_preserves_products(fc, poset_products(dd)) == []


def test_preservation_requires_closure(named):
    dd = named["CH3"]
    cp = poset_coproducts(dd)
    cp.pairwise[("1", "1")] = ("2", "m_1_2", "m_1_2")
    fc = build_fraction_category(dd)
    with pytest.raises(DomainError):
        check_localisation_preserves_coproducts(fc, cp)


@pytest.mark.parametrize("name", ("CH3", "DIA"))
def test_saturated_converse_direction(name, named):
    # part (b): on a saturated instance, preservation forces closure; both
    # facts hold here, which is the only finitely realisable configuration
    from catfrac.fraction import is_saturated

    dd = named[name]
    fc = build_fraction_category(dd)
    assert is_saturated(fc)
    preserved = check_localisation_preserves_coproducts(fc, poset_coproducts(dd)) == []
    closed = denominators_closed_under_coproducts(dd, poset_coproducts(dd))[0]
    assert (not preserved) or closed


def test_addition_tables_validate():
    dd, add = z2_shell()
    assert validate_addition(dd.base, add) == []


def test_missing_sums_are_reported_not_read():
    dd, add = z2_shell()
    partial = AdditionTables(zero=dict(add.zero), plus=dict(add.plus))
    del partial.plus[("u", "u")]
    assert validate_addition(dd.base, partial) == [
        Violation("missing-sum", ("u", "u"))
    ]
    empty = AdditionTables(zero=dict(add.zero), plus={})
    assert {v.code for v in validate_addition(dd.base, empty)} == {
        "missing-sum", "zero-law"
    }


def test_addition_rejects_broken_tables():
    dd, add = z2_shell()
    bad = AdditionTables(zero=dict(add.zero), plus=dict(add.plus))
    bad.plus[("u", "z")] = "z"  # no longer commutative, and z+u != u+z
    report = validate_addition(dd.base, bad)
    assert any(v.code in ("not-commutative", "zero-law") for v in report)


def test_sum_formula_on_the_shell():
    dd, add = z2_shell()
    fc = build_fraction_category(dd)
    assert sum_formula_check(fc, add) == []
    part = fc.partition
    mi = dd.base.mor_index
    tu = ThreeArrow(mi["u"], mi["u"], mi["u"])
    tz = ThreeArrow(mi["u"], mi["z"], mi["u"])
    # f + 0 = f stays in class; f + f = 0 crosses to the zero class
    assert part.class_index(tu) != part.class_index(tz)
    plus = add.plus[("u", "z")]
    assert part.class_index(ThreeArrow(mi["u"], mi[plus], mi["u"])) == (
        part.class_index(tu)
    )
    twice = add.plus[("u", "u")]
    assert part.class_index(ThreeArrow(mi["u"], mi[twice], mi["u"])) == (
        part.class_index(tz)
    )


def all_pairs_sum_check(fc, add):
    """The transported-addition sweep over every ordered pair of
    three-arrows, kept as the reference for :func:`sum_formula_check`."""
    dd, cat, part = fc.dd, fc.dd.base, fc.partition
    report, class_sum = [], {}
    for t1 in part.arrows:
        for t2 in part.arrows:
            if t1.b != t2.b or t1.a != t2.a:
                continue
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


def ring_addition(n):
    """Addition mod n on :func:`conftest.zmod`, which multiplies mod n."""
    return AdditionTables(
        zero={("pt", "pt"): "0"},
        plus={(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)},
    )


class MergedPartition:
    """The classes of ``part`` merged in pairs (class gi into gi // 2): a
    coarsening that addition need not respect."""

    def __init__(self, part):
        self.part, self.arrows = part, part.arrows
        self.class_ids = [f"m{k}" for k in range((len(part) + 1) // 2)]

    def class_index(self, t):
        return self.part.class_index(t) // 2


def additive_structures():
    yield z2_shell()
    for n in range(1, 6):
        dd = chain(n)
        yield dd, poset_addition(dd)
    dd = make_named("DIA")
    yield dd, poset_addition(dd)
    yield zmod(4), ring_addition(4)


@pytest.mark.parametrize(
    "dd, add", [pytest.param(dd, add, id=dd.name) for dd, add in additive_structures()]
)
def test_sum_formula_matches_the_all_pairs_sweep(dd, add):
    fc = build_fraction_category(dd)
    assert sum_formula_check(fc, add) == all_pairs_sum_check(fc, add) == []
    # a coarsened partition that addition does not respect: the reports,
    # in order, are the sweep's
    planted = SimpleNamespace(dd=dd, partition=MergedPartition(fc.partition))
    assert sum_formula_check(planted, add) == all_pairs_sum_check(planted, add)


def test_planted_coarsening_breaks_the_sum():
    dd, add = zmod(4), ring_addition(4)
    fc = build_fraction_category(dd)
    planted = SimpleNamespace(dd=dd, partition=MergedPartition(fc.partition))
    report = sum_formula_check(planted, add)
    assert report and {v.code for v in report} == {"sum-not-well-defined"}


def test_sum_formula_vacuous_on_empty_category():
    empty = make_poset([], set(), name="EMPTY")
    fc = build_fraction_category(empty)
    add = AdditionTables(zero={}, plus={})
    assert validate_addition(empty.base, add) == []
    assert sum_formula_check(fc, add) == []


def test_planted_product_fails_in_the_fraction_category(named):
    dd = named["CH3"]
    fc = build_fraction_category(dd)
    pd = poset_products(dd)
    pd.pairwise[("2", "2")] = ("1", "m_1_2", "m_1_2")
    assert check_localisation_preserves_products(fc, pd) == [
        Violation("fraction-product", ("2", "2", "q11", "q11"))
    ]


def test_planted_terminal_and_initial_reported(named):
    dd = named["CH3"]
    fc = build_fraction_category(dd)
    pd = poset_products(dd)
    assert check_localisation_preserves_products(
        fc, CoproductData("1", pd.pairwise)
    ) == [Violation("fraction-terminal", ("1", "2"))]
    cp = poset_coproducts(dd)
    assert check_localisation_preserves_coproducts(
        fc, CoproductData("2", cp.pairwise)
    ) == [
        Violation("fraction-initial", ("2", "0")),
        Violation("fraction-initial", ("2", "1")),
    ]


def test_swapped_projections_are_a_domain_error(named):
    dd = named["CH3"]
    pd = poset_products(dd)
    obj, pr1, pr2 = pd.pairwise[("0", "1")]
    pd.pairwise[("0", "1")] = (obj, pr2, pr1)
    with pytest.raises(DomainError, match="wrong endpoints"):
        denominators_closed_under_products(dd, pd)
    with pytest.raises(DomainError, match="wrong endpoints"):
        product_of_morphisms(dd.base, pd, dd.base.mor_index["i_0"],
                             dd.base.mor_index["i_1"])


@pytest.mark.parametrize(
    "name, side, obj",
    (("CH3", "initial", "1"), ("CH3", "terminal", "0"), ("DIA", "terminal", "a")),
)
def test_unreachable_universal_object_is_a_domain_error(name, side, obj, named):
    # the localisation has an arrow between obj and some object; the base has none
    dd = named[name]
    fc = build_fraction_category(dd)
    if side == "initial":
        check = check_localisation_preserves_coproducts
        table = CoproductData(obj, poset_coproducts(dd).pairwise)
    else:
        check = check_localisation_preserves_products
        table = CoproductData(obj, poset_products(dd).pairwise)
    with pytest.raises(DomainError, match="no base arrow"):
        check(fc, table)


@pytest.mark.parametrize("name", ("PAR", "IDEM", "Z4"))
def test_poset_tables_refuse_non_posets(name, named):
    for tables in (poset_coproducts, poset_products):
        with pytest.raises(DomainError, match="not a poset"):
            tables(named[name])
