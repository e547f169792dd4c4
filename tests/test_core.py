import pytest
from hypothesis import given, settings, strategies as st

import random

from catfrac import core, denominators
from catfrac.core import (
    DomainError,
    FinCategory,
    FunctorTable,
    associativity_violations,
    generating_set,
    identity_functor,
    validate_category,
    validate_functor,
)
from catfrac.denominators import check_uni_fractionable, sweep_WU
from catfrac.instances import NAMED, make_named, make_poset, transformation_monoid

from conftest import certificate_ladder, reference_validate_category, zmod


def hand_built_ch3():
    """The 3-object chain written out longhand, independent of the kit."""
    objects = ["0", "1", "2"]
    morphisms = ["m_0_1", "m_0_2", "m_1_2", "i_0", "i_1", "i_2"]
    src = {"m_0_1": "0", "m_0_2": "0", "m_1_2": "1", "i_0": "0", "i_1": "1", "i_2": "2"}
    tgt = {"m_0_1": "1", "m_0_2": "2", "m_1_2": "2", "i_0": "0", "i_1": "1", "i_2": "2"}
    comp = {
        ("i_0", "i_0"): "i_0", ("i_1", "i_1"): "i_1", ("i_2", "i_2"): "i_2",
        ("i_0", "m_0_1"): "m_0_1", ("m_0_1", "i_1"): "m_0_1",
        ("i_0", "m_0_2"): "m_0_2", ("m_0_2", "i_2"): "m_0_2",
        ("i_1", "m_1_2"): "m_1_2", ("m_1_2", "i_2"): "m_1_2",
        ("m_0_1", "m_1_2"): "m_0_2",
    }
    return FinCategory("CH3-hand", objects, morphisms, src, tgt,
                       {"0": "i_0", "1": "i_1", "2": "i_2"}, comp)


def test_ch3_hand_table_validates():
    assert validate_category(hand_built_ch3()) == []


def test_generated_ch3_matches_hand_table():
    cat = make_named("CH3").base
    hand = hand_built_ch3()
    assert cat.morphisms == hand.morphisms
    assert cat.icomp == hand.icomp


def test_missing_composite_reported():
    cat = hand_built_ch3()
    broken = dict(cat.icomp)
    del broken[(cat.mor_index["m_0_1"], cat.mor_index["m_1_2"])]
    cat2 = hand_built_ch3()
    cat2.icomp = broken
    codes = {v.code for v in validate_category(cat2)}
    assert codes == {"missing-composite"}


def table_defects(cat):
    """CH3-hand variants with one defect each that only the scan of all
    pairs can list: a spurious composite, a missing one, both, and a
    misplaced one."""
    mi = cat.mor_index
    spurious = (mi["m_1_2"], mi["m_0_1"])
    missing = (mi["m_0_1"], mi["m_1_2"])
    yield {**cat.icomp, spurious: mi["m_0_2"]}
    yield {k: v for k, v in cat.icomp.items() if k != missing}
    yield {k: v for k, v in cat.icomp.items() if k != missing} | {spurious: mi["i_1"]}
    yield {**cat.icomp, missing: mi["m_0_1"]}


def test_spurious_and_missing_composites_report_as_the_full_scan():
    codes = []
    for table in table_defects(hand_built_ch3()):
        cat = hand_built_ch3()
        cat.icomp = table
        report = validate_category(cat)
        assert report == reference_validate_category(cat)
        codes.append([v.code for v in report])
    assert codes == [
        ["spurious-composite"],
        ["missing-composite"],
        ["missing-composite", "spurious-composite"],
        ["composite-endpoints"],
    ]


def test_broken_associativity_names_the_triple():
    cat = make_named("Z4").base
    # reroute 2;3 (= 2) to 1: then (2;3);3 = 3 but 2;(3;3) = 2
    cat.icomp[(cat.mor_index["2"], cat.mor_index["3"])] = cat.mor_index["1"]
    report = validate_category(cat)
    triples = {v.ids for v in report if v.code == "associativity"}
    assert triples and ("2", "3", "3") in triples


def test_compose_examples():
    cat = make_named("CH3").base
    assert cat.compose("m_0_1", "m_1_2") == "m_0_2"
    assert cat.compose("i_0", "m_0_1") == "m_0_1"
    walk = make_named("WALK").base
    assert walk.compose("m_0_1", "i_1") == "m_0_1"


def test_compose_rejects_non_composable():
    cat = make_named("CH3").base
    with pytest.raises(DomainError) as err:
        cat.compose("m_1_2", "m_0_1")
    assert "m_1_2" in str(err.value) and "m_0_1" in str(err.value)


@pytest.mark.parametrize("name", NAMED)
def test_opposite_is_a_memoised_involution(name):
    cat = make_named(name).base
    op = cat.opposite()
    assert op is cat.opposite()
    assert op.opposite() is cat
    assert validate_category(op) == []
    for (i, j), k in cat.icomp.items():
        assert op.icomp[(j, i)] == k
    for f in cat.morphisms:
        assert (op.src_of(f), op.tgt_of(f)) == (cat.tgt_of(f), cat.src_of(f))


@pytest.mark.parametrize("dd", certificate_ladder(), ids=lambda dd: dd.name)
def test_solution_rows_match_a_brute_force(dd):
    # left[y][w] and right[x][w] list every solution of comp(x, y) == w in
    # index order, and hold no key without one
    cat = dd.base
    n = cat.n_morphisms
    left, right = cat.solution_maps()
    for y in range(n):
        xs = {w: [x for x in range(n) if cat.icomp.get((x, y)) == w] for w in range(n)}
        assert left[y] == {w: found for w, found in xs.items() if found}
    for x in range(n):
        ys = {w: [y for y in range(n) if cat.icomp.get((x, y)) == w] for w in range(n)}
        assert right[x] == {w: found for w, found in ys.items() if found}


def test_opposite_shares_the_solution_maps_swapped():
    cat = make_named("DIA").base
    left, right = cat.solution_maps()
    op_left, op_right = cat.opposite().solution_maps()
    assert op_left is right and op_right is left


def test_opposite_outliving_its_original_rebuilds_it():
    # the back link is weak: once the original is gone, the opposite's
    # opposite is built afresh with the same tables
    op = make_named("CH3").base.opposite()
    again = op.opposite()
    assert again.table_equal(make_named("CH3").base)
    assert again.opposite() is op and op.opposite() is again
    assert op.solution_maps()[0] is again.solution_maps()[1]


def test_identity_functor_validates():
    assert validate_functor(identity_functor(make_named("CH3").base)) == []


def test_collapsing_map_breaking_composition_reported():
    cat = make_named("CH3").base
    fun = FunctorTable(
        cat,
        cat,
        {"0": "0", "1": "0", "2": "2"},
        {
            "i_0": "i_0", "i_1": "i_0", "i_2": "i_2",
            "m_0_1": "i_0", "m_0_2": "m_0_2", "m_1_2": "m_1_2",
        },
    )
    assert validate_functor(fun) != []


def test_empty_category_is_valid():
    empty = make_poset([], set(), name="EMPTY")
    assert validate_category(empty.base) == []
    assert empty.base.n_objects == 0


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    objects = [str(k) for k in range(n)]
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda p: p[0] < p[1]),
            max_size=6,
        )
    )
    # transitive closure of an upward relation is automatically a poset
    leq = {(str(a), str(b)) for a, b in edges}
    changed = True
    while changed:
        changed = False
        for x, y in list(leq):
            for y2, z in list(leq):
                if y2 == y and (x, z) not in leq:
                    leq.add((x, z))
                    changed = True
    return objects, leq


@given(random_posets())
@settings(max_examples=40, deadline=None)
def test_random_poset_categories_satisfy_the_laws(data):
    objects, leq = data
    dd = make_poset(objects, leq, "identities", name="rand")
    assert validate_category(dd.base) == []


def light_verdict(cat):
    gens = frozenset(generating_set(cat, range(cat.n_morphisms)))
    return not associativity_violations(cat, gens)


@pytest.mark.parametrize("dd", certificate_ladder(), ids=lambda dd: dd.name)
def test_light_test_matches_the_full_sweep(dd):
    cat = dd.base
    assert validate_category(cat) == reference_validate_category(cat) == []
    assert light_verdict(cat) and associativity_violations(cat) == []


def corruptible(name):
    """A fresh structure, to corrupt in place."""
    if name == "Z6":
        return zmod(6)
    if name == "T3":
        return transformation_monoid(3)
    return make_named(name)


def single_entry_corruptions():
    """(base, pair, new composite) for every single-entry change of a small
    composition table, and for a seeded sample of T3's."""
    for name in ("CH3", "DIA", "PAR", "IDEM", "Z4", "Z6"):
        cat = corruptible(name).base
        for pair in sorted(cat.icomp):
            for k in range(cat.n_morphisms):
                if k != cat.icomp[pair]:
                    yield name, pair, k
    rng = random.Random(3)
    pairs = sorted(corruptible("T3").base.icomp)
    for _ in range(20):
        yield "T3", rng.choice(pairs), rng.randrange(27)


def test_corrupted_tables_report_as_the_full_sweeps(monkeypatch):
    def corrupted():
        for name, pair, k in single_entry_corruptions():
            dd = corruptible(name)
            dd.base.icomp[pair] = k
            yield dd

    reduced = []
    for dd in corrupted():
        cat = dd.base
        report = validate_category(cat)
        assert report == reference_validate_category(cat)
        if not {v.code for v in report} - {"associativity"}:
            assert light_verdict(cat) == (not report)
        reduced.append(check_uni_fractionable(dd).lines())
    # the same certificates with both reduced paths swapped for the sweeps
    monkeypatch.setattr(core, "validate_category", reference_validate_category)
    monkeypatch.setattr(denominators, "check_WU", lambda dd, cert=None: sweep_WU(dd))
    assert [check_uni_fractionable(dd).lines() for dd in corrupted()] == reduced
    assert any(lines[0].startswith("(Base) FAIL witness associativity")
               for lines in reduced)
    assert any(len(lines) == 9 for lines in reduced)
