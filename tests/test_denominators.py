import random

import pytest
from hypothesis import given, settings, strategies as st

from catfrac.core import FinCategory, FunctorTable, generating_set, identity_functor
from catfrac.denominators import (
    WU_BY_GENERATORS,
    DenominatorData,
    check_Fac,
    check_WU,
    check_uni_fractionable,
    classify_saturation,
    completions,
    factorisations,
    is_multiplicative,
    is_two_of_six,
    is_two_of_three,
    is_uni_fractionable,
    is_weak_pullback,
    is_weak_pushout,
    sweep_WU,
    validate_uf_morphism,
)
from catfrac.fraction import full_subcategory
from catfrac.instances import chain, make_monoid, make_named

from conftest import POSITIVE, certificate_ladder, zmod

LADDER_RANK = {"none": 0, "multiplicative": 1, "semi-saturated": 2,
               "weakly-saturated": 3}


def reference_is_multiplicative(dd, which):
    """(identities + closure under composition) by the sweep over every
    pair of members, in index order."""
    cat, sub = dd.base, dd.subset(which)
    for x in range(cat.n_objects):
        if cat.iidentity[x] not in sub:
            return False, ("identity", cat.objects[x])
    for i in sorted(sub):
        for j in sorted(sub):
            if cat.composable(i, j) and cat.icomp[(i, j)] not in sub:
                return False, ("composition", cat.morphisms[i], cat.morphisms[j])
    return True, None


def test_multiplicative_walk_matches_the_pair_sweep():
    rng = random.Random(5)
    structures = certificate_ladder() + [
        chain(3, "identities"), chain(5, "identities"), zmod(8)
    ]
    failing = 0
    for dd in structures:
        cat = dd.base
        identities = {cat.morphisms[e] for e in cat.iidentity}
        subsets = [
            identities | {f for f in cat.morphisms if rng.random() < 0.4}
            for _ in range(4)
        ]
        for ids in subsets:
            sub = DenominatorData(cat, sorted(ids, key=cat.mor_index.get))
            got = is_multiplicative(sub, "D")
            assert got == reference_is_multiplicative(sub, "D")
            failing += not got[0]
        for which in "DST":
            assert is_multiplicative(dd, which) == reference_is_multiplicative(dd, which)
    assert failing > 20


def test_multiplicative_examples():
    assert is_multiplicative(make_named("CH3"), "D")[0]
    assert is_multiplicative(make_named("WALK"), "D")[0]
    empty_d = DenominatorData(make_named("CH3").base, [], name="x")
    ok, witness = is_multiplicative(empty_d, "D")
    assert not ok and witness[0] == "identity"


def test_two_of_three_examples():
    assert is_two_of_three(make_named("CH3"))[0]
    assert is_two_of_three(make_named("DIA"))[0]
    dd = chain(3, ["i_0", "i_1", "i_2", "m_0_1", "m_1_2"], name="bad")
    ok, witness = is_two_of_three(dd)
    assert not ok and witness == ("m_0_1", "m_1_2", "m_0_2")


def test_two_of_six_examples():
    assert is_two_of_six(make_named("CH3"))[0]
    all_d = chain(3, "all", name="allD")
    assert is_two_of_six(all_d)[0]
    # D = {1} in the multiplicative monoid of Z/4 fails on (3, 3, 3):
    # 3*3 = 1 lies in D on both sides but 3 itself does not
    z4_unit_only = make_monoid(
        ["0", "1", "2", "3"],
        [[str(a * b % 4) for b in range(4)] for a in range(4)],
        ["1"],
        name="Z4-1",
    )
    ok, witness = is_two_of_six(z4_unit_only)
    assert not ok and witness == ("3", "3", "3")


def test_classify_ladder():
    assert classify_saturation(make_named("CH3")) == "weakly-saturated"
    missing_identity = DenominatorData(make_named("CH3").base, ["m_0_1"], name="x")
    assert classify_saturation(missing_identity) == "none"
    planted = DenominatorData(
        chain(3).base,
        ["i_0", "i_1", "i_2", "m_0_1", "m_0_2"],
        name="planted-2of3",
    )
    assert classify_saturation(planted) == "multiplicative"


@pytest.mark.parametrize("name", POSITIVE)
def test_ladder_is_monotone(name, named):
    dd = named[name]
    level = classify_saturation(dd)
    if LADDER_RANK[level] >= 3:
        assert is_two_of_three(dd)[0]
    if LADDER_RANK[level] >= 2:
        assert is_multiplicative(dd, "D")[0]


def test_weak_pushout_identity_square():
    cat = make_named("CH3").base
    f = cat.mor_index["m_0_1"]
    one = cat.iidentity[cat.isrc[f]]
    one_t = cat.iidentity[cat.itgt[f]]
    assert is_weak_pushout(cat, (one, f, f, one_t))


def test_weak_pushout_at_joins_in_diamond():
    cat = make_named("DIA").base
    mi = cat.mor_index
    square = (mi["m_bot_a"], mi["m_bot_b"], mi["m_a_top"], mi["m_b_top"])
    assert is_weak_pushout(cat, square)


def test_weak_pushout_fails_in_idempotent_monoid():
    cat = make_named("IDEM").base
    e = cat.mor_index["e"]
    one = cat.mor_index["1"]
    assert not is_weak_pushout(cat, (e, e, e, e))
    assert not is_weak_pushout(cat, (e, e, one, one))


def test_weak_pullback_at_meets_in_diamond():
    cat = make_named("DIA").base
    mi = cat.mor_index
    square = (mi["m_a_top"], mi["m_b_top"], mi["m_bot_a"], mi["m_bot_b"])
    assert is_weak_pullback(cat, square)


def test_check_wu_examples(named):
    assert check_WU(named["WALK"]).ok
    assert check_WU(named["PAR"]).ok
    result = check_WU(named["IDEM"])
    assert not result.ok
    assert result.failures == [("pushout-side", "e", "e"), ("pullback-side", "e", "e")]


@pytest.mark.parametrize("name", POSITIVE + ("IDEM",))
def test_opposite_structure_swaps_s_and_t(name, named):
    dd = named[name]
    op = dd.opposite()
    assert op.base is dd.base.opposite()
    assert op.iden == dd.iden
    assert (op.is_, op.it) == (dd.it, dd.is_)

    # each side keys the same pairs to the same completions
    result, dual = check_WU(dd), check_WU(op)
    assert dict(dual.pullbacks) == dict(result.pushouts)
    assert dict(dual.pushouts) == dict(result.pullbacks)
    swap = {"pushout-side": "pullback-side", "pullback-side": "pushout-side"}
    assert sorted((swap[side], i, f) for side, i, f in dual.failures) == sorted(
        result.failures
    )


def test_shared_searches_match_brute_force(named):
    # factorisations and completions yield exactly the brute-force hits
    # over all candidate pairs, in index order
    for dd in (*named.values(), chain(5), zmod(8)):
        cat = dd.base
        every = range(cat.n_morphisms)
        for firsts, seconds in ((dd.s_sorted, dd.t_sorted), (dd.den_sorted, dd.den_sorted)):
            for x in every:
                brute = [
                    (i, p)
                    for i in firsts
                    for p in seconds
                    if cat.composable(i, p) and cat.icomp[(i, p)] == x
                ]
                assert list(factorisations(cat, x, firsts, seconds)) == brute
        for side in (dd, dd.opposite()):
            c = side.base
            for i in side.s_sorted:
                for f in c.by_src[c.isrc[i]]:
                    brute = [
                        (f2, i2)
                        for f2 in every
                        for i2 in side.s_sorted
                        if c.composable(i, f2)
                        and c.composable(f, i2)
                        and c.itgt[f2] == c.itgt[i2]
                        and c.icomp[(i, f2)] == c.icomp[(f, i2)]
                        and is_weak_pushout(c, (i, f, f2, i2))
                    ]
                    assert list(completions(c, side.is_, i, f)) == brute


def test_check_wu_witnesses_revalidate(named):
    for name in POSITIVE:
        dd = named[name]
        result = check_WU(dd)
        for (i, f), (f2, i2) in result.pushouts.items():
            assert i2 in dd.is_
            assert is_weak_pushout(dd.base, (i, f, f2, i2))
        for (p, f), (f2, p2) in result.pullbacks.items():
            assert p2 in dd.it
            assert is_weak_pullback(dd.base, (p, f, f2, p2))


def assert_same_wu(dd, reduced, full):
    """Same verdict and failure list, and the same first witness for every
    pair of both sides (KeyError on exactly the failing pairs)."""
    assert (reduced.ok, reduced.failures) == (full.ok, full.failures)
    for side, (lazy, swept) in enumerate(
        ((reduced.pushouts, full.pushouts), (reduced.pullbacks, full.pullbacks))
    ):
        cat = dd.base if side == 0 else dd.base.opposite()
        for i in sorted(dd.is_ if side == 0 else dd.it):
            for f in cat.by_src[cat.isrc[i]]:
                if (i, f) in swept:
                    assert lazy[(i, f)] == swept[(i, f)]
                else:
                    with pytest.raises(KeyError):
                        lazy[(i, f)]


def generator_pairs(cat, members):
    return {
        (g, f) for g in generating_set(cat, members) for f in cat.by_src[cat.isrc[g]]
    }


@pytest.mark.parametrize("dd", certificate_ladder(), ids=lambda dd: dd.name)
def test_wu_by_generators_matches_the_sweep(dd):
    cert = dd.certificate()
    reduced = cert.wu
    if reduced.ok and cert.passes(*WU_BY_GENERATORS):
        # the reduced path searched exactly the generator pairs
        assert set(reduced.pushouts) == generator_pairs(dd.base, dd.is_)
        assert set(reduced.pullbacks) == generator_pairs(dd.base.opposite(), dd.it)
    assert_same_wu(dd, reduced, sweep_WU(dd))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_wu_by_generators_matches_the_sweep_on_subsets(data):
    # S, T range over subsets of D holding the identities, half of them
    # closed under composition, so that both paths and failing generator
    # pairs all occur
    dd = data.draw(st.sampled_from([chain(4), make_named("DIA"), zmod(8), zmod(12)]))
    cat = dd.base
    identities = {cat.identity_of(x) for x in cat.objects}

    def subset():
        chosen = set(identities) | set(
            data.draw(st.lists(st.sampled_from(dd.denominator_ids), max_size=6))
        )
        if data.draw(st.booleans()):
            while True:
                closed = chosen | {
                    cat.compose(f, g) for f in chosen for g in chosen
                    if cat.tgt_of(f) == cat.src_of(g)
                }
                if closed == chosen:
                    break
                chosen = closed
        return sorted(chosen)

    sub = DenominatorData(cat, dd.denominator_ids, subset(), subset(), name="sub")
    cert = check_uni_fractionable(sub)
    assert_same_wu(sub, check_WU(sub, cert), sweep_WU(sub))


def test_wu_sweeps_without_a_certificate(named):
    # standalone, nothing is certified: every pair is searched
    result = check_WU(named["CH3"])
    full = sweep_WU(named["CH3"])
    assert dict(result.pushouts) == dict(full.pushouts)
    assert dict(result.pullbacks) == dict(full.pullbacks)


def test_failing_generator_pair_falls_back_to_the_sweep(named):
    # IDEM passes (Base), (S-mult) and (T-mult); its generator e fails, and
    # the failure list is the full sweep's
    cert = named["IDEM"].certificate()
    assert cert.passes(*WU_BY_GENERATORS)
    assert cert.wu.failures == sweep_WU(named["IDEM"]).failures
    assert cert.lines()[7] == "(WU) FAIL witness i=e f=e"


def test_check_fac_examples(named):
    dd = named["CH3"]
    result = check_Fac(dd)
    assert result.ok
    i, p = result.witnesses[dd.base.mor_index["m_0_1"]]
    m = dd.base.morphisms
    assert (m[i], m[p]) == ("m_0_1", "i_1")
    # identity factor whenever d itself is in S
    for d, (i, p) in result.witnesses.items():
        assert dd.base.icomp[(i, p)] == d
        assert i in dd.is_ and p in dd.it


def test_check_fac_fails_without_nonidentity_parts():
    dd = DenominatorData(
        chain(2).base,
        ["i_0", "i_1", "m_0_1"],
        s_denominators=["i_0", "i_1"],
        t_denominators=["i_0", "i_1"],
        name="Fac-planted",
    )
    result = check_Fac(dd)
    assert not result.ok and result.failures == ["m_0_1"]


@pytest.mark.parametrize("name", POSITIVE)
def test_positive_instances_are_uni_fractionable(name, named):
    ok, cert = is_uni_fractionable(named[name])
    assert ok, cert.failed_axioms()


def test_idem_fails_exactly_wu(named):
    ok, cert = is_uni_fractionable(named["IDEM"])
    assert not ok
    assert cert.failed_axioms() == ["(WU)"]
    detail = dict((n, d) for n, _, d in cert.items)
    assert detail["(WU)"] == "i=e f=e"


def test_parallel_pair_with_f_in_d_fails_wu(named):
    dd = DenominatorData(named["PAR"].base, ["i_X", "i_Y", "f"], name="PAR-f")
    ok, cert = is_uni_fractionable(dd)
    assert not ok and cert.failed_axioms() == ["(WU)"]


def test_uf_morphism_validation(named):
    ch3 = named["CH3"]
    assert validate_uf_morphism(identity_functor(ch3.base), ch3, ch3)
    sub = full_subcategory(ch3, ["0", "1"])
    inclusion = FunctorTable(
        sub.base,
        ch3.base,
        {x: x for x in sub.base.objects},
        {f: f for f in sub.base.morphisms},
    )
    assert validate_uf_morphism(inclusion, sub, ch3)
    # send the denominator m_0_1 to the non-denominator m_1_2
    shift = FunctorTable(
        ch3.base,
        ch3.base,
        {"0": "1", "1": "2", "2": "2"},
        {
            "i_0": "i_1", "i_1": "i_2", "i_2": "i_2",
            "m_0_1": "m_1_2", "m_0_2": "m_1_2", "m_1_2": "i_2",
        },
    )
    from catfrac.core import validate_functor

    assert validate_functor(shift) == []
    assert not validate_uf_morphism(shift, ch3, ch3)


def _relabel(dd, seed):
    rng = random.Random(seed)
    cat = dd.base
    objs = list(cat.objects)
    mors = list(cat.morphisms)
    rng.shuffle(objs)
    rng.shuffle(mors)
    obj_new = {x: f"o{k}" for k, x in enumerate(objs)}
    mor_new = {f: f"a{k}" for k, f in enumerate(mors)}
    renamed = FinCategory(
        "relabelled",
        [obj_new[x] for x in objs],
        [mor_new[f] for f in mors],
        {mor_new[f]: obj_new[cat.src_of(f)] for f in mors},
        {mor_new[f]: obj_new[cat.tgt_of(f)] for f in mors},
        {obj_new[x]: mor_new[cat.identity_of(x)] for x in objs},
        {
            (mor_new[f], mor_new[g]): mor_new[cat.compose(f, g)]
            for f in mors
            for g in mors
            if cat.tgt_of(f) == cat.src_of(g)
        },
    )
    return DenominatorData(
        renamed,
        [mor_new[f] for f in dd.denominator_ids],
        [mor_new[f] for f in dd.s_ids],
        [mor_new[f] for f in dd.t_ids],
        name="relabelled",
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_uni_fractionable_invariant_under_relabelling(seed):
    for name in ("CH3", "IDEM"):
        dd = make_named(name)
        expected, _ = is_uni_fractionable(dd)
        actual, _ = is_uni_fractionable(_relabel(dd, seed))
        assert actual == expected
