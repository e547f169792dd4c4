import pytest

from catfrac.core import (
    DomainError,
    FunctorTable,
    identity_functor,
    isomorphisms,
    validate_category,
    validate_functor,
)
from catfrac.denominators import AxiomError, DenominatorData
from catfrac.fileio import dumps
from catfrac.fraction import (
    build_fraction_category,
    classify_isomorphisms,
    compose_fractions,
    fraction_instance,
    full_subcategory,
    induced_functor,
    induced_functor_on_fractions,
    induced_transformation,
    inverse_of_denominator,
    invert_class,
    is_saturated,
    lax_composites_all,
    st_independence_check,
    subcategory_equivalence,
)
from catfrac.instances import chain, make_monoid, make_named, make_poset
from catfrac.three_arrows import (
    ThreeArrow,
    identity_arrow,
    source_of,
    target_of,
)

from conftest import POSITIVE, strict_composites_all


def arrow(dd, b, f, a):
    mi = dd.base.mor_index
    return ThreeArrow(mi[b], mi[f], mi[a])


@pytest.fixture(scope="module")
def built():
    return {name: build_fraction_category(make_named(name)) for name in POSITIVE}


def test_build_refuses_invalid_structures(named):
    with pytest.raises(AxiomError) as err:
        build_fraction_category(make_named("IDEM"))
    assert "(WU)" in str(err.value)


def test_morphism_counts(built):
    assert built["CH3"].as_category.n_morphisms == 7
    assert built["WALK"].as_category.n_morphisms == 4
    assert built["DIA"].as_category.n_morphisms == 16
    assert built["Z4"].as_category.n_morphisms == 4


def test_z4_localisation_is_bijective(built):
    fc = built["Z4"]
    values = set(fc.localisation.mor_map.values())
    assert len(values) == fc.dd.base.n_morphisms == 4


def test_fraction_category_passes_the_laws(built):
    for name in POSITIVE:
        assert validate_category(built[name].as_category) == []


def test_localisation_is_a_functor(built):
    for name in POSITIVE:
        assert validate_functor(built[name].localisation) == []


def test_identities_are_classes_of_identity_arrows(built):
    for name in POSITIVE:
        fc = built[name]
        for x in range(fc.dd.base.n_objects):
            cid = fc.as_category.identity_of(fc.dd.base.objects[x])
            assert cid == fc.partition.class_id(identity_arrow(fc.dd, x))


def test_splitting_remark_composite(built):
    # [b1/f1/1][1/f2/a2] == [b1 / f1 f2 / a2]
    for name in POSITIVE:
        fc = built[name]
        dd, cat = fc.dd, fc.dd.base
        part = fc.partition
        for t1 in part.arrows:
            if not cat.is_identity(t1.a):
                continue
            for t2 in part.arrows:
                if not cat.is_identity(t2.b):
                    continue
                if target_of(dd, t1) != source_of(dd, t2):
                    continue
                expected = part.class_index(
                    ThreeArrow(t1.b, cat.icomp[(t1.f, t2.f)], t2.a)
                )
                assert compose_fractions(dd, part, t1, t2) == expected


def test_compose_identity_law(built):
    for name in POSITIVE:
        fc = built[name]
        dd = fc.dd
        part = fc.partition
        for t in part.arrows:
            ident = identity_arrow(dd, target_of(dd, t))
            assert compose_fractions(dd, part, t, ident) == part.class_index(t)


def test_ch3_compose_example(built):
    fc = built["CH3"]
    dd = fc.dd
    got = compose_fractions(
        dd,
        fc.partition,
        arrow(dd, "i_0", "m_0_1", "i_1"),
        arrow(dd, "i_1", "m_1_2", "i_2"),
    )
    assert got == fc.partition.class_index(arrow(dd, "i_0", "m_0_2", "i_2"))


def test_compose_rejects_endpoint_mismatch(built):
    fc = built["CH3"]
    dd = fc.dd
    with pytest.raises(DomainError):
        compose_fractions(
            dd,
            fc.partition,
            arrow(dd, "i_1", "m_1_2", "i_2"),
            arrow(dd, "i_0", "m_0_1", "i_1"),
        )


@pytest.mark.parametrize("name", ("CH3", "DIA"))
def test_choice_independence_exhaustive(name, built):
    # every strict witness choice and every lax commuting completion land
    # in one class, for every composable pair of three-arrows
    fc = built[name]
    dd, part = fc.dd, fc.partition
    for t1 in part.arrows:
        for t2 in part.arrows:
            if target_of(dd, t1) != source_of(dd, t2):
                continue
            classes = {
                part.class_index(rep)
                for rep in strict_composites_all(dd, t1, t2)
            }
            classes |= {
                part.class_index(rep)
                for rep in lax_composites_all(dd, t1, t2)
            }
            assert len(classes) == 1


@pytest.mark.parametrize("name", POSITIVE)
def test_strict_and_lax_agree_classwise(name, built):
    fc = built[name]
    dd, part = fc.dd, fc.partition
    for g1 in range(len(part)):
        for g2 in range(len(part)):
            t1 = part.representative(g1)
            t2 = part.representative(g2)
            if target_of(dd, t1) != source_of(dd, t2):
                continue
            strict = compose_fractions(dd, part, t1, t2, strict=True)
            lax = compose_fractions(dd, part, t1, t2, strict=False)
            assert strict == lax


def test_inverse_of_denominator_examples(built):
    walk = built["WALK"]
    cls = inverse_of_denominator(walk, "m_0_1")
    assert cls == walk.partition.class_id(arrow(walk.dd, "m_0_1", "i_0", "i_0"))
    ch3 = built["CH3"]
    cls = inverse_of_denominator(ch3, "m_0_1")
    rep = ch3.partition.representative(ch3.partition.group_of_id(cls))
    assert (source_of(ch3.dd, rep), target_of(ch3.dd, rep)) == (
        ch3.dd.base.obj_index["1"],
        ch3.dd.base.obj_index["0"],
    )
    assert inverse_of_denominator(ch3, "i_2") == ch3.as_category.identity_of("2")


def test_inverse_requires_denominator(built):
    with pytest.raises(DomainError):
        inverse_of_denominator(built["CH3"], "m_1_2")


def test_every_denominator_has_the_two_spellings_of_inverse(built):
    # [d/1/1] == [1/1/d], and both invert L(d)
    for name in POSITIVE:
        fc = built[name]
        for d in fc.dd.den_sorted:
            inverse_of_denominator(fc, fc.dd.base.morphisms[d])


def test_invert_class_examples(built):
    walk = built["WALK"]
    got = invert_class(walk, arrow(walk.dd, "m_0_1", "i_0", "i_0"))
    assert got == walk.partition.class_id(arrow(walk.dd, "i_0", "m_0_1", "i_1"))
    # (1, d, 1) degenerates to inverse_of_denominator
    ch3 = built["CH3"]
    got = invert_class(ch3, arrow(ch3.dd, "i_0", "m_0_1", "i_1"))
    assert got == inverse_of_denominator(ch3, "m_0_1")
    dia = built["DIA"]
    for gi in range(len(dia.partition)):
        rep = dia.partition.representative(gi)
        inverse_id = invert_class(dia, rep)
        back = dia.partition.group_of_id(inverse_id)
        assert dia.as_category.compose(
            dia.partition.class_ids[gi], dia.partition.class_ids[back]
        ) == dia.as_category.identity_of(
            dia.dd.base.objects[source_of(dia.dd, rep)]
        )


def test_invert_class_requires_denominator_middle(built):
    with pytest.raises(DomainError):
        invert_class(built["CH3"], arrow(built["CH3"].dd, "i_1", "m_1_2", "i_2"))


def test_classes_split_through_the_localisation(built):
    # class(b, f, a) == inverse(L b) . L f . inverse(L a) in the table
    for name in POSITIVE:
        fc = built[name]
        dd, fr = fc.dd, fc.as_category
        loc = fc.localisation.mor_map
        m = dd.base.morphisms
        for t in fc.partition.arrows:
            lhs = fc.partition.class_id(t)
            rhs = fr.compose(
                fr.compose(inverse_of_denominator(fc, m[t.b]), loc[m[t.f]]),
                inverse_of_denominator(fc, m[t.a]),
            )
            assert lhs == rhs


def test_localisation_functoriality(built):
    for name in POSITIVE:
        fc = built[name]
        cat, fr = fc.dd.base, fc.as_category
        loc = fc.localisation.mor_map
        for f in cat.morphisms:
            for g in cat.morphisms:
                if cat.tgt_of(f) != cat.src_of(g):
                    continue
                assert loc[cat.compose(f, g)] == fr.compose(loc[f], loc[g])
        for x in cat.objects:
            assert loc[cat.identity_of(x)] == fr.identity_of(x)


def test_induced_functor_of_localisation_is_identity(built):
    fc = built["CH3"]
    hat = induced_functor(fc, fc.localisation)
    assert hat.obj_map == {x: x for x in fc.as_category.objects}
    assert hat.mor_map == {c: c for c in fc.as_category.morphisms}


def test_induced_functor_to_terminal_category(built):
    fc = built["CH3"]
    term = make_monoid(["1"], [["1"]], ["1"], name="T1")
    fun = FunctorTable(
        fc.dd.base,
        term.base,
        {x: "pt" for x in fc.dd.base.objects},
        {f: "1" for f in fc.dd.base.morphisms},
    )
    hat = induced_functor(fc, fun)
    assert set(hat.mor_map.values()) == {"1"}


def collapse_functor(ch3_base):
    tgt = chain(2, "all", name="T2").base
    return FunctorTable(
        ch3_base,
        tgt,
        {"0": "0", "1": "0", "2": "1"},
        {
            "i_0": "i_0", "i_1": "i_0", "i_2": "i_1",
            "m_0_1": "i_0", "m_0_2": "m_0_1", "m_1_2": "m_0_1",
        },
    )


def test_induced_functor_collapse_example(built):
    fc = built["CH3"]
    fun = collapse_functor(fc.dd.base)
    assert validate_functor(fun) == []
    hat = induced_functor(fc, fun)
    assert validate_functor(hat) == []
    composed = fc.localisation.compose_with(hat)
    assert composed.mor_map == fun.mor_map


def test_induced_functor_rejects_non_inverting(built):
    fc = built["CH3"]
    fun = identity_functor(fc.dd.base)
    with pytest.raises(DomainError) as err:
        induced_functor(fc, fun)  # m_0_1 is not invertible in CH3 itself
    assert "m_0_1" in str(err.value)


def test_induced_functor_is_unique(built):
    # perturbing any entry of the induced functor breaks either the functor
    # laws or the factorisation through the localisation
    fc = built["CH3"]
    fun = collapse_functor(fc.dd.base)
    hat = induced_functor(fc, fun)
    tgt = hat.target
    for cid in fc.as_category.morphisms:
        image = hat.mor_map[cid]
        parallel = [
            tgt.morphisms[k]
            for k in tgt.hom(
                tgt.obj_index[tgt.src_of(image)], tgt.obj_index[tgt.tgt_of(image)]
            )
            if tgt.morphisms[k] != image
        ]
        for other in parallel:
            perturbed = FunctorTable(
                hat.source, tgt, dict(hat.obj_map), dict(hat.mor_map)
            )
            perturbed.mor_map[cid] = other
            still_functor = validate_functor(perturbed) == []
            factors = (
                fc.localisation.compose_with(perturbed).mor_map == fun.mor_map
                if still_functor
                else False
            )
            assert not (still_functor and factors)


def test_induced_transformation_identity(built):
    fc = built["CH3"]
    fun = collapse_functor(fc.dd.base)
    alpha = {
        x: fun.target.identity_of(fun.obj_map[x]) for x in fc.dd.base.objects
    }
    hat = induced_transformation(fc, fun, fun, alpha)
    assert hat == alpha


def test_induced_transformation_between_collapses(built):
    # target is the codiscrete two-object category Fr(WALK); F collapses
    # everything to one object, G to the other, alpha is the unique bridge
    fc = built["CH3"]
    cod = built["WALK"].as_category
    hom = lambda x, y: [
        cod.morphisms[k] for k in cod.hom(cod.obj_index[x], cod.obj_index[y])
    ]
    u00, u01, u11 = hom("0", "0")[0], hom("0", "1")[0], hom("1", "1")[0]
    fun_f = FunctorTable(
        fc.dd.base, cod,
        {x: "0" for x in fc.dd.base.objects},
        {f: u00 for f in fc.dd.base.morphisms},
    )
    fun_g = FunctorTable(
        fc.dd.base, cod,
        {x: "1" for x in fc.dd.base.objects},
        {f: u11 for f in fc.dd.base.morphisms},
    )
    alpha = {x: u01 for x in fc.dd.base.objects}
    assert induced_transformation(fc, fun_f, fun_g, alpha) == alpha


def test_induced_transformation_along_localisation_itself(built):
    fc = built["CH3"]
    loc = fc.localisation
    alpha = {
        x: fc.as_category.identity_of(x) for x in fc.dd.base.objects
    }
    assert induced_transformation(fc, loc, loc, alpha) == alpha


def test_induced_transformation_rejects_unnatural_input(built):
    fc = built["PAR"]
    cod = built["WALK"].as_category
    hom = lambda x, y: [
        cod.morphisms[k] for k in cod.hom(cod.obj_index[x], cod.obj_index[y])
    ]
    fun = FunctorTable(
        fc.dd.base, cod,
        {"X": "0", "Y": "1"},
        {
            "i_X": hom("0", "0")[0], "i_Y": hom("1", "1")[0],
            "f": hom("0", "1")[0], "g": hom("0", "1")[0],
        },
    )
    bad_alpha = {"X": hom("0", "1")[0], "Y": hom("1", "1")[0]}
    with pytest.raises(DomainError):
        induced_transformation(fc, fun, fun, bad_alpha)


def test_induced_functor_on_fractions_identity(built):
    fc = built["CH3"]
    fr_id = induced_functor_on_fractions(
        identity_functor(fc.dd.base), fc, fc
    )
    assert fr_id.mor_map == {c: c for c in fc.as_category.morphisms}


def test_induced_functor_on_fractions_inclusion(built):
    ch3 = built["CH3"]
    sub = full_subcategory(ch3.dd, ["0", "1"])
    fc_sub = build_fraction_category(sub)
    inclusion = FunctorTable(
        sub.base,
        ch3.dd.base,
        {x: x for x in sub.base.objects},
        {f: f for f in sub.base.morphisms},
    )
    fr_inc = induced_functor_on_fractions(inclusion, fc_sub, ch3)
    assert len(fc_sub.partition) == 4
    assert validate_functor(fr_inc) == []


def test_induced_functor_on_fractions_relabelling_iso(built):
    # an isomorphic relabelling of CH3 induces a bijective fraction functor
    ch3 = built["CH3"]
    base = ch3.dd.base
    renamed = make_poset(
        ["a", "b", "c"],
        {("a", "b"), ("b", "c"), ("a", "c")},
        ["m_a_b", "i_a", "i_b", "i_c"],
        name="CH3-renamed",
    )
    fc2 = build_fraction_category(renamed)
    obj_map = {"0": "a", "1": "b", "2": "c"}
    mor_map = {
        "i_0": "i_a", "i_1": "i_b", "i_2": "i_c",
        "m_0_1": "m_a_b", "m_0_2": "m_a_c", "m_1_2": "m_b_c",
    }
    fun = FunctorTable(base, renamed.base, obj_map, mor_map)
    fr_fun = induced_functor_on_fractions(fun, ch3, fc2)
    assert len(set(fr_fun.mor_map.values())) == len(fr_fun.mor_map)


def test_induced_functor_on_fractions_requires_preservation(built):
    ch3 = built["CH3"]
    shift = FunctorTable(
        ch3.dd.base,
        ch3.dd.base,
        {"0": "1", "1": "2", "2": "2"},
        {
            "i_0": "i_1", "i_1": "i_2", "i_2": "i_2",
            "m_0_1": "m_1_2", "m_0_2": "m_1_2", "m_1_2": "i_2",
        },
    )
    with pytest.raises(DomainError):
        induced_functor_on_fractions(shift, ch3, ch3)


def test_isomorphism_classification(built):
    assert len(classify_isomorphisms(built["DIA"])) == 16
    par = built["PAR"]
    assert classify_isomorphisms(par) == {
        par.as_category.identity_of("X"),
        par.as_category.identity_of("Y"),
    }
    ch3 = built["CH3"]
    isos = classify_isomorphisms(ch3)
    fr = ch3.as_category
    expected = set()
    for pair in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("2", "2")):
        (k,) = fr.hom(fr.obj_index[pair[0]], fr.obj_index[pair[1]])
        expected.add(fr.morphisms[k])
    assert isos == expected


@pytest.mark.parametrize("name", POSITIVE)
def test_saturation_matches_the_ladder(name, built):
    assert is_saturated(built[name])


def test_st_independence(built, named):
    assert st_independence_check(named["DIA"], named["DIA-B"])
    ch3 = named["CH3"]
    ch3_b = DenominatorData(
        ch3.base,
        ch3.denominator_ids,
        s_denominators=ch3.denominator_ids,
        t_denominators=["i_0", "i_1", "i_2"],
        name="CH3-B",
    )
    assert ch3_b.certificate().ok
    assert st_independence_check(ch3, ch3_b)
    assert st_independence_check(ch3, ch3)


def test_st_independence_requires_shared_base(named):
    with pytest.raises(DomainError):
        st_independence_check(named["CH3"], named["WALK"])


def test_localise_outputs_are_byte_identical_across_structures(named):
    out = {
        name: dumps(fraction_instance(build_fraction_category(named[name])))
        for name in ("DIA", "DIA-B")
    }
    assert out["DIA"] == out["DIA-B"]


def test_subcategory_equivalence_diab_top(named):
    report = subcategory_equivalence(named["DIA-B"], ["top"], "t-resolution")
    assert report.sub_uni_fractionable
    assert report.hypothesis_ok
    assert report.full and report.faithful and report.dense
    assert report.equivalence


def test_subcategory_equivalence_ch3_fails_hypothesis(named):
    report = subcategory_equivalence(named["CH3"], ["0", "1"], "s-resolution")
    assert not report.hypothesis_ok
    assert any("2" in msg for msg in report.hypothesis_failures)
    assert report.full and report.faithful and not report.dense
    assert not report.equivalence


def test_subcategory_equivalence_all_objects_is_trivial(named):
    report = subcategory_equivalence(
        named["CH3"], list(named["CH3"].base.objects), "s-resolution"
    )
    assert report.hypothesis_ok and report.equivalence


def test_fraction_instance_structure(built):
    inst = fraction_instance(built["CH3"])
    assert len(inst.classes) == 7
    assert inst.localisation["m_0_2"] in inst.classes
    assert set(inst.denominators) == isomorphisms(built["CH3"].as_category)


def test_empty_category_localises_to_nothing():
    empty = make_poset([], set(), name="EMPTY")
    fc = build_fraction_category(empty)
    assert fc.as_category.n_objects == 0
    assert fc.as_category.n_morphisms == 0


def test_subcategory_t_resolution_failures_ch3(named):
    report = subcategory_equivalence(named["CH3"], ["1"], "t-resolution")
    assert report.hypothesis_failures == [
        "no denominator out of 2 into the subcategory",
        "T-denominator m_0_1 enters from outside",
    ]
