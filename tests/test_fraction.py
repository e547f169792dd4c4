import itertools

import pytest

from catfrac.core import (
    DomainError,
    FunctorTable,
    find_inverse,
    identity_functor,
    isomorphisms,
    validate_category,
    validate_functor,
)
from catfrac.denominators import (
    AxiomError,
    DenominatorData,
    is_multiplicative,
    is_two_of_six,
)
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

from conftest import CROSS_CHECK, POSITIVE, cross_check_fc, strict_composites_all


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


def composite(cat, f, g):
    """f then g from the table, or None when the pair is not composable."""
    k = cat.icomp.get((cat.mor_index[f], cat.mor_index[g]))
    return None if k is None else cat.morphisms[k]


def is_two_sided_inverse(cat, f, g):
    return (
        composite(cat, f, g) == cat.identity_of(cat.src_of(f))
        and composite(cat, g, f) == cat.identity_of(cat.tgt_of(f))
    )


def invertible(cat):
    """The morphisms of ``cat`` with an inverse, trying every morphism."""
    return {
        f for f in cat.morphisms
        if any(is_two_sided_inverse(cat, f, g) for g in cat.morphisms)
    }


def weakly_saturated(dd):
    return is_multiplicative(dd, "D")[0] and is_two_of_six(dd)[0]


def inverse_problems(fc, inverse=inverse_of_denominator):
    """For every denominator d: ``inverse`` gives [d/1/1], which equals
    [1/1/d] and is a two-sided inverse of L(d)."""
    cat, problems = fc.dd.base, []
    for d in fc.dd.den_sorted:
        name = cat.morphisms[d]
        inv = inverse(fc, name)
        e_src, e_tgt = cat.iidentity[cat.isrc[d]], cat.iidentity[cat.itgt[d]]
        spellings = {
            fc.class_id(ThreeArrow(d, e_src, e_src)),
            fc.class_id(ThreeArrow(e_tgt, e_tgt, d)),
        }
        if spellings != {inv}:
            problems.append(f"{name}: {inv} is not both of {sorted(spellings)}")
        loc = fc.localisation.mor_map[name]
        if not is_two_sided_inverse(fc.as_category, loc, inv):
            problems.append(f"{name}: {inv} does not invert {loc}")
    return problems


def test_every_denominator_has_the_two_spellings_of_inverse():
    # [d/1/1] == [1/1/d], and both invert L(d)
    for name in CROSS_CHECK:
        assert inverse_problems(cross_check_fc(name)) == [], name


def test_planted_wrong_inverse_is_caught():
    # the identity of the target in place of the inverse of L(m_0_1)
    fc = cross_check_fc("CH3")
    problems = inverse_problems(
        fc, lambda fc, d: fc.as_category.identity_of(fc.dd.base.tgt_of(d))
    )
    assert problems == [
        f"m_0_1: {fc.as_category.identity_of('1')} is not both of "
        f"{[inverse_of_denominator(fc, 'm_0_1')]}",
        f"m_0_1: {fc.as_category.identity_of('1')} does not invert "
        f"{fc.localisation.mor_map['m_0_1']}",
    ]


def invert_class_problems(fc, invert=invert_class):
    """For every three-arrow t with a denominator middle, ``invert`` gives
    a two-sided inverse of [t]."""
    problems = []
    for t in fc.partition.arrows:
        if t.f in fc.dd.iden:
            own, inv = fc.class_id(t), invert(fc, t)
            if not is_two_sided_inverse(fc.as_category, own, inv):
                problems.append(f"{t.ids(fc.dd)}: {inv} does not invert {own}")
    return problems


@pytest.mark.parametrize("name", CROSS_CHECK)
def test_invert_class_is_a_two_sided_inverse(name):
    assert invert_class_problems(cross_check_fc(name)) == []


def test_planted_wrong_inverse_class_is_caught():
    # the class itself in place of its inverse: wrong off the identities
    fc = cross_check_fc("CH3")
    problems = invert_class_problems(fc, lambda fc, t: fc.class_id(t))
    identities = {fc.as_category.identity_of(x) for x in fc.as_category.objects}
    expected = [
        t for t in fc.partition.arrows
        if t.f in fc.dd.iden and fc.class_id(t) not in identities
    ]
    assert len(problems) == len(expected) > 0


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


def functors_inverting_d(fc):
    """The localisation, and the functor onto the terminal category."""
    base = fc.dd.base
    point = make_monoid(["1"], [["1"]], ["1"], name="T1").base
    to_point = FunctorTable(
        base, point, {x: "pt" for x in base.objects}, {f: "1" for f in base.morphisms}
    )
    return [fc.localisation, to_point]


def induced_functor_problems(fc, fun, induce=induced_functor):
    """The result of ``induce`` is a functor, gives every member of every
    class the value F(b)^-1 F(f) F(a)^-1 of its class, and composed after
    the localisation is ``fun``."""
    hat = induce(fc, fun)
    tgt, m = fun.target, fc.dd.base.morphisms
    problems = [str(v) for v in validate_functor(hat)]
    for gi, cid in enumerate(fc.partition.class_ids):
        for t in fc.partition.members(gi):
            fb_inv = find_inverse(tgt, fun.mor_map[m[t.b]])
            fa_inv = find_inverse(tgt, fun.mor_map[m[t.a]])
            value = tgt.compose(tgt.compose(fb_inv, fun.mor_map[m[t.f]]), fa_inv)
            if value != hat.mor_map[cid]:
                problems.append(f"{t.ids(fc.dd)}: {value}, not {hat.mor_map[cid]}")
    back = fc.localisation.compose_with(hat)
    if (back.obj_map, back.mor_map) != (fun.obj_map, fun.mor_map):
        problems.append("does not factor through the localisation")
    return problems


@pytest.mark.parametrize("name", CROSS_CHECK)
def test_induced_functor_is_independent_of_the_representative(name):
    fc = cross_check_fc(name)
    for fun in functors_inverting_d(fc):
        assert induced_functor_problems(fc, fun) == []


def with_wrong_image(table, cid):
    """A copy of ``table`` sending class ``cid`` to another morphism."""
    mor_map = dict(table.mor_map)
    mor_map[cid] = next(c for c in table.target.morphisms if c != mor_map[cid])
    return FunctorTable(table.source, table.target, dict(table.obj_map), mor_map)


def test_planted_wrong_image_is_caught():
    # Z4: the class of 2, whose members are (u, 2, v) for units u, v, is
    # sent to the class of 0 (still a functor: 0 and 2 square to 0)
    fc = cross_check_fc("Z4")
    two = fc.localisation.mor_map["2"]
    problems = induced_functor_problems(
        fc, fc.localisation,
        lambda fc, fun: with_wrong_image(induced_functor(fc, fun), two),
    )
    members = fc.partition.members(fc.partition.group_of_id(two))
    assert len(members) == 4
    assert problems == [
        f"{t.ids(fc.dd)}: {two}, not {fc.as_category.morphisms[0]}" for t in members
    ] + ["does not factor through the localisation"]


def functors_between_fractions(name):
    """(F, source, target): the identity of the base, and the inclusion of
    every full subcategory on a proper nonempty set of objects whose
    restricted structure is uni-fractionable."""
    fc = cross_check_fc(name)
    base = fc.dd.base
    out = [(identity_functor(base), fc, fc)]
    for k in range(1, base.n_objects):
        for objects in itertools.combinations(base.objects, k):
            sub = full_subcategory(fc.dd, list(objects))
            if sub.certificate().ok:
                inclusion = FunctorTable(
                    sub.base, base, {x: x for x in objects},
                    {f: f for f in sub.base.morphisms},
                )
                out.append((inclusion, build_fraction_category(sub), fc))
    return out


def fraction_functor_problems(fun, fc_src, fc_tgt, induce=induced_functor_on_fractions):
    """The result of ``induce`` is a functor, sends every member of every
    class to the class of its image, and commutes with both
    localisations."""
    result = induce(fun, fc_src, fc_tgt)
    mi, m = fun.target.mor_index, fc_src.dd.base.morphisms
    problems = [str(v) for v in validate_functor(result)]
    for gi, cid in enumerate(fc_src.partition.class_ids):
        for t in fc_src.partition.members(gi):
            image = fc_tgt.class_id(ThreeArrow(*(mi[fun.mor_map[m[k]]] for k in t)))
            expected = result.mor_map[cid]
            if image != expected:
                problems.append(f"{t.ids(fc_src.dd)}: {image}, not {expected}")
    lhs = fun.compose_with(fc_tgt.localisation)
    rhs = fc_src.localisation.compose_with(result)
    if (lhs.obj_map, lhs.mor_map) != (rhs.obj_map, rhs.mor_map):
        problems.append("does not commute with the localisations")
    return problems


@pytest.mark.parametrize("name", CROSS_CHECK)
def test_induced_functor_on_fractions_is_independent_of_the_representative(name):
    cases = functors_between_fractions(name)
    assert len(cases) > 1 or cross_check_fc(name).dd.base.n_objects == 1
    for fun, fc_src, fc_tgt in cases:
        assert fraction_functor_problems(fun, fc_src, fc_tgt) == []


def test_planted_wrong_class_is_caught():
    # DIA's identity functor with the class of m_bot_a sent elsewhere
    fc = cross_check_fc("DIA")
    moved = fc.localisation.mor_map["m_bot_a"]
    problems = fraction_functor_problems(
        identity_functor(fc.dd.base), fc, fc,
        lambda *args: with_wrong_image(induced_functor_on_fractions(*args), moved),
    )
    members = fc.partition.members(fc.partition.group_of_id(moved))
    assert len(problems) > len(members) > 1
    assert problems[-1] == "does not commute with the localisations"


def transformations(fc):
    """(F, G, alpha) into the fraction category: the identity of the
    localisation L, and every alpha: L => constant functor at an object
    that is natural on the base."""
    loc, fr, base = fc.localisation, fc.as_category, fc.dd.base
    out = [(loc, loc, {x: fr.identity_of(x) for x in base.objects})]
    for c in fr.objects:
        const = FunctorTable(
            base, fr, {x: c for x in base.objects},
            {f: fr.identity_of(c) for f in base.morphisms},
        )
        homs = [
            [fr.morphisms[k] for k in fr.hom(fr.obj_index[x], fr.obj_index[c])]
            for x in base.objects
        ]
        for components in itertools.product(*homs):
            alpha = dict(zip(base.objects, components))
            if all(
                composite(fr, loc.mor_map[f], alpha[base.tgt_of(f)])
                == alpha[base.src_of(f)]
                for f in base.morphisms
            ):
                out.append((loc, const, alpha))
    return out


def transformation_problems(fc, fun_f, fun_g, alpha, lift=induced_transformation):
    """The result of ``lift`` is natural at every class, between the
    functors induced by F and G."""
    hat = lift(fc, fun_f, fun_g, alpha)
    hat_f, hat_g = induced_functor(fc, fun_f), induced_functor(fc, fun_g)
    tgt, fr = fun_f.target, fc.as_category
    problems = []
    for cid in fr.morphisms:
        x, y = fr.src_of(cid), fr.tgt_of(cid)
        lhs = composite(tgt, hat_f.mor_map[cid], hat[y])
        if lhs is None or lhs != composite(tgt, hat[x], hat_g.mor_map[cid]):
            problems.append(f"not natural at {cid}")
    return problems


@pytest.mark.parametrize("name", CROSS_CHECK)
def test_induced_transformation_is_natural_at_every_class(name):
    fc = cross_check_fc(name)
    for fun_f, fun_g, alpha in transformations(fc):
        assert transformation_problems(fc, fun_f, fun_g, alpha) == []


def test_planted_wrong_component_is_caught():
    # Z4: alpha = [0] is natural from L to the constant functor; the
    # identity component is natural only at the identity class
    fc = cross_check_fc("Z4")
    fr, zero = fc.as_category, fc.localisation.mor_map["0"]
    (case,) = [case for case in transformations(fc) if case[2] == {"pt": zero}]
    problems = transformation_problems(
        fc, *case, lambda *args: {"pt": fr.identity_of("pt")}
    )
    assert problems == [
        f"not natural at {cid}"
        for cid in fr.morphisms
        if cid != fr.identity_of("pt")
    ]


def isomorphism_problems(fc, classify=classify_isomorphisms):
    """``classify`` gives the invertible classes, found by trying every
    class as inverse; on a weakly saturated structure these are the
    classes whose members have a denominator middle."""
    isos = classify(fc)
    problems = []
    if isos != invertible(fc.as_category):
        problems.append(f"{sorted(isos)} are not the invertible classes")
    if weakly_saturated(fc.dd):
        for gi, cid in enumerate(fc.partition.class_ids):
            for t in fc.partition.members(gi):
                if (cid in isos) != (t.f in fc.dd.iden):
                    problems.append(f"{t.ids(fc.dd)}: middle disagrees with {cid}")
    return problems


@pytest.mark.parametrize("name", CROSS_CHECK)
def test_isomorphisms_are_the_denominator_middles(name):
    fc = cross_check_fc(name)
    assert weakly_saturated(fc.dd)
    assert isomorphism_problems(fc) == []


def test_planted_missing_isomorphism_is_caught():
    fc = cross_check_fc("CH3")
    dropped = fc.localisation.mor_map["m_0_1"]
    problems = isomorphism_problems(
        fc, lambda fc: classify_isomorphisms(fc) - {dropped}
    )
    members = fc.partition.members(fc.partition.group_of_id(dropped))
    assert len(problems) == 1 + len(members)
    assert problems[1:] == [
        f"{t.ids(fc.dd)}: middle disagrees with {dropped}" for t in members
    ]


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


def saturation_problems(fc, saturated=is_saturated):
    """``saturated`` agrees with weak saturation (the ladder) and with a
    direct reading: every base morphism with an invertible image is in D."""
    dd = fc.dd
    isos = invertible(fc.as_category)
    direct = all(
        fc.localisation.mor_map[f] not in isos or dd.base.mor_index[f] in dd.iden
        for f in dd.base.morphisms
    )
    verdicts = {
        "is_saturated": saturated(fc), "ladder": weakly_saturated(dd), "direct": direct,
    }
    return [] if len(set(verdicts.values())) == 1 else [str(verdicts)]


@pytest.mark.parametrize("name", CROSS_CHECK)
def test_saturation_matches_the_ladder(name):
    fc = cross_check_fc(name)
    assert is_saturated(fc)
    assert saturation_problems(fc) == []


def test_planted_wrong_saturation_is_caught():
    fc = cross_check_fc("PAR")
    assert saturation_problems(fc, lambda fc: False) == [
        "{'is_saturated': False, 'ladder': True, 'direct': True}"
    ]


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


@pytest.mark.parametrize("objects", (["nope"], ["0", "nope"]))
def test_unknown_subcategory_objects_are_domain_errors(objects, named):
    # named, never a bare KeyError and never an empty subcategory
    with pytest.raises(DomainError, match="unknown object id 'nope'"):
        full_subcategory(named["CH3"], objects)
    for variant in ("s-resolution", "t-resolution"):
        with pytest.raises(DomainError, match="unknown object id 'nope'"):
            subcategory_equivalence(named["CH3"], objects, variant)


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
