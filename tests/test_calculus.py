import gc
import weakref

import pytest

from catfrac.calculus import (
    equal_by_3x3,
    factorisation_square,
    find_bridge,
    flip,
    grid_relations,
    mixed_composite_equal,
)
from catfrac.core import DomainError
from catfrac.denominators import AxiomError
from catfrac.fraction import compose_fractions
from catfrac.instances import NAMED, chain, make_named, transformation_monoid
from catfrac.three_arrows import (
    ThreeArrow,
    fraction_equivalence,
    identity_arrow,
    is_normal,
    source_of,
    target_of,
)

from conftest import POSITIVE, zmod


def arrow(dd, b, f, a):
    mi = dd.base.mor_index
    return ThreeArrow(mi[b], mi[f], mi[a])


def ident(dd, obj):
    return dd.base.iidentity[dd.base.obj_index[obj]]


# ---------------------------------------------------------------- equality


def test_equal_to_itself_with_witness(named):
    dd = named["CH3"]
    t = arrow(dd, "i_0", "m_0_1", "i_1")
    verdict, witness = equal_by_3x3(dd, t, t)
    assert verdict and witness is not None
    witness.validate(dd)


def test_ch3_parallel_pair_equal(named):
    dd = named["CH3"]
    verdict, witness = equal_by_3x3(
        dd, arrow(dd, "m_0_1", "m_0_2", "i_2"), arrow(dd, "i_1", "m_1_2", "i_2")
    )
    assert verdict
    witness.validate(dd)


def test_par_parallel_pair_not_equal(named):
    dd = named["PAR"]
    verdict, witness = equal_by_3x3(
        dd, arrow(dd, "i_X", "f", "i_Y"), arrow(dd, "i_X", "g", "i_Y")
    )
    assert not verdict and witness is None


def test_equal_requires_parallel_inputs(named):
    dd = named["CH3"]
    with pytest.raises(DomainError):
        equal_by_3x3(
            dd, arrow(dd, "i_0", "m_0_1", "i_1"), arrow(dd, "i_1", "m_1_2", "i_2")
        )


@pytest.mark.parametrize("name", POSITIVE)
def test_main_theorem_equivalence(name, named):
    # the grid criterion agrees with the union-find oracle on every
    # parallel pair of three-arrows
    dd = named[name]
    part = fraction_equivalence(dd)
    arrows = part.arrows
    for i, t1 in enumerate(arrows):
        for t2 in arrows[i:]:
            if source_of(dd, t1) != source_of(dd, t2):
                continue
            if target_of(dd, t1) != target_of(dd, t2):
                continue
            verdict, witness = equal_by_3x3(dd, t1, t2)
            assert verdict == part.same_class(t1, t2)
            if witness is not None:
                witness.validate(dd)


@pytest.mark.parametrize("name", POSITIVE)
def test_normal_strengthening(name, named):
    # equal normal pairs admit a witness whose middle rows are normal too
    dd = named[name]
    part = fraction_equivalence(dd)
    for gi in range(len(part)):
        normals = [t for t in part.members(gi) if is_normal(dd, t)]
        for t1 in normals:
            for t2 in normals:
                verdict, witness = equal_by_3x3(dd, t1, t2, normal_middles=True)
                assert verdict
                witness.validate(dd)
                assert is_normal(dd, witness.bridge.mid1)
                assert is_normal(dd, witness.bridge.mid2)


def blocks(dd):
    """(relations, three-arrows) of every (source, target) block of ``dd``."""
    members = {}
    for t in fraction_equivalence(dd).arrows:
        members.setdefault((source_of(dd, t), target_of(dd, t)), []).append(t)
    for (source, target), block in members.items():
        yield grid_relations(dd, source, target), block


@pytest.mark.parametrize(
    "dd",
    [make_named(name) for name in POSITIVE + ("IDEM",)]
    + [zmod(n) for n in (2, 3, 5, 6)],
    ids=lambda dd: dd.name,
)
def test_grid_relations_match_the_search(dd):
    # the relation verdict is find_bridge's on every parallel pair; a
    # positive equal_by_3x3 returns the search's first witness.  With
    # S == T == D every three-arrow is normal and normal middle rows
    # restrict nothing.
    normals = (False,) if dd.is_ == dd.it == dd.iden else (False, True)
    for rel, block in blocks(dd):
        left = identity_arrow(dd, source_of(dd, block[0]))
        right = identity_arrow(dd, target_of(dd, block[0]))
        for k, t1 in enumerate(block):
            for t2 in block[k:]:
                for normal in normals:
                    bridge = find_bridge(dd, t1, t2, left, right,
                                         middles_in_D=True, rows_normal=normal)
                    assert rel.grid_exists(t1, t2, normal) == (
                        bridge is not None
                    ), (t1.ids(dd), t2.ids(dd), normal)
                    verdict, witness = equal_by_3x3(dd, t1, t2, normal)
                    assert verdict == (bridge is not None)
                    if verdict:
                        assert witness.ids(dd) == bridge.ids(dd)


@pytest.mark.parametrize(
    "dd",
    [chain(n) for n in range(2, 9)] + [zmod(n) for n in range(2, 13)],
    ids=lambda dd: dd.name,
)
def test_grid_relations_match_the_oracle(dd):
    part = fraction_equivalence(dd)
    for rel, block in blocks(dd):
        classes = [part.class_index(t) for t in block]
        for k, t1 in enumerate(block):
            verdicts = [rel.grid_exists(t1, t2, False) for t2 in block[k:]]
            assert verdicts == [c == classes[k] for c in classes[k:]], block[k].ids(dd)


def bits(row):
    return [k for k in range(row.bit_length()) if row >> k & 1]


@pytest.mark.parametrize(
    "dd",
    [make_named(name) for name in NAMED]
    + [chain(n) for n in range(2, 9)]
    + [zmod(n) for n in range(2, 13)]
    + [transformation_monoid(3)],
    ids=lambda dd: dd.name,
)
def test_verdict_rows_are_the_pairwise_verdicts(dd):
    # verdict_row(k) against the pairwise loop the theorem suite ran
    # before it read whole rows; BotIn against Bot transposed
    for rel, block in blocks(dd):
        n = len(block)
        for k, t1 in enumerate(block):
            verdicts = [rel.grid_exists(t1, t2, False) for t2 in block]
            assert bits(rel.verdict_row(k)) == [j for j in range(n) if verdicts[j]]
        bot_in = [0] * n
        for k in range(n):
            for m2 in bits(rel.bot(k)):
                bot_in[m2] |= 1 << k
        assert [rel.bot_in(m2) for m2 in range(n)] == bot_in


def test_caches_die_with_their_structure():
    # partition, solution maps and grid relations live on the structure,
    # not in the module
    dd = make_named("CH3")
    part = fraction_equivalence(dd)
    assert fraction_equivalence(dd) is part
    t = part.arrows[0]
    assert equal_by_3x3(dd, t, t)[0]
    (rel,) = [v for key, v in dd.derived.items() if key[:1] == ("grid",)]
    assert grid_relations(dd, source_of(dd, t), target_of(dd, t)) is rel
    refs = (weakref.ref(dd), weakref.ref(dd.base), weakref.ref(rel))
    del dd, part, t, rel
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# ------------------------------------------------------------------- flip


def degenerate_hypothesis(dd, t):
    src_obj = dd.base.objects[source_of(dd, t)]
    tgt_obj = dd.base.objects[target_of(dd, t)]
    mid_l = dd.base.objects[dd.base.isrc[t.f]]
    mid_r = dd.base.objects[dd.base.itgt[t.f]]
    return dict(
        top=t, row2=t, row3=t, bottom=t,
        g2dd=ident(dd, mid_l), g2d=ident(dd, mid_r), g2=ident(dd, tgt_obj),
        d=ident(dd, mid_l), e=ident(dd, mid_r),
        i2=ident(dd, tgt_obj), p1=ident(dd, src_obj),
        g1=ident(dd, src_obj), g1d=ident(dd, mid_l), g1dd=ident(dd, mid_r),
    )


def test_flip_degenerate_all_identity(named):
    dd = named["PAR"]
    t = arrow(dd, "i_X", "f", "i_Y")
    bridge = flip(dd, degenerate_hypothesis(dd, t))
    cat = dd.base
    for col in (bridge.col1, bridge.col2):
        assert cat.is_identity(col.b)
        assert cat.is_identity(col.f)
        assert cat.is_identity(col.a)
    assert bridge.mid1 == t and bridge.mid2 == t


def test_flip_from_generator_steps(named):
    # top ~ row2 by a trivial right move, row3 = left move of row2 by m_0_1
    dd = named["CH3"]
    t1 = arrow(dd, "i_1", "i_1", "i_1")
    t2 = arrow(dd, "m_0_1", "m_0_1", "i_1")
    hyp = dict(
        top=t1, row2=t1, row3=t2, bottom=t2,
        g2dd=ident(dd, "1"), g2d=ident(dd, "1"), g2=ident(dd, "1"),
        d=dd.base.mor_index["m_0_1"], e=ident(dd, "1"),
        i2=ident(dd, "1"), p1=ident(dd, "1"),
        g1=ident(dd, "1"), g1d=ident(dd, "0"), g1dd=ident(dd, "1"),
    )
    bridge = flip(dd, hyp)
    bridge.validate(dd)
    part = fraction_equivalence(dd)
    assert part.same_class(bridge.top, bridge.bottom)
    assert part.same_class(t1, bridge.mid1)


def test_flip_rejects_broken_hypothesis(named):
    dd = named["CH3"]
    t = arrow(dd, "i_0", "m_0_1", "i_1")
    hyp = degenerate_hypothesis(dd, t)
    hyp["d"] = dd.base.mor_index["m_0_1"]  # no longer commutes
    with pytest.raises(DomainError):
        flip(dd, hyp)


def test_flip_walk_generator_pair(named):
    dd = named["WALK"]
    t1 = arrow(dd, "i_0", "i_0", "i_0")
    t2 = arrow(dd, "i_0", "m_0_1", "m_0_1")  # right move with c = m_0_1
    hyp = dict(
        top=t1, row2=t2, row3=t2, bottom=t2,
        g2dd=ident(dd, "0"), g2d=dd.base.mor_index["m_0_1"], g2=ident(dd, "0"),
        d=ident(dd, "0"), e=ident(dd, "1"),
        i2=ident(dd, "0"), p1=ident(dd, "0"),
        g1=ident(dd, "0"), g1d=ident(dd, "0"), g1dd=ident(dd, "1"),
    )
    bridge = flip(dd, hyp)
    bridge.validate(dd)
    part = fraction_equivalence(dd)
    assert part.same_class(t1, t2)
    assert part.same_class(bridge.mid1, t1)
    assert part.same_class(bridge.mid2, t2)


# --------------------------------------------------------- mixed composite


def test_mixed_all_identities(named):
    dd = named["PAR"]
    idx = identity_arrow(dd, dd.base.obj_index["X"])
    verdict, witness = mixed_composite_equal(dd, idx, idx, idx, idx)
    assert verdict
    witness.validate(dd)


def test_mixed_ch3_true_case(named):
    dd = named["CH3"]
    t1 = arrow(dd, "i_0", "m_0_1", "i_1")
    normal2 = arrow(dd, "i_1", "m_1_2", "i_2")
    normal1 = arrow(dd, "i_0", "m_0_1", "i_1")
    t2 = arrow(dd, "m_0_1", "m_0_2", "i_2")
    verdict, witness = mixed_composite_equal(dd, t1, normal2, normal1, t2)
    assert verdict
    witness.validate(dd)


def test_mixed_rejects_non_composable_columns(named):
    # the identity at 0 cannot span source(t1)=0 -> source(t2)=1
    dd = named["CH3"]
    t1 = arrow(dd, "i_0", "m_0_1", "i_1")
    normal2 = arrow(dd, "i_1", "m_1_2", "i_2")
    bad_normal1 = arrow(dd, "i_0", "i_0", "i_0")
    t2 = arrow(dd, "m_0_1", "m_0_2", "i_2")
    with pytest.raises(DomainError):
        mixed_composite_equal(dd, t1, normal2, bad_normal1, t2)


def test_mixed_par_false_case(named):
    dd = named["PAR"]
    tf = arrow(dd, "i_X", "f", "i_Y")
    tg = arrow(dd, "i_X", "g", "i_Y")
    idx = identity_arrow(dd, dd.base.obj_index["X"])
    idy = identity_arrow(dd, dd.base.obj_index["Y"])
    verdict, witness = mixed_composite_equal(dd, tf, idy, idx, tg)
    assert not verdict and witness is None


def test_mixed_requires_normal_columns(named):
    dd = named["CH3"]
    t1 = arrow(dd, "i_0", "m_0_1", "i_1")
    not_normal = arrow(dd, "m_0_1", "m_0_2", "i_2")  # b-part not in T? it is;
    # build a structure where normality genuinely fails: use DIA-B, whose
    # T-denominators are identities only
    diab = make_named("DIA-B")
    bad = arrow(diab, "m_bot_a", "m_bot_a", "i_a")
    good = identity_arrow(diab, diab.base.obj_index["a"])
    assert not is_normal(diab, bad)
    with pytest.raises(DomainError):
        mixed_composite_equal(diab, bad, good, bad, good)


def mixed_quadruples(dd, arrows, columns):
    """Every (t1, normal2, normal1, t2) with matching endpoints, the two
    columns drawn from ``columns``."""
    for t1 in arrows:
        for normal2 in columns:
            if source_of(dd, normal2) != target_of(dd, t1):
                continue
            for normal1 in columns:
                if source_of(dd, normal1) != source_of(dd, t1):
                    continue
                for t2 in arrows:
                    if (source_of(dd, t2), target_of(dd, t2)) == (
                        target_of(dd, normal1), target_of(dd, normal2)
                    ):
                        yield t1, normal2, normal1, t2


@pytest.mark.parametrize(
    "name, quadruples, positive",
    (("WALK", 258, 258), ("CH3", 365, 365), ("PAR", 18, 10),
     ("DIA-B", 10404, 10404), ("Z4", 256, 64)),
)
def test_mixed_verdict_matches_composition_exhaustive(name, quadruples, positive, named):
    # the grid verdict equals composing both sides through the partition, on
    # every quadruple; Z4 takes the identity as its only column, which leaves
    # 192 negative verdicts
    dd = named[name]
    part = fraction_equivalence(dd)
    if name == "Z4":
        columns = [identity_arrow(dd, 0)]
    else:
        columns = [t for t in part.arrows if is_normal(dd, t)]
    verdicts = []
    for t1, normal2, normal1, t2 in mixed_quadruples(dd, part.arrows, columns):
        verdict, _ = mixed_composite_equal(dd, t1, normal2, normal1, t2)
        via_compose = compose_fractions(dd, part, t1, normal2) == compose_fractions(
            dd, part, normal1, t2
        )
        assert verdict == via_compose, (t1.ids(dd), normal2.ids(dd), normal1.ids(dd),
                                        t2.ids(dd))
        verdicts.append(verdict)
    assert (len(verdicts), sum(verdicts)) == (quadruples, positive)


# ------------------------------------------------------ factorisation square


def test_factorisation_square_identity_case(named):
    dd = named["CH3"]
    fs = factorisation_square(dd, "i_0", "i_1", "m_0_1", "m_0_1")
    assert (fs.i, fs.p, fs.j, fs.q, fs.h) == ("i_0", "i_0", "i_1", "i_1", "m_0_1")


def test_factorisation_square_ch3_smallest_witness(named):
    dd = named["CH3"]
    fs = factorisation_square(dd, "m_0_1", "i_1", "m_0_1", "i_1")
    assert (fs.i, fs.p, fs.j, fs.q, fs.h) == (
        "m_0_1", "i_1", "i_1", "i_1", "i_1"
    )


def test_factorisation_square_diamond(named):
    dd = named["DIA"]
    fs = factorisation_square(dd, "m_bot_a", "m_b_top", "m_bot_b", "m_a_top")
    _check_square(dd, "m_bot_a", "m_b_top", "m_bot_b", "m_a_top", fs)


def _check_square(dd, d, e, f, g, fs):
    cat = dd.base
    assert cat.compose(fs.i, fs.p) == d
    assert cat.compose(fs.j, fs.q) == e
    assert cat.compose(f, fs.j) == cat.compose(fs.i, fs.h)
    assert cat.compose(fs.p, g) == cat.compose(fs.h, fs.q)
    assert cat.mor_index[fs.i] in dd.is_ and cat.mor_index[fs.j] in dd.is_
    assert cat.mor_index[fs.p] in dd.it and cat.mor_index[fs.q] in dd.it


def test_factorisation_square_given_left_refines(named):
    dd = named["CH3"]
    fs = factorisation_square(
        dd, "m_0_1", "i_1", "m_0_1", "i_1", given="left",
        supplied=("m_0_1", "i_1"),
    )
    _check_square(dd, "m_0_1", "i_1", "m_0_1", "i_1", fs)
    k, q2 = fs.refinement
    cat = dd.base
    cached_j, cached_q = "i_1", "i_1"  # (Fac) witness of e = i_1
    assert cat.compose(cached_j, k) == fs.j
    assert cat.compose(k, q2) == cached_q


def test_factorisation_square_given_right_refines(named):
    dd = named["CH3"]
    fs = factorisation_square(
        dd, "m_0_1", "i_1", "m_0_1", "i_1", given="right",
        supplied=("i_1", "i_1"),
    )
    _check_square(dd, "m_0_1", "i_1", "m_0_1", "i_1", fs)
    r, p2 = fs.refinement
    cat = dd.base
    cached_i, cached_p = "m_0_1", "i_1"  # (Fac) witness of d = m_0_1
    assert cat.compose(fs.i, r) == cached_i
    assert cat.compose(r, cached_p) == p2


def test_factorisation_square_rejects_bad_inputs(named):
    dd = named["CH3"]
    with pytest.raises(DomainError):
        factorisation_square(dd, "m_1_2", "i_2", "m_1_2", "i_2")  # d not in D
    with pytest.raises(DomainError):
        factorisation_square(dd, "i_0", "i_0", "m_0_1", "i_1")  # no commuting


@pytest.mark.parametrize(
    "supplied", (("m_0_1", "m_0_1"), ("nope", "i_1")), ids=("not-composable", "unknown-id")
)
def test_factorisation_square_rejects_bad_supplied_pair(named, supplied):
    with pytest.raises(DomainError):
        factorisation_square(
            named["CH3"], "m_0_1", "i_1", "m_0_1", "i_1", given="left", supplied=supplied
        )


def fac_failing_chain(extra_s=()):
    """chain(3) with D everything but S = T = the identities (plus
    ``extra_s`` in S): no non-identity denominator factors, so (Fac) fails."""
    ids = ["i_0", "i_1", "i_2"]
    return chain(3, "all", s_denominators=ids + list(extra_s), t_denominators=ids)


@pytest.mark.parametrize(
    "extra_s, square, given, supplied",
    [
        ((), ("m_0_1", "m_0_1", "i_0", "i_1"), "none", None),
        (("m_0_1",), ("m_0_1", "m_1_2", "m_0_1", "m_1_2"), "left", ("m_0_1", "i_1")),
        (("m_0_1",), ("i_0", "m_0_1", "i_0", "m_0_1"), "right", ("m_0_1", "i_1")),
    ],
    ids=("none", "left", "right"),
)
def test_factorisation_square_refuses_a_structure_failing_fac(
    extra_s, square, given, supplied
):
    # unchecked, the search comes up empty, the refinement reads a (Fac)
    # witness that is not there, or a square comes back over a structure
    # with no calculus of fractions
    dd = fac_failing_chain(extra_s)
    with pytest.raises(AxiomError) as err:
        factorisation_square(dd, *square, given=given, supplied=supplied)
    assert err.value.axioms == ["(Fac)"]


def test_flip_refuses_a_structure_failing_fac():
    dd = fac_failing_chain()
    t = arrow(dd, "i_0", "m_0_1", "i_1")
    with pytest.raises(AxiomError) as err:
        flip(dd, degenerate_hypothesis(dd, t))
    assert err.value.axioms == ["(Fac)"]


def test_factorisation_square_sweep(named):
    # the search succeeds on every commuting denominator square of
    # CH3/DIA/DIA-B, and for every composable supplied S,T pair both
    # refinements either reject the pair or return a valid square
    refined = 0
    for name in ("CH3", "DIA", "DIA-B"):
        dd = named[name]
        cat = dd.base
        m = cat.morphisms
        supplied = [
            (m[s0], m[s1])
            for s0 in dd.s_sorted
            for s1 in dd.t_sorted
            if cat.composable(s0, s1)
        ]
        for d in dd.den_sorted:
            for e in dd.den_sorted:
                for f in range(cat.n_morphisms):
                    if cat.isrc[f] != cat.isrc[d] or cat.itgt[f] != cat.isrc[e]:
                        continue
                    for g in range(cat.n_morphisms):
                        if (
                            cat.isrc[g] != cat.itgt[d]
                            or cat.itgt[g] != cat.itgt[e]
                        ):
                            continue
                        if cat.icomp[(f, e)] != cat.icomp[(d, g)]:
                            continue
                        square = (m[d], m[e], m[f], m[g])
                        fs = factorisation_square(dd, *square)
                        _check_square(dd, *square, fs)
                        for given in ("left", "right"):
                            for pair in supplied:
                                try:
                                    fs = factorisation_square(
                                        dd, *square, given=given, supplied=pair
                                    )
                                except DomainError:  # not a factorisation
                                    continue
                                _check_square(dd, *square, fs)
                                refined += 1
    assert refined > 0
