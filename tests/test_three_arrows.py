import pytest

from catfrac.core import DomainError
from catfrac import three_arrows
from catfrac.denominators import AxiomError
from catfrac.instances import (
    chain,
    diamond,
    make_named,
    make_poset,
    transformation_monoid,
)
from catfrac.three_arrows import (
    FractionPartition,
    ThreeArrow,
    arrow_rank,
    block_partition,
    common_denominator,
    enumerate_three_arrows,
    fraction_equivalence,
    generating_denominators,
    is_denominator_class,
    is_normal,
    normalise,
    parse_three_arrow,
    rank_tables,
    same_fraction,
    source_of,
    target_of,
)

from conftest import (
    POSITIVE,
    all_leg_moves,
    bfs_partition,
    block_partitions,
    certificate_ladder,
    library_moves,
    one_step_generators,
    zmod,
)


def arrow(dd, b, f, a):
    mi = dd.base.mor_index
    return ThreeArrow(mi[b], mi[f], mi[a])


def test_enumeration_counts(named):
    assert len(enumerate_three_arrows(named["WALK"])) == 8
    assert len(enumerate_three_arrows(named["Z4"])) == 16
    assert len(enumerate_three_arrows(named["CH3"])) == 12
    assert len(enumerate_three_arrows(named["DIA"])) == 64
    empty = make_poset([], set(), name="EMPTY")
    assert enumerate_three_arrows(empty) == []


def test_enumeration_is_sorted_and_well_formed(named):
    for name in POSITIVE:
        dd = named[name]
        arrows = enumerate_three_arrows(dd)
        assert arrows == sorted(arrows)
        for t in arrows:
            assert t.b in dd.iden and t.a in dd.iden
            assert dd.base.isrc[t.b] == dd.base.isrc[t.f]
            assert dd.base.itgt[t.a] == dd.base.itgt[t.f]


def test_generator_examples(named):
    walk = named["WALK"]
    pairs = all_leg_moves(walk, enumerate_three_arrows(walk))
    base = arrow(walk, "i_0", "i_0", "i_0")
    assert (base, arrow(walk, "i_0", "m_0_1", "m_0_1")) in pairs
    assert (base, base) in pairs  # identity action relates to itself
    ch3 = named["CH3"]
    assert (
        arrow(ch3, "i_1", "m_1_2", "i_2"),
        arrow(ch3, "m_0_1", "m_0_2", "i_2"),
    ) in all_leg_moves(ch3, enumerate_three_arrows(ch3))


def composite_closure(cat, members):
    """Every composite of one or more of ``members``, by plain fixpoint."""
    closure = set(members)
    while True:
        more = {
            cat.icomp[(x, y)] for x in closure for y in closure
            if cat.composable(x, y)
        } - closure
        if not more:
            return closure
        closure |= more


@pytest.mark.parametrize(
    "dd, size",
    [(chain(n), n - 1) for n in (2, 3, 6, 8, 14)]
    + [(zmod(n), size) for n, size in ((4, 1), (8, 2), (9, 1), (12, 2), (16, 2))]
    + [(diamond(), 4)],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_generating_denominators_reach_all_of_D(dd, size):
    cat = dd.base
    gens = generating_denominators(dd)
    assert len(gens) == size and list(gens) == sorted(gens)
    assert all(g in dd.iden and not cat.is_identity(g) for g in gens)
    members = {d for d in dd.iden if not cat.is_identity(d)}
    assert members <= composite_closure(cat, gens)


def test_generating_denominators_examples():
    z16 = zmod(16)
    mi = z16.base.mor_index
    assert generating_denominators(z16) == (mi["3"], mi["5"])
    ch = chain(14)
    steps = {ch.base.mor_index[f"m_{k}_{k + 1}"] for k in range(13)}
    assert set(generating_denominators(ch)) == steps


@pytest.mark.parametrize(
    "dd",
    [make_named(name) for name in POSITIVE]
    + [chain(n) for n in range(2, 9)]
    + [zmod(n) for n in (6, 8, 9, 12, 16)]
    + [transformation_monoid(3)],
    ids=lambda dd: dd.name,
)
def test_generating_set_moves_match_all_moves(dd):
    assert FractionPartition(dd).groups == bfs_partition(dd, all_leg_moves)


def test_partition_refuses_a_structure_failing_cat():
    # m_0_1 and m_1_2 are denominators but their composite m_0_2 is not
    dd = chain(4, ["m_0_1", "m_1_2", "i_0", "i_1", "i_2", "i_3"])
    with pytest.raises(AxiomError) as err:
        FractionPartition(dd)
    assert "(Cat)" in err.value.axioms


@pytest.mark.parametrize("name", POSITIVE)
def test_generators_relate_parallel_arrows(name, named):
    dd = named[name]
    for t1, t2 in library_moves(dd, enumerate_three_arrows(dd)):
        assert source_of(dd, t1) == source_of(dd, t2)
        assert target_of(dd, t1) == target_of(dd, t2)


@pytest.mark.parametrize("name", POSITIVE)
def test_two_sided_matches_one_step_closure(name, named):
    dd = named[name]
    assert fraction_equivalence(dd).groups == bfs_partition(dd, one_step_generators)


def test_partition_enumerates_once(monkeypatch):
    calls = []

    def counted(dd, block=None):
        calls.append(block)
        return enumerate_three_arrows(dd, block)

    monkeypatch.setattr(three_arrows, "enumerate_three_arrows", counted)
    # a fresh structure: the session's DIA keeps the arrows it enumerated
    dd = make_named("DIA")
    FractionPartition(dd)
    FractionPartition(dd, (0, 3))
    assert calls == [None, (0, 3)]


def blocks(dd):
    """The three-arrows of ``dd`` by (source, target), in index order."""
    out = {}
    for t in enumerate_three_arrows(dd):
        out.setdefault((source_of(dd, t), target_of(dd, t)), []).append(t)
    return out


@pytest.mark.parametrize("dd", certificate_ladder(), ids=lambda dd: dd.name)
def test_block_partitions_equal_the_whole(dd):
    if {"(Base)", "(Cat)", "(2 of 3)"} & set(dd.certificate().failed_axioms()):
        with pytest.raises(AxiomError):
            block_partition(dd, 0, 0)
        return
    whole = fraction_equivalence(dd)
    for (source, target), arrows in blocks(dd).items():
        part = block_partition(dd, source, target)
        assert block_partition(dd, source, target) is part
        assert part.arrows == arrows
        for t in arrows:
            assert part.class_id(t) == whole.class_id(t)
            assert part.representative(part.class_index(t)) == whole.representative(
                whole.class_index(t)
            )
    assert sum(
        len(dd.derived[("partition", block)]) for block in block_partitions(dd)
    ) == len(whole)


@pytest.mark.parametrize("dd", certificate_ladder(), ids=lambda dd: dd.name)
def test_rank_is_the_enumeration_position(dd):
    for k, t in enumerate(enumerate_three_arrows(dd)):
        assert arrow_rank(dd, t) == k
    # each block's own tables place its members at their block positions
    for block, arrows in blocks(dd).items():
        first, middle, last = rank_tables(dd, block)
        assert [first[b] + middle[f] + last[a] for b, f, a in arrows] == list(
            range(len(arrows))
        )


def test_same_fraction_reads_one_block():
    dd = make_named("CH3")
    left = parse_three_arrow(dd, "i_1,m_1_2,i_2")
    assert same_fraction(dd, left, parse_three_arrow(dd, "m_0_1,m_0_2,i_2"))
    assert not same_fraction(dd, left, parse_three_arrow(dd, "i_0,m_0_2,i_2"))
    assert block_partitions(dd) == [(1, 2)]
    assert ("partition", None) not in dd.derived


@pytest.mark.parametrize("name", POSITIVE)
def test_union_find_matches_bfs_oracle(name, named):
    dd = named[name]
    part = fraction_equivalence(dd)
    assert sorted(part.groups) == bfs_partition(dd)


def test_partition_counts(named):
    assert len(fraction_equivalence(named["WALK"])) == 4
    assert len(fraction_equivalence(named["CH3"])) == 7
    assert len(fraction_equivalence(named["PAR"])) == 4
    assert len(fraction_equivalence(named["DIA"])) == 16
    assert len(fraction_equivalence(named["Z4"])) == 4


def test_ch3_hom_structure(named):
    dd = named["CH3"]
    part = fraction_equivalence(dd)
    homs = {}
    for gi in range(len(part)):
        rep = part.representative(gi)
        key = (
            dd.base.objects[source_of(dd, rep)],
            dd.base.objects[target_of(dd, rep)],
        )
        homs[key] = homs.get(key, 0) + 1
    assert homs == {
        ("0", "0"): 1, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1,
        ("0", "2"): 1, ("1", "2"): 1, ("2", "2"): 1,
    }


def test_par_keeps_the_parallel_pair_apart(named):
    dd = named["PAR"]
    part = fraction_equivalence(dd)
    assert not part.same_class(
        arrow(dd, "i_X", "f", "i_Y"), arrow(dd, "i_X", "g", "i_Y")
    )


def test_denominator_middle_is_a_class_invariant(named):
    for name in POSITIVE:
        dd = named[name]
        part = fraction_equivalence(dd)
        for gi in range(len(part)):
            values = {
                is_denominator_class(dd, part, t) for t in part.members(gi)
            }
            assert len(values) == 1


def test_is_denominator_class_examples(named):
    ch3 = named["CH3"]
    part = fraction_equivalence(ch3)
    assert not is_denominator_class(ch3, part, arrow(ch3, "i_1", "m_1_2", "i_2"))
    assert is_denominator_class(ch3, part, arrow(ch3, "i_0", "m_0_1", "i_1"))
    walk = named["WALK"]
    wpart = fraction_equivalence(walk)
    assert is_denominator_class(walk, wpart, arrow(walk, "m_0_1", "i_0", "i_0"))


def test_normalise_walk_example(named):
    walk = named["WALK"]
    result = normalise(walk, arrow(walk, "m_0_1", "i_0", "i_0"))
    assert result == arrow(walk, "i_1", "i_1", "m_0_1")


def test_normalise_ch3_lands_in_the_right_class(named):
    ch3 = named["CH3"]
    part = fraction_equivalence(ch3)
    t = arrow(ch3, "m_0_1", "m_0_2", "i_2")
    result = normalise(ch3, t)
    assert is_normal(ch3, result)
    assert part.same_class(t, result)
    assert dd_endpoints(ch3, result) == ("1", "2")


def dd_endpoints(dd, t):
    return (
        dd.base.objects[source_of(dd, t)],
        dd.base.objects[target_of(dd, t)],
    )


@pytest.mark.parametrize("name", POSITIVE)
def test_normalise_contract_everywhere(name, named):
    dd = named[name]
    part = fraction_equivalence(dd)
    for t in part.arrows:
        result = normalise(dd, t)
        assert is_normal(dd, result)
        assert part.same_class(t, result)


def test_normalise_refuses_a_structure_failing_wu(named):
    # IDEM fails (WU): every three-arrow is refused up front, whether or
    # not the witnesses it would read happen to exist
    dd = named["IDEM"]
    arrows = enumerate_three_arrows(dd)
    assert len(arrows) == 8
    for t in arrows:
        with pytest.raises(AxiomError, match=r"\(WU\)"):
            normalise(dd, t)
        for mode in ("source", "target", "parallel"):
            with pytest.raises(AxiomError, match=r"\(WU\)"):
                common_denominator(dd, t, t, mode)


def test_common_denominator_idempotent_case(named):
    dd = named["CH3"]
    t = arrow(dd, "i_0", "m_0_1", "i_1")
    s1, s2 = common_denominator(dd, t, t, "parallel")
    assert s1 == s2 and is_normal(dd, s1)


def test_common_denominator_ch3_parallel_pair(named):
    dd = named["CH3"]
    part = fraction_equivalence(dd)
    t1 = arrow(dd, "m_0_1", "m_0_2", "i_2")
    t2 = arrow(dd, "i_1", "m_1_2", "i_2")
    s1, s2 = common_denominator(dd, t1, t2, "parallel")
    assert s1.b == s2.b and s1.a == s2.a
    assert part.same_class(t1, s1) and part.same_class(t2, s2)


@pytest.mark.parametrize("mode", ("source", "target", "parallel"))
@pytest.mark.parametrize("name", POSITIVE)
def test_common_denominator_contract_everywhere(name, mode, named):
    dd = named[name]
    part = fraction_equivalence(dd)
    for t1 in part.arrows:
        for t2 in part.arrows:
            if mode in ("source", "parallel") and source_of(dd, t1) != source_of(
                dd, t2
            ):
                continue
            if mode in ("target", "parallel") and target_of(dd, t1) != target_of(
                dd, t2
            ):
                continue
            s1, s2 = common_denominator(dd, t1, t2, mode)
            assert is_normal(dd, s1) and is_normal(dd, s2)
            assert part.same_class(t1, s1) and part.same_class(t2, s2)
            if mode in ("source", "parallel"):
                assert s1.b == s2.b
            if mode in ("target", "parallel"):
                assert s1.a == s2.a


def test_common_denominator_endpoint_mismatch(named):
    dd = named["CH3"]
    with pytest.raises(DomainError):
        common_denominator(
            dd,
            arrow(dd, "i_0", "m_0_1", "i_1"),
            arrow(dd, "i_1", "m_1_2", "i_2"),
            "source",
        )


def test_z4_common_denominator_distinct_b(named):
    dd = named["Z4"]
    part = fraction_equivalence(dd)
    t1 = arrow(dd, "1", "2", "1")
    t2 = arrow(dd, "3", "2", "1")
    s1, s2 = common_denominator(dd, t1, t2, "source")
    assert s1.b == s2.b
    assert part.same_class(t1, s1) and part.same_class(t2, s2)


def test_parse_three_arrow(named):
    dd = named["CH3"]
    t = parse_three_arrow(dd, "i_1,m_1_2,i_2")
    assert t == arrow(dd, "i_1", "m_1_2", "i_2")
    # a three-arrow is looked up in tables keyed by plain (b, f, a) tuples
    assert t == (t.b, t.f, t.a) and hash(t) == hash((t.b, t.f, t.a))
    with pytest.raises(DomainError):
        parse_three_arrow(dd, "i_1,m_1_2")
    with pytest.raises(DomainError):
        parse_three_arrow(dd, "m_1_2,i_1,i_1")  # m_1_2 is not a denominator
