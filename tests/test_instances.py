import pytest
from hypothesis import given, settings, strategies as st

from catfrac.core import DomainError, validate_category
from catfrac.denominators import DenominatorData, is_uni_fractionable
from catfrac.fileio import dumps
from catfrac.fraction import build_fraction_category
from catfrac.instances import (
    NAMED,
    as_instance,
    chain,
    diamond,
    make_monoid,
    make_named,
    make_poset,
    transformation_monoid,
)
from catfrac.three_arrows import fraction_equivalence

from conftest import POSITIVE


@pytest.mark.parametrize("name", NAMED)
def test_named_instances_validate(name):
    dd = make_named(name)
    assert validate_category(dd.base) == []


@pytest.mark.parametrize("name", POSITIVE)
def test_named_positive_instances_pass_the_axioms(name):
    ok, cert = is_uni_fractionable(make_named(name))
    assert ok, cert.failed_axioms()


def test_walk_shape():
    dd = make_named("WALK")
    assert dd.base.n_objects == 2 and dd.base.n_morphisms == 3
    assert len(dd.iden) == 3


def test_par_shape():
    dd = make_named("PAR")
    assert dd.base.n_objects == 2 and dd.base.n_morphisms == 4
    assert dd.denominator_ids == ["i_X", "i_Y"]


def test_diab_passes_with_identity_t_side():
    dd = make_named("DIA-B")
    assert dd.certificate().ok
    assert set(dd.t_ids) == {"i_bot", "i_a", "i_b", "i_top"}
    assert set(dd.s_ids) == set(dd.denominator_ids)


def test_unknown_name_rejected():
    with pytest.raises(DomainError):
        make_named("NOPE")


def test_chain_examples():
    ch3 = chain(3, ["m_0_1", "i_0", "i_1", "i_2"])
    assert ch3.base.morphisms == ("m_0_1", "m_0_2", "m_1_2", "i_0", "i_1", "i_2")
    dia = diamond("all")
    assert dia.base.n_morphisms == 9
    discrete = make_poset(["a", "b"], set(), "identities", name="anti")
    assert discrete.base.n_morphisms == 2


def test_z4_units():
    dd = make_named("Z4")
    assert dd.base.n_morphisms == 4
    assert set(dd.denominator_ids) == {"1", "3"}


def test_idem_fails_exactly_wu():
    ok, cert = is_uni_fractionable(make_named("IDEM"))
    assert not ok and cert.failed_axioms() == ["(WU)"]


def test_transformation_monoid_t3(tmp_path, capsys):
    from catfrac.cli import run
    from catfrac.fileio import dump

    dd = transformation_monoid(3)
    assert dd.base.n_morphisms == 27 and len(dd.iden) == 6
    assert dd.base.identity_of("pt") == "012"
    # "f then g" is x -> g(f(x)): the cycle 120 then the swap 102 fixes 0
    assert dd.base.compose("120", "102") == "021"
    path = str(tmp_path / "t3")
    dump(as_instance(dd), path)
    capsys.readouterr()
    assert run(["check", path, "--suite", "all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{axiom} PASS"
        for axiom in ("(Base)", "(Cat)", "(2 of 3)", "(S-mult)", "(T-mult)",
                      "(S<=D)", "(T<=D)", "(WU)", "(Fac)")
    ] + [
        "theorem PASS pairs=472878 divergences=0",
        "coproducts-valid SKIP (no coproduct data)",
        "products-valid SKIP (no product data)",
    ]


@pytest.mark.parametrize("n", [0, 10])
def test_transformation_monoid_size_is_bounded(n):
    with pytest.raises(DomainError, match="1 <= n <= 9"):
        transformation_monoid(n)


def test_planted_instances_fail_exactly_their_axiom():
    planted_2of3 = DenominatorData(
        chain(3).base,
        ["i_0", "i_1", "i_2", "m_0_1", "m_0_2"],
        s_denominators=["i_0", "i_1", "i_2", "m_0_1"],
        t_denominators=["i_0", "i_1", "i_2", "m_0_1", "m_0_2"],
        name="planted-2of3",
    )
    assert planted_2of3.certificate().failed_axioms() == ["(2 of 3)"]
    planted_fac = DenominatorData(
        chain(2).base,
        ["i_0", "i_1", "m_0_1"],
        s_denominators=["i_0", "i_1"],
        t_denominators=["i_0", "i_1"],
        name="planted-fac",
    )
    assert planted_fac.certificate().failed_axioms() == ["(Fac)"]


def test_generator_output_is_deterministic():
    first = dumps(as_instance(make_named("CH3"), with_structure=True))
    second = dumps(as_instance(make_named("CH3"), with_structure=True))
    assert first == second


def test_make_poset_rejects_non_posets():
    with pytest.raises(DomainError):
        make_poset(["a", "b"], {("a", "b"), ("b", "a")})
    with pytest.raises(DomainError):
        make_poset(["a"], {("a", "z")})


def test_make_monoid_rejects_bad_tables():
    with pytest.raises(DomainError):
        make_monoid(["a", "b"], [["a", "b"], ["b", "a"], ["a", "a"]], ["a"])
    with pytest.raises(DomainError):
        # constant table: no unit
        make_monoid(["a", "b"], [["a", "a"], ["a", "a"]], ["a"])


def test_make_monoid_rejects_non_associative():
    with pytest.raises(DomainError) as err:
        make_monoid(
            ["e", "x", "y"],
            [["e", "x", "y"], ["x", "y", "x"], ["y", "x", "e"]],
            ["e"],
        )
    assert "associative" in str(err.value)


@given(st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None)
def test_class_count_invariant_under_morphism_relabelling(perm):
    # relabel CH3's morphisms by an arbitrary permutation of new names;
    # the partition size cannot change
    from catfrac.core import FinCategory

    base = make_named("CH3").base
    fresh = [f"r{k}" for k in perm]
    rename = dict(zip(base.morphisms, fresh))
    order = sorted(base.morphisms, key=lambda f: rename[f])
    renamed = FinCategory(
        "perm",
        list(base.objects),
        [rename[f] for f in order],
        {rename[f]: base.src_of(f) for f in base.morphisms},
        {rename[f]: base.tgt_of(f) for f in base.morphisms},
        {x: rename[base.identity_of(x)] for x in base.objects},
        {
            (rename[f], rename[g]): rename[base.compose(f, g)]
            for f in base.morphisms
            for g in base.morphisms
            if base.tgt_of(f) == base.src_of(g)
        },
    )
    dd = DenominatorData(
        renamed, [rename[f] for f in make_named("CH3").denominator_ids],
        name="perm",
    )
    assert dd.certificate().ok
    assert len(fraction_equivalence(dd)) == 7


@st.composite
def identity_denominator_posets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    objects = [str(k) for k in range(n)]
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=6,
        )
    )
    leq = {(str(a), str(b)) for a, b in edges}
    changed = True
    while changed:
        changed = False
        for x, y in list(leq):
            for y2, z in list(leq):
                if y2 == y and (x, z) not in leq:
                    leq.add((x, z))
                    changed = True
    return make_poset(objects, leq, "identities", name="rand")


@given(identity_denominator_posets())
@settings(max_examples=30, deadline=None)
def test_identity_denominators_localise_trivially(dd):
    # with D = identities the fraction category reproduces the base
    assert dd.certificate().ok
    fc = build_fraction_category(dd)
    assert fc.as_category.n_morphisms == dd.base.n_morphisms
    assert len(set(fc.localisation.mor_map.values())) == dd.base.n_morphisms
