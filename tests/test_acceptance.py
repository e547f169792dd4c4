"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (run with -s to
see them live) and then asserts.  Tolerances are exact equalities and the
stated wall-clock budgets; nothing is deferred to later calibration.
"""

import time

from catfrac import fileio
from catfrac.cli import run
from catfrac.core import validate_category, validate_functor
from catfrac.denominators import (
    DenominatorData,
    classify_saturation,
    is_multiplicative,
    is_two_of_six,
    is_uni_fractionable,
)
from catfrac.fraction import (
    build_fraction_category,
    classify_isomorphisms,
    fraction_instance,
    inverse_of_denominator,
    is_saturated,
    lax_composites_all,
    subcategory_equivalence,
)
from catfrac.calculus import equal_by_3x3
from catfrac.instances import (
    chain,
    make_named,
    poset_coproducts,
    poset_products,
)
from catfrac.three_arrows import (
    ThreeArrow,
    common_denominator,
    fraction_equivalence,
    is_normal,
    normalise,
    source_of,
    target_of,
)
from catfrac.transport import (
    check_localisation_preserves_coproducts,
    check_localisation_preserves_products,
    coproduct_of_morphisms,
    denominators_closed_under_coproducts,
    denominators_closed_under_products,
    product_of_morphisms,
    validate_coproducts,
    validate_products,
)

from conftest import POSITIVE, bfs_partition, strict_composites_all


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_01_axiom_suite():
    start = time.monotonic()
    failures = []
    for name in POSITIVE:
        ok, cert = is_uni_fractionable(make_named(name))
        if not ok:
            failures.append(f"{name}: {cert.failed_axioms()}")
    ok, cert = is_uni_fractionable(make_named("IDEM"))
    if ok or cert.failed_axioms() != ["(WU)"]:
        failures.append(f"IDEM: {cert.failed_axioms()}")
    witness = dict((n, d) for n, _, d in cert.items)["(WU)"]
    if witness != "i=e f=e":
        failures.append(f"IDEM witness: {witness}")
    planted_2of3 = DenominatorData(
        chain(3).base,
        ["i_0", "i_1", "i_2", "m_0_1", "m_0_2"],
        s_denominators=["i_0", "i_1", "i_2", "m_0_1"],
        t_denominators=["i_0", "i_1", "i_2", "m_0_1", "m_0_2"],
        name="planted-2of3",
    )
    if planted_2of3.certificate().failed_axioms() != ["(2 of 3)"]:
        failures.append("planted-2of3")
    planted_fac = DenominatorData(
        chain(2).base,
        ["i_0", "i_1", "m_0_1"],
        s_denominators=["i_0", "i_1"],
        t_denominators=["i_0", "i_1"],
        name="planted-fac",
    )
    if planted_fac.certificate().failed_axioms() != ["(Fac)"]:
        failures.append("planted-fac")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(1, not failures, "; ".join(failures) or f"{elapsed:.2f}s")


def test_criterion_02_main_theorem_equivalence():
    start = time.monotonic()
    total = divergences = 0
    for name in POSITIVE:
        dd = make_named(name)
        part = fraction_equivalence(dd)
        arrows = part.arrows
        for i, t1 in enumerate(arrows):
            for t2 in arrows[i:]:
                if source_of(dd, t1) != source_of(dd, t2):
                    continue
                if target_of(dd, t1) != target_of(dd, t2):
                    continue
                total += 1
                verdict, _ = equal_by_3x3(dd, t1, t2)
                if verdict != part.same_class(t1, t2):
                    divergences += 1
    elapsed = time.monotonic() - start
    report(
        2,
        divergences == 0 and elapsed < 120.0,
        f"{total} pairs, {divergences} divergences, {elapsed:.2f}s",
    )


def test_criterion_03_well_definedness():
    bad = []
    for name in ("CH3", "DIA"):
        dd = make_named(name)
        part = fraction_equivalence(dd)
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
                if len(classes) != 1:
                    bad.append((name, t1.ids(dd), t2.ids(dd)))
    report(3, not bad, f"{len(bad)} divergences")


def test_criterion_04_fraction_category_laws():
    problems = []
    for name in POSITIVE:
        fc = build_fraction_category(make_named(name))
        if validate_category(fc.as_category):
            problems.append(f"{name}: laws")
        if validate_functor(fc.localisation):
            problems.append(f"{name}: localisation")
        # [d/1/1] == [1/1/d], a two-sided inverse of L(d)
        cat, fr = fc.dd.base, fc.as_category
        for d in fc.dd.den_sorted:
            m = cat.morphisms[d]
            inv, loc = inverse_of_denominator(fc, m), fc.localisation.mor_map[m]
            e = cat.iidentity[cat.itgt[d]]
            if (
                inv != fc.class_id(ThreeArrow(e, e, d))
                or fr.compose(loc, inv) != fr.identity_of(cat.src_of(m))
                or fr.compose(inv, loc) != fr.identity_of(cat.tgt_of(m))
            ):
                problems.append(f"{name}: inverse of {m}")
    report(4, not problems, "; ".join(problems))


def test_criterion_05_exact_counts():
    expected = {"CH3": 7, "WALK": 4, "DIA": 16, "Z4": 4}
    problems = []
    for name, count in expected.items():
        dd = make_named(name)
        oracle = len(bfs_partition(dd))
        if oracle != count:
            problems.append(f"{name}: oracle {oracle} != {count}")
        built = build_fraction_category(dd).as_category.n_morphisms
        if built != count:
            problems.append(f"{name}: build {built} != {count}")
    z4 = build_fraction_category(make_named("Z4"))
    if len(set(z4.localisation.mor_map.values())) != 4:
        problems.append("Z4: localisation not bijective")
    report(5, not problems, "; ".join(problems))


def test_criterion_06_splitting():
    problems = 0
    for name in POSITIVE:
        fc = build_fraction_category(make_named(name))
        dd, fr = fc.dd, fc.as_category
        loc = fc.localisation.mor_map
        m = dd.base.morphisms
        for t in fc.partition.arrows:
            split = fr.compose(
                fr.compose(inverse_of_denominator(fc, m[t.b]), loc[m[t.f]]),
                inverse_of_denominator(fc, m[t.a]),
            )
            if split != fc.partition.class_id(t):
                problems += 1
    report(6, problems == 0, f"{problems} mismatches")


def test_criterion_07_normalisation_and_common_denominators():
    problems = 0
    for name in POSITIVE:
        dd = make_named(name)
        part = fraction_equivalence(dd)
        for t in part.arrows:
            n = normalise(dd, t)
            if not is_normal(dd, n) or not part.same_class(t, n):
                problems += 1
        for t1 in part.arrows:
            for t2 in part.arrows:
                same_src = source_of(dd, t1) == source_of(dd, t2)
                same_tgt = target_of(dd, t1) == target_of(dd, t2)
                for mode in ("source", "target", "parallel"):
                    if mode in ("source", "parallel") and not same_src:
                        continue
                    if mode in ("target", "parallel") and not same_tgt:
                        continue
                    s1, s2 = common_denominator(dd, t1, t2, mode)
                    ok = (
                        is_normal(dd, s1)
                        and is_normal(dd, s2)
                        and part.same_class(t1, s1)
                        and part.same_class(t2, s2)
                    )
                    if mode in ("source", "parallel"):
                        ok = ok and s1.b == s2.b
                    if mode in ("target", "parallel"):
                        ok = ok and s1.a == s2.a
                    if not ok:
                        problems += 1
    report(7, problems == 0, f"{problems} contract violations")


def test_criterion_08_saturation():
    problems = []
    for name in ("CH3", "PAR"):
        level = classify_saturation(make_named(name))
        if level != "weakly-saturated":
            problems.append(f"{name} classifies {level}")
    for name in POSITIVE:
        fc = build_fraction_category(make_named(name))
        dd = fc.dd
        weakly = is_multiplicative(dd, "D")[0] and is_two_of_six(dd)[0]
        saturated = is_saturated(fc)
        if not saturated:
            problems.append(f"{name} not saturated")
        if saturated != weakly:
            problems.append(f"{name}: saturation disagrees with weak saturation")
        by_middle = {
            fc.partition.class_ids[gi]
            for gi in range(len(fc.partition))
            if fc.partition.representative(gi).f in dd.iden
        }
        if weakly and classify_isomorphisms(fc) != by_middle:
            problems.append(f"{name}: isomorphisms differ from denominator-middles")
    ch3 = build_fraction_category(make_named("CH3"))
    ch3_isos = classify_isomorphisms(ch3)
    # CH3 is 0 -> 1 -> 2 with D = {m_0_1, i_0, i_1, i_2}.  Inverting m_0_1
    # makes 0 and 1 isomorphic and leaves 7 classes, every non-empty
    # hom-set a singleton.  Nothing leaves 2 but its identity (its only
    # denominator is i_2), so hom(2,0) = hom(2,1) = {} and [m_0_2],
    # [m_1_2] have no inverse.  Invertible: the 3 identities, [m_0_1] and
    # its inverse: 5.
    if len(ch3_isos) != 5:
        problems.append(
            f"CH3 isomorphism classes: computed {len(ch3_isos)},"
            " criterion states 5"
        )
    # After localisation the invertible classes are exactly the images of
    # D and their inverses.
    d_ids = ch3.dd.denominator_ids
    from_d = {ch3.localisation.mor_map[d] for d in d_ids}
    from_d |= {inverse_of_denominator(ch3, d) for d in d_ids}
    if ch3_isos != from_d:
        problems.append(
            f"CH3 invertible classes {sorted(ch3_isos)} are not the images"
            f" of D and their inverses {sorted(from_d)}"
        )
    report(8, not problems, "; ".join(problems))


def test_criterion_09_st_independence():
    outputs = {}
    for name in ("DIA", "DIA-B"):
        fc = build_fraction_category(make_named(name))
        outputs[name] = fileio.dumps(fraction_instance(fc))
    ok = outputs["DIA"] == outputs["DIA-B"]
    ch3 = make_named("CH3")
    ch3_b = DenominatorData(
        ch3.base,
        ch3.denominator_ids,
        s_denominators=ch3.denominator_ids,
        t_denominators=["i_0", "i_1", "i_2"],
        name="CH3-B",
    )
    out1 = fileio.dumps(fraction_instance(build_fraction_category(ch3)))
    out2 = fileio.dumps(fraction_instance(build_fraction_category(ch3_b)))
    ok = ok and out1 == out2
    report(9, ok)


def test_criterion_10_subcategory_equivalence():
    problems = []
    rep = subcategory_equivalence(make_named("DIA-B"), ["top"], "t-resolution")
    if not (rep.hypothesis_ok and rep.equivalence):
        problems.append("DIA-B/top")
    rep = subcategory_equivalence(make_named("CH3"), ["0", "1"], "s-resolution")
    if rep.hypothesis_ok:
        problems.append("CH3/{0,1} hypothesis unexpectedly holds")
    if not rep.hypothesis_failures:
        problems.append("CH3/{0,1} failure not reported")
    report(10, not problems, "; ".join(problems))


def test_criterion_11_transport():
    problems = []
    for name in ("CH3", "DIA"):
        dd = make_named(name)
        cp, pd = poset_coproducts(dd), poset_products(dd)
        if validate_coproducts(dd.base, cp) or validate_products(dd.base, pd):
            problems.append(f"{name}: structure data invalid")
            continue
        closed_cp, _ = denominators_closed_under_coproducts(dd, cp)
        closed_pd, _ = denominators_closed_under_products(dd, pd)
        # S x S and T x T suffice: d + e factors through i + j, then p + q
        for closed, of, table in (
            (closed_cp, coproduct_of_morphisms, cp),
            (closed_pd, product_of_morphisms, pd),
        ):
            shortcut = all(
                of(dd.base, table, i, j) in dd.iden
                for pool in (dd.s_sorted, dd.t_sorted) for i in pool for j in pool
            )
            if closed != shortcut:
                problems.append(f"{name}: closure routes disagree")
        if not (closed_cp and closed_pd):
            problems.append(f"{name}: not closed")
            continue
        fc = build_fraction_category(dd)
        if check_localisation_preserves_coproducts(fc, cp):
            problems.append(f"{name}: coproducts not preserved")
        if check_localisation_preserves_products(fc, pd):
            problems.append(f"{name}: products not preserved")
    report(11, not problems, "; ".join(problems))


def test_criterion_12_cli(tmp_path):
    problems = []
    for name in POSITIVE + ("IDEM",):
        path = tmp_path / name
        if run(["instance", name, "-o", str(path)]) != 0:
            problems.append(f"instance {name}")
            continue
        text = path.read_text()
        if fileio.dumps(fileio.load(str(path))) != text:
            problems.append(f"round-trip {name}")
    for name in POSITIVE:
        path = str(tmp_path / name)
        dd = make_named(name)
        part = fraction_equivalence(dd)
        for g1 in range(len(part)):
            rep1 = part.representative(g1)
            others = part.members(g1)[:2]
            for rep2 in others:
                status = run(
                    [
                        "equal", path,
                        "--left", rep1.ids(dd),
                        "--right", rep2.ids(dd),
                        "--method", "both",
                    ]
                )
                if status != 0:
                    problems.append(f"equal {name} {rep1.ids(dd)}")
            for g2 in range(len(part)):
                rep2 = part.representative(g2)
                if source_of(dd, rep1) != source_of(dd, rep2):
                    continue
                if target_of(dd, rep1) != target_of(dd, rep2):
                    continue
                status = run(
                    [
                        "equal", path,
                        "--left", rep1.ids(dd),
                        "--right", rep2.ids(dd),
                        "--method", "both",
                    ]
                )
                if status != 0:
                    problems.append(f"equal {name} pair")
    out = tmp_path / "fr-ch3"
    run(["localise", str(tmp_path / "CH3"), "-o", str(out)])
    if fileio.dumps(fileio.load(str(out))) != out.read_text():
        problems.append("localise round-trip")
    report(12, not problems, "; ".join(sorted(set(problems))))
