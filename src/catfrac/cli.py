"""Command-line surface.

Exit status: 0 on success, 1 on a domain or validation failure (one
``error:`` line) or a broken internal invariant (one ``DIVERGENCE`` line),
2 on a usage error.  All reports are stable, line-oriented key/value
text; the same strings the test-suite parses.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fileio
from .core import DomainError, InvariantError, validate_category
from .denominators import AxiomError, require_uni_fractionable
from .fraction import (
    build_fraction_category,
    compose_fractions,
    fraction_dot,
    fraction_instance,
)
from .instances import NAMED, as_instance, from_instance, make_named
from .three_arrows import (
    block_partition,
    check_normal,
    fraction_equivalence,
    normalise,
    parse_three_arrow,
    same_fraction,
    source_of,
    target_of,
)
from .calculus import equal_by_3x3, grid_relations


def _load(path: str):
    inst = fileio.load(path)
    return inst, from_instance(inst)


def cmd_validate(args) -> int:
    _, dd = _load(args.file)
    report = validate_category(dd.base)
    for violation in report:
        print(violation)
    if report:
        return 1
    print(f"valid: {dd.base.n_objects} objects, {dd.base.n_morphisms} morphisms")
    return 0


def cmd_axioms(args) -> int:
    _, dd = _load(args.file)
    cert = dd.certificate()
    for line in cert.lines():
        print(line)
    if args.witness and cert.ok:
        m = dd.base.morphisms
        for d, (i, p) in cert.fac.witnesses.items():
            print(f"(Fac) witness {m[d]} = {m[i]} ; {m[p]}")
    return 0 if cert.ok else 1


def cmd_localise(args) -> int:
    _, dd = _load(args.file)
    fc = build_fraction_category(dd)
    # --dot is opened (appending, so nothing is lost) before -o is written
    # and written after it: a bad path of either kind leaves no new file
    new_dot = args.dot and not os.path.exists(args.dot)
    if args.dot:
        open(args.dot, "a", encoding="utf-8").close()
    try:
        fileio.dump(fraction_instance(fc), args.output)
    except OSError:
        if new_dot:
            os.remove(args.dot)
        raise
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(fraction_dot(fc))
    print(
        f"classes: {len(fc.partition)} over {dd.base.n_objects} objects "
        f"-> {args.output}"
    )
    return 0


def cmd_equal(args) -> int:
    _, dd = _load(args.file)
    require_uni_fractionable(dd)
    left = parse_three_arrow(dd, args.left)
    right = parse_three_arrow(dd, args.right)
    results = {}
    if args.method in ("oracle", "both"):
        results["oracle"] = same_fraction(dd, left, right)
    if args.method in ("3x3", "both"):
        verdict, witness = equal_by_3x3(dd, left, right)
        results["3x3"] = verdict
        if args.witness and witness is not None:
            print(f"witness {witness.ids(dd)}")
    if args.method == "both" and results["oracle"] != results["3x3"]:
        print(
            f"DIVERGENCE oracle={results['oracle']} 3x3={results['3x3']}",
            file=sys.stderr,
        )
        return 1
    print("equal" if all(results.values()) else "not equal")
    return 0


def cmd_compose(args) -> int:
    _, dd = _load(args.file)
    require_uni_fractionable(dd)
    left = parse_three_arrow(dd, args.left)
    right = parse_three_arrow(dd, args.right)
    # [left][right] runs from the source of left to the target of right
    part = block_partition(dd, source_of(dd, left), target_of(dd, right))
    gi = compose_fractions(dd, part, left, right, strict=(args.mode == "strict"))
    print(f"{part.class_ids[gi]}: {part.representative(gi).ids(dd)}")
    return 0


def cmd_normalise(args) -> int:
    _, dd = _load(args.file)
    require_uni_fractionable(dd)
    t = parse_three_arrow(dd, args.arrow)
    result = normalise(dd, t)
    check_normal(dd, result)
    print(result.ids(dd))
    return 0


def _suite_theorem(dd) -> list[str]:
    if not dd.certificate().ok:
        return ["theorem SKIP (structure axioms fail)"]
    part = fraction_equivalence(dd)
    checked = diverged = 0
    for source, target in {(source_of(dd, t), target_of(dd, t)) for t in part.arrows}:
        # the verdicts of equal_by_3x3 on (t1, every later t2), read from the
        # relations without a witness, against t1's class over the block
        rel = grid_relations(dd, source, target)
        classes = [part.class_index(t) for t in rel.index]
        masks = dict.fromkeys(classes, 0)
        for k, gi in enumerate(classes):
            masks[gi] |= 1 << k
        for k, gi in enumerate(classes):
            checked += len(classes) - k
            diverged += ((rel.verdict_row(k) ^ masks[gi]) >> k).bit_count()
    status = "PASS" if diverged == 0 else "FAIL"
    return [f"theorem {status} pairs={checked} divergences={diverged}"]


def _suite_transport(inst, dd) -> list[str]:
    from .transport import (
        check_localisation_preserves_coproducts,
        check_localisation_preserves_products,
        sum_formula_check,
        validate_coproducts,
        validate_products,
    )

    if "(Base)" in dd.certificate().failed_axioms():
        return ["transport SKIP (category laws fail)"]
    lines = []
    fc = None

    def transported(label, check, table) -> str:
        # the fraction category exists only over a certified structure
        nonlocal fc
        if not dd.certificate().ok:
            return f"{label} SKIP (structure axioms fail)"
        fc = fc or build_fraction_category(dd)
        return f"{label} {'PASS' if not check(fc, table) else 'FAIL'}"

    for kind, table, validate, preserves in (
        ("coproduct", inst.coproducts,
         validate_coproducts, check_localisation_preserves_coproducts),
        ("product", inst.products,
         validate_products, check_localisation_preserves_products),
    ):
        if table is None:
            lines.append(f"{kind}s-valid SKIP (no {kind} data)")
            continue
        bad = validate(dd.base, table)
        lines.append(f"{kind}s-valid {'PASS' if not bad else 'FAIL'}")
        if not bad:
            lines.append(transported(f"{kind}s-preserved", preserves, table))
    if inst.addition is not None:
        lines.append(transported("sum-formula", sum_formula_check, inst.addition))
    return lines


def cmd_check(args) -> int:
    inst, dd = _load(args.file)
    lines: list[str] = []
    if args.suite in ("axioms", "all"):
        lines += dd.certificate().lines()
    if args.suite in ("theorem", "all"):
        lines += _suite_theorem(dd)
    if args.suite in ("transport", "all"):
        lines += _suite_transport(inst, dd)
    for line in lines:
        print(line)
    return 0 if all(" FAIL" not in line for line in lines) else 1


def cmd_instance(args) -> int:
    dd = make_named(args.name)
    fileio.dump(as_instance(dd, with_structure=True), args.output)
    print(f"{args.name} -> {args.output}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each parse starts
    from a fresh namespace, so no argument carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="catfrac",
        description="Localisation of finite categories by three-arrow fractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the category laws of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("axioms", help="check the denominator-structure axioms")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("localise", help="build and write the fraction category")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_localise)

    p = sub.add_parser("equal", help="decide equality of two three-arrows")
    p.add_argument("file")
    p.add_argument("--left", required=True, metavar="b,f,a")
    p.add_argument("--right", required=True, metavar="b,f,a")
    p.add_argument("--witness", action="store_true")
    p.add_argument(
        "--method", choices=("oracle", "3x3", "both"), default="oracle"
    )
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("compose", help="compose two three-arrows")
    p.add_argument("file")
    p.add_argument("--left", required=True, metavar="b,f,a")
    p.add_argument("--right", required=True, metavar="b,f,a")
    p.add_argument("--mode", choices=("strict", "lax"), default="strict")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("normalise", help="normalise a three-arrow")
    p.add_argument("file")
    p.add_argument("--arrow", required=True, metavar="b,f,a")
    p.set_defaults(func=cmd_normalise)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("file")
    p.add_argument(
        "--suite",
        choices=("axioms", "theorem", "transport", "all"),
        default="all",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("instance", help="emit a built-in instance")
    p.add_argument("name", choices=NAMED)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_instance)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, AxiomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"DIVERGENCE {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
