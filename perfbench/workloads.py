"""The three benchmark workloads: instance files, request plans and checks.

A workload names the instance files it needs and turns a seed into a fixed
sequence of steps.  Each step is one request: a ``catfrac`` command line run
in-process through ``catfrac.cli.run``, or one call into the library.  Every
step carries a check that compares the answer with ``reference`` (plain
arithmetic, no catfrac) and returns a failure reason or None.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import reference as ref

# sizes per scale; "smoke" runs every code path in about a second
SCALES = {
    "full": {
        "poset-suite": {"localise": (12, 14), "check": 8},
        "monoid-theorem": {"theorem": 12, "sample": 16, "pairs": 800, "batch": 20},
        "query-stream": {"chain": 10, "zmod": 16, "each": 8},
    },
    "smoke": {
        "poset-suite": {"localise": (3, 4), "check": 3},
        "monoid-theorem": {"theorem": 4, "sample": 6, "pairs": 40, "batch": 4},
        "query-stream": {"chain": 4, "zmod": 6, "each": 2},
    },
}

# Percentile reported as req_tail_ms.  It is fixed per workload, so that the
# number of passes a run fits in never changes which percentile is read; a
# run makes enough passes to leave at least 10 samples beyond it.  A
# poset-suite pass is only three requests, so its tail is the median.
TAIL_PERCENTILE = {"poset-suite": 50.0, "monoid-theorem": 90.0, "query-stream": 95.0}


@dataclass
class Step:
    """One request.  ``call(ctx)`` is timed; ``check(result, ctx)`` is not.

    ``ctx`` is a dict shared by the steps of one pass.  ``grid`` is the
    number of grid-certificate verdicts the request makes; ``kind`` is "cli"
    or "library".  A probe request is timed in the pass but is not a sample
    of the request latency.
    """

    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], str | None]
    grid: int = 0
    kind: str = "cli"
    probe: bool = False


def instance_key(kind: str, n: int) -> str:
    return f"{kind}{n}"


def make_instances(program, specs, directory) -> dict[str, str]:
    """Write one instance file per (kind, n) spec with the program's own
    generators; returns key -> path."""
    paths = {}
    for kind, n in specs:
        if kind == "chain":
            dd = program.instances.chain(n)
        else:
            labels = [str(k) for k in range(n)]
            table = [[str(a * b % n) for b in range(n)] for a in range(n)]
            dd = program.instances.make_monoid(
                labels, table, [str(u) for u in ref.units(n)], name=f"Z{n}"
            )
        path = str(directory / f"{instance_key(kind, n)}.json")
        program.fileio.dump(
            program.instances.as_instance(dd, with_structure=True), path
        )
        paths[instance_key(kind, n)] = path
    return paths


def instance_specs(workload: str, scale: str) -> list[tuple[str, int]]:
    p = SCALES[scale][workload]
    if workload == "poset-suite":
        specs = [("chain", n) for n in (*p["localise"], p["check"])]
    elif workload == "monoid-theorem":
        specs = [("zmod", p["theorem"]), ("zmod", p["sample"])]
    else:
        specs = [("chain", p["chain"]), ("zmod", p["zmod"])]
    return list(dict.fromkeys(specs + PROBE_SPECS))


def plan(program, workload, scale, seed, paths, digests, workdir) -> list[Step]:
    rng = random.Random(seed)
    p = SCALES[scale][workload]
    if workload == "poset-suite":
        # no queries to pick: the sequence is the same for every seed
        steps = [
            _localise(program, n, paths, digests, workdir) for n in p["localise"]
        ]
        steps.append(_check_all(program, p["check"], paths))
    elif workload == "monoid-theorem":
        # half the sample before the theorem suite and half after, so that
        # the verdict times span more of each pass
        sample = _sample(program, rng, p["sample"], p["pairs"], p["batch"], paths)
        half = len(sample) // 2
        steps = sample[:half] + [_theorem(program, p["theorem"], paths)] + sample[half:]
    elif workload == "query-stream":
        steps = _query_stream(program, rng, p, paths)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return steps + _probe(program, paths, digests, workdir)


# Every pass ends with four tiny requests that reach every traced layer, so
# that each workload's trace covers all layers: a negative grid verdict needs
# a category that is not thin (Z/4), transport needs (co)products (chain(3)).
PROBE_SPECS = [("chain", 3), ("zmod", 4)]


def _probe(program, paths, digests, workdir) -> list[Step]:
    path = paths[instance_key("chain", 3)]
    steps = [
        _check_all(program, 3, paths),
        _localise(program, 3, paths, digests, workdir),
        _normalise(program, path, "i_0,m_0_2,m_1_2", ref.chain_arrow_ends, (0, 1)),
        _theorem(program, 4, paths),
    ]
    for step in steps:
        step.probe = True
    return steps


# -- command-line requests -------------------------------------------------------

def _cli(program, name, argv, check, grid=0) -> Step:
    def call(ctx):
        return program.run_cli(argv)

    def checked(result, ctx):
        rc, out, err = result
        if rc != 0 or "DIVERGENCE" in err:
            return f"{' '.join(argv)}: exit {rc}: {err.strip()}"
        return check(out)

    return Step(name, call, checked, grid)


def _localise(program, n, paths, digests, workdir) -> Step:
    key = instance_key("chain", n)
    out_path = str(workdir / f"localised-{key}.json")

    def check(out):
        if out != f"classes: {n * n} over {n} objects -> {out_path}\n":
            return f"localise {key}: unexpected report {out!r}"
        with open(out_path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest != digests.get(key):
            return f"localise {key}: sha256 {digest} differs from the recorded one"
        return _check_chain_classes(n, json.loads(data)["classes"])

    return _cli(program, "localise", ["localise", paths[key], "-o", out_path], check)


def _check_chain_classes(n, classes: dict[str, list[str]]) -> str | None:
    seen = set()
    members = 0
    for cid, arrows in classes.items():
        ends = {ref.chain_arrow_ends(t) for t in arrows}
        if len(ends) != 1 or ends <= seen:
            return f"class {cid} is not one (source, target) pair: {sorted(ends)}"
        seen |= ends
        members += len(arrows)
    if len(seen) != n * n or members != ref.chain_arrow_count(n):
        return f"chain{n}: {len(seen)} classes over {members} three-arrows"
    return None


_STATUS = re.compile(r"^(.*?) (PASS|FAIL|SKIP)\b(.*)$")


def _check_all(program, n, paths) -> Step:
    pairs = ref.chain_theorem_pairs(n)
    required = {"theorem", "coproducts-preserved", "products-preserved"}

    def check(out):
        names = set()
        for line in out.splitlines():
            m = _STATUS.match(line)
            if m is None or m.group(2) != "PASS":
                return f"check chain{n}: {line!r}"
            names.add(m.group(1))
            if m.group(1) == "theorem" and m.group(3) != (
                f" pairs={pairs} divergences=0"
            ):
                return f"check chain{n}: {line!r}, expected pairs={pairs}"
        if not required <= names:
            return f"check chain{n}: missing {sorted(required - names)}"
        return None

    argv = ["check", paths[instance_key("chain", n)], "--suite", "all"]
    return _cli(program, "check", argv, check, grid=pairs)


def _theorem(program, n, paths) -> Step:
    pairs = ref.zmod_theorem_pairs(n)
    expected = f"theorem PASS pairs={pairs} divergences=0\n"

    def check(out):
        return None if out == expected else f"theorem Z{n}: {out!r}"

    argv = ["check", paths[instance_key("zmod", n)], "--suite", "theorem"]
    return _cli(program, "check", argv, check, grid=pairs)


# -- library requests ----------------------------------------------------------

def _sample(program, rng, n, count, batch, paths) -> list[Step]:
    """Uniform random pairs of Z/n three-arrows, decided by equal_by_3x3.

    The exhaustive Z/16 theorem takes about 45 minutes, so the benchmark
    decides a seeded sample of its pairs; the test suite stays exhaustive.
    One request decides ``batch`` pairs.  A single verdict takes a few
    milliseconds, and on a shared host whose speed shifts every fraction of
    a second, the median of such short requests follows the host's speed
    from run to run.  Per-verdict times are the calculus.bridge_* layer
    metrics.
    """
    path = paths[instance_key("zmod", n)]
    texts = [(ref.zmod_arrow(rng, n), ref.zmod_arrow(rng, n)) for _ in range(count)]

    def load(ctx):
        dd = program.instances.from_instance(program.fileio.load(path))
        part = program.catfrac.fraction_equivalence(dd)
        parse = program.three_arrows.parse_three_arrow
        ctx["dd"], ctx["part"] = dd, part
        ctx["pairs"] = [(parse(dd, a), parse(dd, b)) for a, b in texts]
        return len(part)

    def check_load(classes, ctx):
        return None if classes == n else f"Z{n}: {classes} classes, expected {n}"

    steps = [Step("load", load, check_load, kind="library")]
    for lo in range(0, count, batch):
        ks = range(lo, min(lo + batch, count))
        expected = [ref.zmod_value(n, texts[k][0]) == ref.zmod_value(n, texts[k][1])
                    for k in ks]
        steps.append(Step("verdicts", _verdicts(program, ks),
                          _verdicts_check(ks, expected), len(ks), "library"))
    return steps


def _verdicts(program, ks):
    def call(ctx):
        equal = program.catfrac.equal_by_3x3
        return [equal(ctx["dd"], *ctx["pairs"][k])[0] for k in ks]

    return call


def _verdicts_check(ks, expected):
    def check(verdicts, ctx):
        for k, verdict, want in zip(ks, verdicts, expected):
            oracle = ctx["part"].same_class(*ctx["pairs"][k])
            if verdict != want or oracle != want:
                return f"pair {k}: 3x3={verdict} oracle={oracle} reference={want}"
        return None

    return check


# -- query stream --------------------------------------------------------------

def _query_stream(program, rng, p, paths) -> list[Step]:
    """``each`` equal and compose requests and ``each // 2`` normalise
    requests per instance file, shuffled.  A class id must name one
    reference class all run long.

    A normalise takes a quarter of the time of an equal or a compose.  With
    the three kinds equally frequent, the median request sat on the lower
    edge of the equal/compose latency cluster, where a shift in the host's
    speed moves it most; at half their frequency it sits inside that
    cluster.
    """
    steps = []
    n, path = p["chain"], paths[instance_key("chain", p["chain"])]
    named: tuple[dict, dict] = ({}, {})
    for k in range(p["each"]):
        x, y, z = (rng.randrange(n) for _ in range(3))
        left = ref.chain_arrow(rng, n, x, y)
        right = ref.chain_arrow(rng, n, x, y)
        steps.append(_equal(program, path, left, right, True))
        if k % 2 == 0:
            steps.append(
                _normalise(program, path, left, ref.chain_arrow_ends, (x, y))
            )
        right = ref.chain_arrow(rng, n, y, z)
        steps.append(_compose(program, path, left, right, ref.chain_arrow_ends,
                              (x, z), named))

    m, path = p["zmod"], paths[instance_key("zmod", p["zmod"])]
    named = ({}, {})

    def value(t):
        # raises ValueError unless both outer legs are units
        return ref.zmod_value(m, t)

    for k in range(p["each"]):
        left = ref.zmod_arrow(rng, m)
        v = value(left)
        # half the pairs are equal by construction, the rest are random
        right = ref.zmod_arrow(rng, m, v if k % 2 == 0 else None)
        steps.append(_equal(program, path, left, right, value(right) == v))
        if k % 2 == 0:
            steps.append(_normalise(program, path, left, value, v))
        right = ref.zmod_arrow(rng, m)
        steps.append(_compose(program, path, left, right, value,
                              v * value(right) % m, named))
    rng.shuffle(steps)
    return steps


def _equal(program, path, left, right, expected) -> Step:
    argv = ["equal", path, "--left", left, "--right", right, "--method", "both"]
    answer = "equal\n" if expected else "not equal\n"
    return _cli(program, "equal", argv,
                lambda out: None if out == answer else f"{argv}: {out!r}", grid=1)


def _normalise(program, path, arrow, classify, expected) -> Step:
    """The answer must be a well-formed three-arrow in the input's class."""
    argv = ["normalise", path, "--arrow", arrow]

    def check(out):
        try:
            got = classify(out.strip())
        except ValueError as exc:
            return f"{argv}: {out!r}: {exc}"
        return None if got == expected else f"{argv}: {out!r}, expected {expected}"

    return _cli(program, "normalise", argv, check)


def _compose(program, path, left, right, classify, expected, named) -> Step:
    """The answer's representative must lie in the reference class, and its
    class id must name that class and no other."""
    argv = ["compose", path, "--left", left, "--right", right]
    by_id, by_class = named

    def check(out):
        cid, _, rep = out.strip().partition(": ")
        try:
            got = classify(rep)
        except ValueError as exc:
            return f"{argv}: {out!r}: {exc}"
        if got != expected:
            return f"{argv}: {out!r}, expected class {expected}"
        if by_id.setdefault(cid, got) != got or by_class.setdefault(got, cid) != cid:
            return f"{argv}: {cid} and class {got} were named differently before"
        return None

    return _cli(program, "compose", argv, check)
