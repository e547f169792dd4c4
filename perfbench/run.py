"""catfrac benchmark: seeded workloads through the CLI and the library.

Run from the repository root:

    python3 perfbench/run.py --workload poset-suite --seed 1 --seconds 40 --trace 0

One client sends requests in a closed loop, in-process, through
``catfrac.cli.run(argv)`` and ``catfrac.equal_by_3x3``.  Set-up writes the
instance files, imports catfrac and warms it up, several times; the run then
repeats the workload's fixed request sequence (one "pass") while the next
pass still fits in ``--seconds``.  Every answer is checked against
``reference.py``.  With ``--trace 0`` the last line of output reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from
traced passes, which alternate with untraced ones to measure the tracing
overhead.  ``--smoke`` runs every workload at a tiny size in both modes and
checks the report.  Module-level caches are never cleared within a run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SETUP_ROUNDS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Program:
    """The catfrac modules of the latest import."""

    def __init__(self):
        names = ("catfrac", "cli", "fileio", "instances", "three_arrows")
        for name in names:
            module = "catfrac" if name == "catfrac" else f"catfrac.{name}"
            setattr(self, name, importlib.import_module(module))
        if not Path(self.catfrac.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"catfrac was imported from {self.catfrac.__file__}")

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.run(argv)
        return rc, out.getvalue(), err.getvalue()


def fresh_import() -> Program:
    for name in [m for m in sys.modules if m == "catfrac" or m.startswith("catfrac.")]:
        del sys.modules[name]
    return Program()


def set_up(workload, scale, inputs) -> tuple[Program, dict, list[float]]:
    """Import, write the instance files and warm up, SETUP_ROUNDS times."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = perf_counter()
        program = fresh_import()
        paths = workloads.make_instances(
            program, workloads.instance_specs(workload, scale), inputs
        )
        for path in paths.values():
            rc, out, err = program.run_cli(["validate", path])
            if rc != 0:
                raise SystemExit(f"set-up: {path} does not validate: {out}{err}")
        times.append(perf_counter() - start)
    return program, paths, times


def run_pass(steps, tracer, samples, failures, theorem):
    """Run the steps once; returns the summed request time in seconds.

    A traced pass records in ``theorem`` the pair count of each theorem
    suite, keyed by request id.
    """
    ctx: dict = {}
    wall = 0.0
    for step in steps:
        start = perf_counter()
        try:
            if tracer is None:
                result = step.call(ctx)
            else:
                result = tracer.request(f"{step.kind}.run", step.call, ctx)
        except Exception:  # noqa: BLE001 - a crashed request is a failure
            wall += perf_counter() - start
            failures.append(f"{step.name}: {traceback.format_exc()}")
            continue
        elapsed = perf_counter() - start
        wall += elapsed
        if not step.probe:
            samples.append(elapsed)
        problem = step.check(result, ctx)
        if problem:
            failures.append(problem)
        elif tracer is not None and step.name == "check":
            theorem[tracer.request_id] = step.grid
    return wall


def measure(args) -> dict:
    workdir = ROOT / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    try:
        return _measure(args, workdir, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir, inputs) -> dict:
    program, paths, setup_times = set_up(args.workload, args.scale, inputs)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    steps = workloads.plan(
        program, args.workload, args.scale, args.seed, paths, digests, inputs
    )
    theorem: dict[int, int] = {}
    tracer = spans.Tracer() if args.trace else None
    samples: list[float] = []
    failures: list[str] = []
    walls = {False: [], True: []}
    traced_ranges = []
    grid = sum(step.grid for step in steps)
    tail_p = workloads.TAIL_PERCENTILE[args.workload]
    sampled = sum(not step.probe for step in steps)
    if args.trace:
        needed = 2  # one untraced pass and one traced pass
    else:
        needed = 1
        while spans.beyond_rank(tail_p, needed * sampled) < 10:
            needed += 1
    elapsed: list[float] = []
    rss_mb = None
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(elapsed) % 2 == 1
        began = perf_counter()
        if traced:
            lo = len(tracer.spans)
            tracer.install()
            try:
                walls[True].append(run_pass(steps, tracer, [], failures, theorem))
            finally:
                tracer.uninstall()
            traced_ranges.append((lo, len(tracer.spans)))
        else:
            walls[False].append(run_pass(steps, None, samples, failures, theorem))
        elapsed.append(perf_counter() - began)
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(elapsed) >= needed and (
            perf_counter() - start + statistics.median(elapsed) > args.seconds
        ):
            break

    attempted = len(steps) * len(elapsed)
    report = {"failures": failures, "attempted": attempted, "notes": {}}
    if args.trace:
        untraced = statistics.median(walls[False])
        overhead = statistics.median(walls[True]) / untraced - 1
        report["metrics"], report["notes"] = spans.layer_metrics(
            tracer.spans, traced_ranges, theorem, overhead
        )
        report["units"] = spans.UNITS
        tracer.write(workdir / "spans.csv.gz")
        report["notes"]["trace.spans"] = f"written to {workdir / 'spans.csv.gz'}"
    else:
        report["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls[False]),
            "req_p50_ms": 1000 * spans.percentile(samples, 50),
            "req_tail_ms": 1000 * spans.percentile(samples, tail_p),
            "pairs_per_s": grid * len(walls[False]) / sum(walls[False]),
            "peak_rss_mb": rss_mb,
        }
        report["units"] = END_TO_END
        report["notes"] = {
            "setup_s": f"median of {SETUP_ROUNDS} set-ups",
            "wall_s": f"median of {len(walls[False])} passes of {len(steps)} "
                      f"requests, {len(steps) - sampled} of them probes",
            "req_p50_ms": f"{len(samples)} samples",
            "req_tail_ms": f"p{tail_p:g} of {len(samples)} samples",
            "pairs_per_s": f"{grid} grid verdicts per pass",
            "peak_rss_mb": "after set-up and the first pass",
        }
    return report


def print_report(args, report):
    metrics, units, notes = report["metrics"], report["units"], report["notes"]
    failed = len(report["failures"])
    for problem in report["failures"][:20]:
        print(f"FAILED {problem}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"failed_share = {failed / report['attempted']:.6g} share"
          f"  ({failed} of {report['attempted']} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def record_digests():
    """Write the sha256 of every localise output the workloads check."""
    program = fresh_import()
    digests = {}
    scratch = ROOT / ".perfbench_work" / f"digests-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        for scale in workloads.SCALES.values():
            for n in scale["poset-suite"]["localise"]:
                paths = workloads.make_instances(program, [("chain", n)], scratch)
                out = scratch / "out.json"
                rc, _, err = program.run_cli(
                    ["localise", paths[f"chain{n}"], "-o", str(out)]
                )
                if rc != 0:
                    raise SystemExit(f"localise chain{n}: {err}")
                digests[f"chain{n}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def smoke() -> int:
    """Run each workload tiny, in both modes; check the reported metrics
    against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    unmapped = set(expected[1]) - set(layer_map["moves"]) - {
        "trace.spans", "trace.overhead_share"}
    problems = [f"per-layer metric {m} has no entry in layer_map.json"
                for m in sorted(unmapped)]
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--scale", "smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            where = f"{w['name']} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{where}: failed_share is not 0:\n{proc.stdout}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {got} != {expected[trace]}")
            for name, entry in result["metrics"].items():
                if not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")
            if trace == 0 and "failed_share = 0 share" not in proc.stdout:
                problems.append(f"{where}: failed_share line missing or not 0")
    for problem in problems:
        print(problem)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)})")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.SCALES["full"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=list(workloads.SCALES), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the report")
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record the localise output digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catfrac" / "__init__.py").is_file():
        print(f"error: no catfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print_report(args, measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
