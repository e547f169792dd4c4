"""Outside-in tracing: spans around the public calls of each catfrac layer.

The benchmark replaces each traced name where its caller looks it up (a
module attribute read at call time, or a method on its class) by a wrapper
that records a span: name, start, end, parent span and request id, plus an
optional count taken from the arguments or the result.  Spans stay in
memory and are written out when the run ends.  catfrac itself is not
edited.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _wu_pairs(args, result):
    return len(result.pushouts) + len(result.pullbacks) + len(result.failures)


def _partition_size(args, result):
    part = args[0]
    return len(part.arrows), len(part.groups)


# (module, attribute, span name, count taken from (args, result) or None).
# A span name is "<layer>.<operation>"; several sites may share one name.
SITES = (
    ("catfrac.fileio", "load", "fileio.load", None),
    ("catfrac.fileio", "dump", "fileio.dump", lambda a, r: os.path.getsize(a[1])),
    ("catfrac.core", "validate_category", "core.validate", lambda a, r: len(a[0].icomp)),
    ("catfrac.denominators", "check_uni_fractionable", "denominators.certificate", None),
    ("catfrac.denominators", "check_WU", "denominators.wu", _wu_pairs),
    ("catfrac.denominators", "check_Fac", "denominators.fac", None),
    ("catfrac.denominators", "is_multiplicative", "denominators.ladder", None),
    ("catfrac.denominators", "is_two_of_three", "denominators.ladder", None),
    ("catfrac.three_arrows", "enumerate_three_arrows", "three_arrows.enumerate", None),
    ("catfrac.three_arrows", "fraction_generators", "three_arrows.generators",
     lambda a, r: len(r)),
    ("catfrac.three_arrows", "FractionPartition.__init__", "three_arrows.partition",
     _partition_size),
    ("catfrac.cli", "normalise", "three_arrows.normalise", None),
    ("catfrac.cli", "build_fraction_category", "fraction.build",
     lambda a, r: len(r.as_category.icomp)),
    ("catfrac.fraction", "compose_fractions", "fraction.compose", None),
    ("catfrac.cli", "compose_fractions", "fraction.compose", None),
    ("catfrac.cli", "fraction_instance", "fraction.serialise", None),
    ("catfrac", "equal_by_3x3", "calculus.equal_by_3x3", lambda a, r: r[0]),
    ("catfrac.cli", "equal_by_3x3", "calculus.equal_by_3x3", lambda a, r: r[0]),
    ("catfrac.transport", "validate_coproducts", "transport.validate", None),
    ("catfrac.transport", "validate_products", "transport.validate", None),
    ("catfrac.transport", "check_localisation_preserves_coproducts",
     "transport.preserve", None),
    ("catfrac.transport", "check_localisation_preserves_products",
     "transport.preserve", None),
    ("catfrac.transport", "sum_formula_check", "transport.preserve", None),
)

NAME, START, END, PARENT, REQUEST, COUNT = range(6)


class Tracer:
    """Spans as lists [name, start, end, parent index, request id, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = _safe_count(name, count, args, result)
            return result

        return traced

    def request(self, name, fn, *args):
        """Run one request as a root span with a fresh request id."""
        self._request += 1
        return self.wrap(name, fn)(*args)

    @property
    def request_id(self) -> int:
        """Id of the latest request."""
        return self._request

    def install(self):
        """Wrap every site; a site the program no longer has is skipped."""
        for module, attr, name, count in SITES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                print(f"trace: {module}.{attr} not found, not traced", file=sys.stderr)
                continue
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, count))

    def uninstall(self):
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def write(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id,parent,request,name,start_s,end_s,count\n")
            for i, (name, start, end, parent, request, count) in enumerate(self.spans):
                if isinstance(count, tuple):
                    count = "/".join(map(str, count))
                handle.write(
                    f"{i},{parent},{request},{name},{start:.9f},{end:.9f},"
                    f"{'' if count is None else count}\n"
                )


_warned: set[str] = set()


def _safe_count(name, count, args, result):
    # a count is the benchmark's own reading of the program's objects; if
    # the program changes shape, lose the count, never the request
    try:
        return count(args, result)
    except Exception as exc:  # noqa: BLE001 - boundary around the program
        if name not in _warned:
            _warned.add(name)
            print(f"trace: no count for {name}: {exc!r}", file=sys.stderr)
        return None


def self_times(spans, lo, hi) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: self time and inclusive time over spans[lo:hi]."""
    covered: dict[int, float] = defaultdict(float)
    for rec in spans[lo:hi]:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for i in range(lo, hi):
        rec = spans[i]
        duration = rec[END] - rec[START]
        own[rec[NAME]] += duration - covered.get(i, 0.0)
        total[rec[NAME]] += duration
    return own, total


def tail(values, beyond=10):
    """(percentile, value) of the highest of p50/p90/p95/p99/p99.9 that
    leaves at least ``beyond`` samples above it (p50 when none does)."""
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if beyond_rank(p, len(values)) >= beyond:
            best = p
    return best, percentile(values, best)


def percentile(values, p):
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def beyond_rank(p, n):
    """Samples above the p-th percentile of n."""
    return n - _rank(p, n)


def _rank(p, n):
    # nearest rank: the smallest rank covering p percent of the samples
    return max(1, -(-round(p * 10) * n // 1000))


# layer metric -> (unit, how it is read from one traced pass).  "self" is
# span self time, "incl" inclusive time, "calls" the number of spans,
# "count" the sum of their counts.
PER_PASS = {
    "fileio.load_ms": ("ms", "self", ("fileio.load",)),
    "fileio.dump_ms": ("ms", "self", ("fileio.dump",)),
    "fileio.dump_bytes": ("bytes", "count", ("fileio.dump",)),
    "core.validate_ms": ("ms", "self", ("core.validate",)),
    "core.composable_pairs": ("count", "count", ("core.validate",)),
    "denominators.certificate_ms": ("ms", "incl", ("denominators.certificate",)),
    "denominators.wu_ms": ("ms", "self", ("denominators.wu",)),
    "denominators.wu_pairs": ("count", "count", ("denominators.wu",)),
    "denominators.fac_ms": ("ms", "self", ("denominators.fac",)),
    "denominators.ladder_ms": ("ms", "self", ("denominators.ladder",)),
    "denominators.certificates_built": ("count", "calls", ("denominators.certificate",)),
    "three_arrows.enumerate_ms": ("ms", "self", ("three_arrows.enumerate",)),
    "three_arrows.enumerate_calls": ("count", "calls", ("three_arrows.enumerate",)),
    "three_arrows.generators_ms": ("ms", "self", ("three_arrows.generators",)),
    "three_arrows.generator_pairs": ("count", "count", ("three_arrows.generators",)),
    "three_arrows.partition_ms": ("ms", "self", ("three_arrows.partition",)),
    "three_arrows.partitions_built": ("count", "calls", ("three_arrows.partition",)),
    "three_arrows.normalise_ms": ("ms", "self", ("three_arrows.normalise",)),
    "fraction.build_ms": ("ms", "self", ("fraction.build",)),
    "fraction.table_entries": ("count", "count", ("fraction.build",)),
    "fraction.compose_calls": ("count", "calls", ("fraction.compose",)),
    "fraction.compose_ms": ("ms", "self", ("fraction.compose",)),
    "fraction.serialise_ms": ("ms", "self", ("fraction.serialise",)),
    "calculus.bridge_calls": ("count", "calls", ("calculus.equal_by_3x3",)),
    "transport.validate_ms": ("ms", "self", ("transport.validate",)),
    "transport.preserve_ms": ("ms", "self", ("transport.preserve",)),
    "cli.self_ms": ("ms", "self", ("cli.run",)),
}
LAYERS = ("fileio", "core", "denominators", "three_arrows", "fraction",
          "calculus", "transport")
UNITS = {
    **{name: unit for name, (unit, _, _) in PER_PASS.items()},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "three_arrows.arrows": "count",
    "three_arrows.classes": "count",
    "unionfind.merges": "count",
    "unionfind.merge_ratio": "ratio",
    "calculus.bridge_neg_p50_ms": "ms",
    "calculus.bridge_neg_tail_ms": "ms",
    "calculus.bridge_pos_p50_ms": "ms",
    "calculus.bridge_pos_share": "ratio",
    "cli.theorem_pair_yield": "ratio",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
}


def layer_metrics(spans, passes, theorem_pairs, overhead):
    """Per-layer metrics from the traced passes.

    ``passes`` holds the (lo, hi) span range of each traced pass; times are
    medians over passes and counts are means per pass.  ``theorem_pairs``
    maps a request id to the pair count its theorem suite reported.
    """
    per_pass = defaultdict(list)
    notes: dict[str, str] = {}
    for lo, hi in passes:
        own, total = self_times(spans, lo, hi)
        calls = Counter(rec[NAME] for rec in spans[lo:hi])
        counts: dict[str, float] = defaultdict(float)
        arrows = classes = 0
        for rec in spans[lo:hi]:
            if rec[NAME] == "three_arrows.partition" and rec[COUNT]:
                arrows += rec[COUNT][0]
                classes += rec[COUNT][1]
            elif isinstance(rec[COUNT], int) and not isinstance(rec[COUNT], bool):
                counts[rec[NAME]] += rec[COUNT]
        for metric, (unit, kind, names) in PER_PASS.items():
            if kind == "self":
                per_pass[metric].append(1000 * sum(own[n] for n in names))
            elif kind == "incl":
                per_pass[metric].append(1000 * sum(total[n] for n in names))
            elif kind == "calls":
                per_pass[metric].append(sum(calls[n] for n in names))
            else:
                per_pass[metric].append(sum(counts[n] for n in names))
        for layer in LAYERS:
            per_pass[f"{layer}.self_ms"].append(1000 * sum(
                t for n, t in own.items() if n.split(".")[0] == layer))
        per_pass["three_arrows.arrows"].append(arrows)
        per_pass["three_arrows.classes"].append(classes)
        per_pass["unionfind.merges"].append(arrows - classes)
        per_pass["trace.spans"].append(hi - lo)

    out = {}
    for metric, values in per_pass.items():
        if UNITS[metric] == "ms":
            out[metric] = statistics.median(values)
        else:
            out[metric] = sum(values) / len(values)
    pairs = out["three_arrows.generator_pairs"]
    out["unionfind.merge_ratio"] = out["unionfind.merges"] / pairs if pairs else 0.0

    verdicts = {True: [], False: []}
    partitions: dict[int, int] = {}
    for lo, hi in passes:
        for rec in spans[lo:hi]:
            if rec[NAME] == "calculus.equal_by_3x3" and rec[COUNT] is not None:
                verdicts[rec[COUNT]].append(1000 * (rec[END] - rec[START]))
            elif rec[NAME] == "three_arrows.partition" and rec[COUNT]:
                partitions[rec[REQUEST]] = rec[COUNT][0]
    neg, pos = verdicts[False], verdicts[True]
    out["calculus.bridge_neg_p50_ms"] = percentile(neg, 50) if neg else 0.0
    if neg:
        p, out["calculus.bridge_neg_tail_ms"] = tail(neg)
        notes["calculus.bridge_neg_tail_ms"] = f"p{p:g} of {len(neg)} negative verdicts"
    else:
        out["calculus.bridge_neg_tail_ms"] = 0.0
        notes["calculus.bridge_neg_tail_ms"] = "no negative verdicts"
    out["calculus.bridge_pos_p50_ms"] = percentile(pos, 50) if pos else 0.0
    out["calculus.bridge_pos_share"] = len(pos) / (len(pos) + len(neg)) if pos or neg else 0.0

    # useful share of the theorem suite's quadratic scan: pairs / arrows^2
    scanned = sum(partitions.get(r, 0) ** 2 for r in theorem_pairs)
    out["cli.theorem_pair_yield"] = (
        sum(theorem_pairs.values()) / scanned if scanned else 0.0
    )
    out["trace.overhead_share"] = overhead
    return {m: out[m] for m in UNITS}, notes
