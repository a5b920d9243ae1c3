#!/usr/bin/env python3
"""mqlogic's benchmark: three seeded closed-loop workloads, one client each.

Usage (from the repository root):

    python3 perfbench/run.py --workload {repro,check,eval} --seed N \\
        --seconds S --trace {0,1}

It imports ``mqlogic`` from ``src/`` next to this directory, in this
process and on this thread.  Each workload (see ``workloads.py`` and
``spec.json``) is run in rounds of ops; each op's answer is checked against
a known answer after the op's timer stops.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh imports plus builds), then whole rounds until the ops have
been busy for ``--seconds`` and at least ``min_rounds`` rounds have run.

``--trace 1`` runs ``trace_rounds`` rounds once untraced and twice with
spans wrapped around mqlogic's public functions (``spans.py``), reports the
per-layer metrics of the first traced pass, the tracing overhead, and
fails if the two traced passes disagree on the exact counts in
``spans.DETERMINISTIC``.  Spans and a per-op-kind summary are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds diagnostics.  The exit code is 0 when every answer was right, 1 when
one was wrong or the determinism check failed, and 2 when ``src/mqlogic``
is missing or fails to import.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("syntax", "multiset", "semantics", "piecewise", "calculus", "derivations", "fuzz", "experiments")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_tail", "ms"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


class Stopwatch:
    """Accumulates the time spent inside ``with`` blocks."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total += time.perf_counter() - self._start


def fresh_import():
    """Import mqlogic from scratch and return its modules as a namespace."""
    for name in [n for n in sys.modules if n == "mqlogic" or n.startswith("mqlogic.")]:
        del sys.modules[name]
    package = importlib.import_module("mqlogic")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mqlogic imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"mqlogic.{m}") for m in MODULES})


def _reference_loop(iterations: int) -> float:
    """Milliseconds taken by a fixed pure-Python loop that uses nothing
    from mqlogic."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return (time.perf_counter() - start) * 1000.0


def machine_reference_ms() -> float:
    """Best of three runs of the reference loop; timed before and after a
    workload, it tells machine drift apart from code changes."""
    return min(_reference_loop(200_000) for _ in range(3))


class Probes:
    """Short runs of the reference loop, one before every op, that track
    the machine's speed while the workload runs.  On a shared machine the
    speed moves by more than a third within seconds; dividing each op's
    latency by the probes next to it removes most of that drift."""

    ITERATIONS = 2000
    WINDOW_S = 0.15

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ms: list[float] = []

    def probe(self) -> None:
        self.times.append(time.perf_counter())
        self.ms.append(_reference_loop(self.ITERATIONS))

    def speed(self, start: float, end: float) -> float:
        """Mean probe time, without the highest and lowest tenth, within
        max(WINDOW_S, end - start) of [start, end], always including the
        nearest probe on each side.  A long op gets a window as long as
        itself, so that its estimate covers as much machine time as the op
        did; an op's time adds up machine speed over its length, so the
        estimate is a mean, trimmed against probes that were interrupted."""
        window = max(self.WINDOW_S, end - start)
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, end + window)
        before = bisect.bisect_left(self.times, start)
        lo = max(0, min(lo, before - 1))
        hi = max(hi, min(before + 1, len(self.times)))
        ms = sorted(self.ms[lo:hi])
        trim = len(ms) // 10
        return statistics.fmean(ms[trim:len(ms) - trim])

    def scale(self, start: float, seconds: float, nominal_ms: float) -> float:
        """``seconds`` as it would read on a machine where the probe takes
        ``nominal_ms``."""
        return seconds * nominal_ms / self.speed(start, start + seconds)


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int, ladder, min_beyond: int) -> float:
    """The highest ladder percentile with at least ``min_beyond`` ops above
    it.  A fixed ladder keeps the percentile the same across runs whose op
    counts differ by a round or two."""
    return max((p for p in ladder if n * (100.0 - p) / 100.0 >= min_beyond), default=ladder[0])


def run_ops(ops, tracer=None, probes=None):
    """Run ops one after another; return (timings, failure messages), with
    one (start, latency) pair per op.

    An op that raises is a failed op and the run goes on.  Answers are
    checked after the op's timer stops and while the tracer is off.
    """
    timings = []
    failures = []
    for op_id, op in enumerate(ops):
        if probes is not None:
            probes.probe()
        if tracer is not None:
            tracer.begin_op(op, op_id)
        start = time.perf_counter()
        try:
            answer = op.run(op)
            error = None
        except Exception as exc:  # an op's failure is a result, not a crash
            error = f"{op.kind}: raised {type(exc).__name__}: {exc}"
        timings.append((start, time.perf_counter() - start))
        if tracer is not None:
            tracer.end_op(op)
        if error is None:
            try:
                error = op.check(answer)
            except Exception as exc:
                error = f"{op.kind}: answer check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    return timings, failures


def measure(args, spec, wspec, build):
    """--trace 0: the end-to-end metrics."""
    probes = Probes()
    setups = []
    for _ in range(spec["setup_repeats"]):
        for _ in range(3):
            probes.probe()
        start = time.perf_counter()
        api = fresh_import()
        imported = time.perf_counter() - start
        clock = Stopwatch()
        ops = build(api, wspec, args.seed, 0, clock)
        setups.append((start, imported + clock.total))
        gc.collect()  # free the previous import's modules before the next
        for _ in range(3):
            probes.probe()
    ref_before = machine_reference_ms()
    timings, failures = [], []
    busy = 0.0
    rounds = 0
    wall_start = time.perf_counter()
    while True:
        timed, failed = run_ops(ops, probes=probes)
        timings += timed
        failures += failed
        busy += sum(lat for _, lat in timed)
        rounds += 1
        if rounds >= wspec["min_rounds"] and busy >= args.seconds:
            break
        if time.perf_counter() - wall_start > spec["wall_cap_s"]:
            break
        ops = build(api, wspec, args.seed, rounds, Stopwatch())
    probes.probe()
    ref_after = machine_reference_ms()

    nominal = spec["probe_nominal_ms"]

    def scaled(pairs):
        return [probes.scale(t, lat, nominal) for t, lat in pairs]

    n = len(timings)
    tail_p = tail_percentile(n, spec["tail_percentile_ladder"], spec["tail_min_ops_beyond"])

    def summary(lats, setup):
        ordered = sorted(lats)
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": n / sum(lats),
            "verdict_ms_p50": percentile(ordered, 50) * 1000.0,
            "verdict_ms_tail": percentile(ordered, tail_p) * 1000.0,
            "ok_rate": (n - len(failures)) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    values = summary(scaled(timings), scaled(setups))
    raw = summary([lat for _, lat in timings], [s for _, s in setups])
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops": n,
        "busy_s": busy,
        "tail_percentile": tail_p,
        "error_rate": {"value": len(failures) / n, "unit": "ratio"},
        "raw": raw,
        "probes": len(probes.ms),
        "probe_ms_median": statistics.median(probes.ms),
        "machine_ref_ms_before": ref_before,
        "machine_ref_ms_after": ref_after,
        "failures": failures[:5],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return n, failures, metrics, diagnostics, True


def src_lines() -> dict[str, float]:
    package = SRC / "mqlogic"
    out = {}
    for module in spans.SRC_MODULES:
        path = package / f"{module}.py"
        out[f"src.lines.{module}"] = len(path.read_text().splitlines()) if path.is_file() else 0
    out["src.lines.total"] = sum(len(p.read_text().splitlines()) for p in package.rglob("*.py"))
    return out


def traced(args, spec, wspec, build):
    """--trace 1: the per-layer metrics, the tracing overhead and the
    determinism self-check."""
    api = fresh_import()
    ref_before = machine_reference_ms()
    rounds = range(wspec["trace_rounds"])

    def build_all():
        ops = []
        for r in rounds:
            ops += build(api, wspec, args.seed, r, Stopwatch())
        return ops

    probes = Probes()
    nominal = spec["probe_nominal_ms"]
    ops = build_all()
    untraced, failures = run_ops(ops, probes=probes)
    attempted = len(ops)

    tracer = spans.Tracer(api)
    tracer.install()
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            tracer.begin_op(None, -1)  # set-up is traced as op -1
            ops = build_all()
            tracer.end_op(None)
            timed, failed = run_ops(ops, tracer, probes=probes)
            attempted += len(ops)
            failures += failed
            passes.append((tracer.layer_metrics(), timed, [op.kind for op in ops]))
            if len(passes) == 1:
                first_spans = list(tracer.spans)
                first_by_op = tracer.self_by_op()
    finally:
        tracer.uninstall()
    probes.probe()
    ref_after = machine_reference_ms()

    def busy(timings):
        return sum(probes.scale(t, lat, nominal) for t, lat in timings)

    first, second = passes[0][0], passes[1][0]
    mismatched = [k for k in spans.DETERMINISTIC if first.get(k, 0) != second.get(k, 0)]
    untraced_s = busy(untraced)
    traced_s = (busy(passes[0][1]) + busy(passes[1][1])) / 2
    values = dict(first)
    values.update(src_lines())
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["machine.ref_ms_before"] = ref_before
    values["machine.ref_ms_after"] = ref_after
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in spans.METRICS
    }

    # where each kind of op spends its time, by layer (first traced pass)
    _, timed, kinds = passes[0]
    by_kind: dict[str, dict] = {}
    for op_id, kind in enumerate(kinds):
        entry = by_kind.setdefault(kind, {"ops": 0, "op_s": 0.0, "self_s": {}})
        entry["ops"] += 1
        entry["op_s"] += timed[op_id][1]
        for layer, seconds in first_by_op.get(op_id, {}).items():
            entry["self_s"][layer] = entry["self_s"].get(layer, 0.0) + seconds
    for entry in by_kind.values():
        entry["self_s"] = dict(sorted(entry["self_s"].items(), key=lambda kv: -kv[1]))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        for span in first_spans:
            fh.write(json.dumps(span) + "\n")
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace_rounds": wspec["trace_rounds"],
        "spans": len(first_spans),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "determinism_mismatch": {k: [first.get(k), second.get(k)] for k in mismatched},
        "missing_targets": tracer.missing,
        "failures": failures[:5],
        "by_kind": by_kind,
    }
    with open(OUT / f"summary-{stem}.json", "w") as fh:
        json.dump(diagnostics, fh, indent=1)
    return attempted, failures, metrics, diagnostics, not mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "mqlogic" / "__init__.py").is_file():
        print(f"perfbench: no mqlogic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        fresh_import()
    except ImportError as exc:
        print(f"perfbench: cannot import mqlogic: {exc}", file=sys.stderr)
        return 2

    spec = json.loads((HERE / "spec.json").read_text())
    wspec = spec["workloads"][args.workload]
    build = workloads.BUILDERS[args.workload]
    run = traced if args.trace else measure
    attempted, failures, metrics, diagnostics, deterministic = run(args, spec, wspec, build)
    correct = not failures and deterministic
    for message in failures[:5]:
        print(f"perfbench: wrong answer: {message}", file=sys.stderr)
    if not deterministic:
        print("perfbench: traced passes disagree on exact counts", file=sys.stderr)
    print(json.dumps(diagnostics))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
