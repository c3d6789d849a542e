"""wheelerkit benchmark: time to verdict, throughput, memory and decided share.

Run from the repository root:

    python3 perfbench/run.py --workload universality-gadgets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload nfa-order --seed 1 --trace 1
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run selects the workload's inputs from the seed (untimed, see
workloads.py), then times set-up nine times (a fresh import of wheelerkit,
parsing the inputs, building the reduction gadgets) and reports the median.
One client then drives the public API in a closed loop: one process, one
thread, each operation starting when the previous one has returned.  Whole
passes over the operations run while another pass still fits in `--seconds`
(at least one).  After each pass, untimed, every verdict is checked against
an answer key the program did not compute; a wrong verdict is printed to
standard error and makes the run fail (`correct: false`, exit status 1).
An operation that raises anything but the errors the CLI maps to exit 2
counts as failed; the run goes on.

End-to-end metrics (`--trace 0`): setup_s; verdicts_per_s, operations per
second of wall time over a pass, median over passes; latency_p50_ms and
latency_p90_ms, Harrell-Davis percentile estimates over all operations;
decided_share, operations ending in a verdict; failure_share, operations
that failed, and crash_free_share = 1 - failure_share; peak_rss_mb.  The JSON
line carries the metrics BENCHMARK.json gates (END_TO_END below); the report
before it prints them all, with the sample count behind the percentiles,
seconds per input kind, and the environment (Python, CPU count, commit, seed,
passes, operations per pass, digest of the inputs).

With `--trace 1` the run makes a traced pass between two untraced passes
over the same operations, each after a fresh import: the traced public
functions are wrapped from outside the program (see tracing.py).  It reports
per-layer self time and work counts of the traced pass, writes its spans to
`.perfbench_out/spans-<workload>-<seed>.csv`, and states the tracing
overhead, measured against the untraced passes.  The last line of standard
output is always one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  `--out FILE` also
appends the full record to FILE; `--compare BASE CHANGE` reads two such files
and gives, per workload and end-to-end metric, medians, quartiles and a
verdict.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)
DEFAULT_SEED = 1
SETUP_REPEATS = 9


# The end-to-end metrics BENCHMARK.json gates.  latency_p50_ms and
# failure_share are printed too but not gated: on universality-gadgets and
# gw-betweenness the median falls between clusters of operation costs, and
# its spread across ten seeds reached 0.27 to 0.33; failure_share is 0 on two
# workloads, and a gated metric may not be 0 (crash_free_share is its
# complement).
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p90_ms": "ms",
    "decided_share": "ratio",
    "crash_free_share": "ratio",
    "peak_rss_mb": "MB",
}


def run_op(workload, op):
    """Run one operation; returns (latency s, result, outcome, error)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except workload.undecided_errors:
        return time.perf_counter() - start, None, "undecided", None
    except Exception as exc:  # any other exception is a failed operation
        return (time.perf_counter() - start, None, "failed",
                f"{type(exc).__name__}: {exc}"[:200])
    return time.perf_counter() - start, result, "returned", None


def run_pass(workload, tracer=None):
    """One closed-loop pass, then the judging of its results.  Returns (wall
    seconds of the pass, [(kind, latency s, outcome, verdict_ok)])."""
    done = []
    start = time.perf_counter()
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.operation = index
        done.append(run_op(workload, op))
    wall = time.perf_counter() - start
    records = []
    for index, (op, (latency, result, outcome, error)) in enumerate(zip(workload.ops, done)):
        verdict_ok = None
        if outcome == "returned":
            decided, verdict_ok = op.judge(result)
            outcome = "decided" if decided else "undecided"
        records.append((op.kind, latency, outcome, verdict_ok))
        if verdict_ok is False:
            print(f"WRONG VERDICT on {op.kind} input #{index}:\n{op.label}", file=sys.stderr)
        if error is not None:
            print(f"failed operation on {op.kind} input #{index}: {error}", file=sys.stderr)
    return wall, records


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  Op latencies are a mixture of
    kinds with gaps between them; the plain sample quantile jumps across a
    gap when one operation's time moves, this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule per order statistic

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def environment(args, inputs, ops, passes):
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(ops),
        "kinds_per_pass": {k: sum(op.kind == k for op in ops) for k in sorted({op.kind for op in ops})},
        "input_digest": workloads.digest(inputs),
    }


def timed_run(args, inputs, workdir):
    # Selection leaves a heap that differs by workload and seed; frozen and
    # collected, it does not weigh on the collections set-up triggers.
    gc.freeze()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload = workloads.setup(args.workload, inputs, workdir)
        setups.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()
    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(workload))
        now = time.perf_counter()
        if now - started + (now - pass_start) > args.seconds:
            break
    records = [r for _, p in passes for r in p]
    latencies = [r[1] for r in records]
    attempted = len(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": statistics.median(len(p) / wall for wall, p in passes),
        "latency_p90_ms": 1e3 * quantile(latencies, 0.9),
        "decided_share": sum(r[2] == "decided" for r in records) / attempted,
        "crash_free_share": sum(r[2] != "failed" for r in records) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "latency_p50_ms": 1e3 * quantile(latencies, 0.5),
        "failure_share": 1 - metrics["crash_free_share"],
        "latency_samples": attempted,
        "samples_beyond_p90": sum(x * 1e3 > metrics["latency_p90_ms"] for x in latencies),
        "setup_runs_s": setups,
        "seconds_by_kind": seconds_by_kind(records),
        "latencies_s": latencies,
    }
    return workload, records, len(passes), metrics, extra


def seconds_by_kind(records):
    """kind -> [operations, seconds] over all passes."""
    totals = {}
    for kind, latency, _, _ in records:
        count, seconds = totals.get(kind, (0, 0.0))
        totals[kind] = [count + 1, seconds + latency]
    return dict(sorted(totals.items()))


def traced_run(args, inputs, workdir):
    """A traced pass between two untraced passes of the same operations, each
    after a fresh import; the overhead is the traced pass's wall time minus
    the mean of the untraced ones (bracketing cancels drift such as the first
    pass's heap growth)."""
    tracer = tracing.Tracer()
    walls = []
    for traced in (False, True, False):
        gc.unfreeze()
        gc.collect()
        start = time.perf_counter()
        workload = workloads.setup(args.workload, inputs, workdir,
                                   on_import=tracer.install if traced else None)
        setup_s = time.perf_counter() - start
        gc.collect()
        gc.freeze()
        wall, pass_records = run_pass(workload, tracer if traced else None)
        walls.append(wall)
        if traced:
            kept = workload, pass_records, setup_s
    workload, records, setup_s = kept
    untraced_wall = (walls[0] + walls[2]) / 2
    traced_wall = walls[1]
    metrics = tracer.per_layer()
    spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write_spans(spans_path)
    extra = {
        "traced_setup_s": setup_s,
        "untraced_pass_s": untraced_wall,
        "traced_pass_s": traced_wall,
        "spans": len(tracer.spans),
        "tracing_overhead_s": traced_wall - untraced_wall,
        "tracing_overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "seconds_by_kind": seconds_by_kind(records),
    }
    return workload, records, 1, metrics, extra


def print_report(env, metrics, units, extra):
    print(f"# wheelerkit benchmark: {env['workload']} (seed {env['seed']}, "
          f"trace {env['trace']})")
    for key in ("python", "nproc", "commit", "passes", "ops_per_pass", "kinds_per_pass",
                "input_digest"):
        print(f"#   {key}: {env[key]}")
    print(f"#   verdicts: {extra['wrong_verdicts']} wrong, {extra['unchecked_verdicts']} "
          f"decided without an answer key")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.6f}  {units[name]}")
    if "failure_share" in extra:
        print(f"{'latency_p50_ms':<{width}}  {extra['latency_p50_ms']:>14.6f}  ms (not gated)")
        print(f"{'failure_share':<{width}}  {extra['failure_share']:>14.6f}  ratio (not gated)")
        print(f"#   latency percentiles (Harrell-Davis) over {extra['latency_samples']} "
              f"operations, {extra['samples_beyond_p90']} beyond p90")
        print(f"#   seconds by kind: {extra['seconds_by_kind']}")
    else:
        print(f"#   tracing overhead: {extra['tracing_overhead_s']:+.3f} s "
              f"({100 * extra['tracing_overhead_share']:+.1f} %) over {extra['spans']} spans: "
              f"traced pass {extra['traced_pass_s']:.3f} s, mean of the untraced passes of the "
              f"same operations before and after it {extra['untraced_pass_s']:.3f} s; spans in "
              f"{extra['spans_file']}")


def run(args):
    if not (ROOT / "src" / "wheelerkit" / "__init__.py").is_file():
        print(f"error: no wheelerkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    inputs = workloads.select(args.workload, args.seed)
    select_s = time.perf_counter() - start
    try:
        if args.trace:
            workload, records, passes, metrics, extra = traced_run(args, inputs, workdir)
            units = tracing.PER_LAYER
        else:
            workload, records, passes, metrics, extra = timed_run(args, inputs, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args, inputs, workload.ops, passes)
    env["select_s"] = select_s
    extra["wrong_verdicts"] = sum(r[3] is False for r in records)
    extra["unchecked_verdicts"] = sum(r[2] == "decided" and r[3] is None for r in records)
    print_report(env, metrics, units, extra)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "metrics": metrics, "extra": extra}) + "\n")
    correct = extra["wrong_verdicts"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r[2] == "failed" for r in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def compare(paths):
    """Median, quartiles and verdict per workload and end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = []
    for path in paths:
        by_workload = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if not record["env"]["trace"]:
                    by_workload.setdefault(record["env"]["workload"], []).append(record)
        sides.append(by_workload)
    base, change = sides
    differ = set()
    for workload in sorted(set(base) & set(change)):
        a, b = ({r["env"]["seed"]: r["env"]["input_digest"] for r in side[workload]}
                for side in sides)
        if any(a[seed] != b[seed] for seed in a.keys() & b.keys()):
            print(f"{workload}: the two sides timed different inputs for one seed; "
                  f"its verdicts are unresolved")
            differ.add(workload)
    print(f"{'metric':<17} {'workload':<21} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'gain':>8}  verdict")
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in sorted(set(base) & set(change)):
            a = {r["env"]["seed"]: r["metrics"][name] for r in base[workload]}
            b = {r["env"]["seed"]: r["metrics"][name] for r in change[workload]}
            verdict, cells = judge(a, b, bound, lower)
            if workload in differ:
                verdict = "unresolved (inputs differ)"
            print(f"{name:<17} {workload:<21} {cells[0]:<34} {cells[1]:<34} "
                  f"{cells[2]:>8}  {verdict}")
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], statistics.median(values), values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(a, b, bound, lower_is_better):
    """Verdict on one metric from {seed: value} of both sides.

    better: the change wins nine tenths of at least ten runs paired by seed
    and moves the median by more than the base's quartile spread; worse: its
    median is worse by more than the bound; unresolved: the base spread
    exceeds the bound and not every change run reads better than every base
    run.  The gain is the relative change of the median, positive if better.
    """
    (a1, am, a3), (b1, bm, b3) = quartiles(list(a.values())), quartiles(list(b.values()))
    sign = -1 if lower_is_better else 1
    gain = sign * (bm - am) / am if am else 0.0
    spread = (a3 - a1) / am if am else 0.0
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    cells = (f"{am:.4g} [{a1:.4g}, {a3:.4g}]", f"{bm:.4g} [{b1:.4g}, {b3:.4g}]",
             f"{100 * gain:+.1f}%")
    all_better = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
    if gain < -bound:
        return "worse", cells
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > spread:
        return "better", cells
    if spread > bound and not all_better:
        return "unresolved", cells
    return "within bound", cells


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two files written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
