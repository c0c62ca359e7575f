"""The edgeideals benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the whole workload corpus
in a fresh single-threaded interpreter (`worker.py`), because the memos
in edgeideals are module-global and a second pass in one process would be
nearly all cache hits; a fresh process is also what a CLI user pays for.
Passes repeat until S seconds have elapsed (at least MIN_PASSES, or two
untraced and two traced).  Every answer is checked against
`reference.json`.

With --trace 0 the last line of output reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of `tracer.py` plus the tracing overhead.  The last
line is one JSON object with the keys correct, attempted, failed and
metrics.  Workloads: banerjee_small, vwc_main_theorem, ideal_arith.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3
# Wall-clock budget for one invocation; no pass starts that would likely
# run past it.
BUDGET_S = 170.0
SPANS_DIR = ROOT / ".perfbench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "answered_frac": "fraction",
}


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "fraction"
    return "count"


def run_worker(workload, seed, trace, limit, spans, timeout):
    """One pass in a fresh interpreter: (spawn wall time, parsed output)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def grade(record, reference):
    """'failed', 'skipped' or 'ok' for one instance record.

    A failure is an exception, a 'fail' verdict, or an answer that differs
    from the reference.  Only instances answered both here and in the
    reference are compared, so turning a capacity skip into a verdict is
    never a failure.
    """
    if record["verdict"] in ("error", "fail"):
        return "failed"
    if record["verdict"] == "skipped":
        return "skipped"
    ref = reference.get(record["id"])
    if ref is None:
        # Colon instances are self-checking (the two routes must agree);
        # every other instance must be in the reference.
        return "ok" if record["kind"] == "colon" else "failed"
    if ref["verdict"] != "skipped" and ref["answer"] != record["answer"]:
        return "failed"
    return "ok"


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the order statistics
    averaged with Beta((n+1)p, (n+1)(1-p)) weights.  A single order
    statistic jumps when noise reorders samples on either side of a gap in
    the latency distribution; this weighted average moves smoothly."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule over each interval [i/n, (i+1)/n]
    total = weighted = 0.0
    for i, v in enumerate(x):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t)
                          + (b - 1) * math.log1p(-t))
        total += w
        weighted += w * v
    return weighted / total


def end_to_end(passes, grades):
    latencies = [r["ms"] for p in passes for r in p["records"]]
    attempted = len(grades)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "checks_per_s": statistics.median(
            len(p["records"]) / p["wall_s"] for p in passes),
        "check_p50_ms": quantile(latencies, 0.5),
        "check_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
        "ok_frac": 1 - grades.count("failed") / attempted,
        "answered_frac": 1 - grades.count("skipped") / attempted,
    }


def per_layer(untraced, traced):
    """Median self times over traced passes; exact counts, which must
    repeat in every traced pass (a count that varies is reported)."""
    out = {}
    for name in tracer.LAYER_METRICS:
        values = [p["layers"][name] for p in traced]
        if name.endswith(".self_s"):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                print(f"counter {name} is not exact: {values}")
            out[name] = values[0]
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first LIMIT instances (self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "edgeideals" / "__init__.py").is_file():
        print(f"no edgeideals sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    answers = reference[args.workload]["answers"]
    spans = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"{args.workload}-seed{args.seed}.tsv"

    start = time.perf_counter()
    untraced, traced, grades = [], [], []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = len(untraced) >= 2 and len(traced) >= 2
        else:
            enough = len(untraced) >= MIN_PASSES
        if enough and (elapsed >= args.seconds
                       or elapsed + longest > BUDGET_S):
            break
        trace = args.trace and len(traced) < len(untraced)
        t0 = time.perf_counter()
        try:
            spawned, out = run_worker(
                args.workload, args.seed, int(trace), args.limit,
                spans if trace else None,
                timeout=max(1.0, BUDGET_S - elapsed))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            return 1
        longest = max(longest, time.perf_counter() - t0)
        out["setup_s"] = out["ready"] - spawned
        (traced if trace else untraced).append(out)
        grades += [grade(r, answers) for r in out["records"]]
        for r in out["records"]:
            if r["error"]:
                print(f"error in {r['id']}:\n{r['error']}")

    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: layer_unit(name) for name in metrics}
        if traced[-1]["missing"]:
            print("not traced, missing:", ", ".join(traced[-1]["missing"]))
        top = max((n for n in metrics if n.endswith(".self_s")),
                  key=metrics.get)
        print(f"largest self time: {top} {metrics[top]:.3f} s; "
              f"{traced[-1]['spans']} spans per traced pass, written to "
              f"{spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(untraced, grades)
        units = END_TO_END_UNITS
    passes = untraced + traced
    failed = grades.count("failed")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(passes[0]['records'])} instances; {len(grades)} checks, "
          f"{grades.count('skipped')} capacity skips, {failed} failures")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(grades),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
