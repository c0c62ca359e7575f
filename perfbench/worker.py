"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
                                [--limit K] [--spans PATH]

Imports edgeideals from the checkout's `src/`, builds the workload corpus
from the seed, runs every instance once and prints one JSON object: the
wall-clock time at which the corpus was ready (the parent subtracts its
spawn time to get the set-up time), the corpus wall time, peak resident
memory, one record per instance and, when traced, the per-layer metrics.
The memos in edgeideals are module-global, so every pass needs its own
process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_pass(workload, seed, trace, limit=None, spans_path=None):
    corpus = workloads.build_corpus(
        workload, seed, workloads.load_reference(), limit)
    ready = time.time()

    tr = tracer.Tracer() if trace else None
    if tr:
        tr.install()
    records = []
    t_start = time.perf_counter()
    try:
        for inst in corpus:
            t0 = time.perf_counter()
            try:
                verdict, answer = inst.run()
                error = None
            except Exception:
                verdict, answer = "error", {}
                error = traceback.format_exc(limit=3)
            records.append({
                "id": inst.id,
                "kind": inst.kind,
                "ms": (time.perf_counter() - t0) * 1e3,
                "verdict": verdict,
                "answer": answer,
                "error": error,
            })
    finally:
        wall = time.perf_counter() - t_start
        if tr:
            tr.uninstall()

    out = {
        "ready": ready,
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    if tr:
        out["layers"] = tracer.layer_metrics(tr.spans)
        out["spans"] = len(tr.spans)
        out["missing"] = tr.missing
        if spans_path:
            tracer.write_spans(tr.spans, spans_path)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    out = run_pass(args.workload, args.seed, args.trace, args.limit, args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
