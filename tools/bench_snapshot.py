"""Snapshot every benchmark workload into one BENCH_*.json file.

    python3 tools/bench_snapshot.py [--checkout DIR] [--parent DIR]

Runs each workload that the checkout's BENCHMARK.json declares through
the declared command (`perfbench/run.py`), from the checkout's root, with
seed 1 and BENCHMARK.json's run_seconds, once with --trace 0 for the
end-to-end metrics and once with --trace 1 for the per-layer metrics.
Writes BENCH_<date>_<commit>.json into this repository's `bench/`,
holding every metric with its unit, each run's correctness counts and
printed lines (a traced run names any function it could not trace), the
host name, `os.cpu_count()`, the Python version and the checkout's
commit, marked dirty when the checkout has uncommitted changes.

The checkout defaults to this repository; point --checkout at a clone of
another commit to snapshot it with the same settings.  Snapshots taken
one after the other drift with the host, so to compare two commits give
--parent a clone of the other one: each workload and trace setting then
runs in both checkouts in turn, the parent first on every other run, and
one snapshot is written for each.  The two checkouts must declare the
same workloads.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def git(checkout, *args):
    """Output of one git command in the checkout, stripped."""
    return subprocess.run(
        ["git", "-C", str(checkout), *args],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def run_workload(checkout, command, workload, seconds, trace):
    """One benchmark invocation: (its output lines before the last, the
    last line parsed as JSON)."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} --trace {trace} exited with {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def snapshots(checkouts, runner=run_workload):
    """Every workload of the checkouts' BENCHMARK.json files, untraced and
    traced, one snapshot per checkout.  Each (workload, trace) runs in
    every checkout before the next starts, in the given order for the
    first, reversed for the second, and so on.  ValueError, before any
    run, when the checkouts declare different workloads or two of them
    would write one file name."""
    benches = []
    for checkout in checkouts:
        with open(Path(checkout) / "BENCHMARK.json") as fh:
            benches.append(json.load(fh))
    names = [spec["name"] for spec in benches[0]["workloads"]]
    if any([spec["name"] for spec in b["workloads"]] != names
           for b in benches):
        raise ValueError("the checkouts declare different workloads")
    snaps = [{
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain")),
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "command": bench["command"],
        "seed": SEED,
        "seconds": bench["run_seconds"],
        "workloads": {name: {} for name in names},
    } for checkout, bench in zip(checkouts, benches)]
    if len({file_name(snap) for snap in snaps}) < len(snaps):
        raise ValueError("two checkouts are at one commit")
    order = list(range(len(checkouts)))
    for i, (name, trace) in enumerate(itertools.product(names, (0, 1))):
        for k in order if i % 2 == 0 else order[::-1]:
            snap = snaps[k]
            log, out = runner(checkouts[k], snap["command"], name,
                              snap["seconds"], trace)
            snap["workloads"][name][f"trace{trace}"] = {
                "log": log,
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": out["metrics"],
            }
    return snaps


def file_name(snap):
    """BENCH_<date>_<short commit>.json, with -dirty for a dirty tree."""
    day = snap["date"][:10]
    commit = snap["commit"][:7] + ("-dirty" if snap["dirty"] else "")
    return f"BENCH_{day}_{commit}.json"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="root of the checkout to benchmark (default: this "
                         "repository)")
    ap.add_argument("--parent", type=Path,
                    help="root of a second checkout to run in turn with "
                         "the first, workload by workload")
    args = ap.parse_args(argv)

    checkouts = [args.checkout]
    if args.parent is not None:
        checkouts.insert(0, args.parent)
    for checkout in checkouts:
        if not (checkout / "BENCHMARK.json").is_file():
            print(f"no BENCHMARK.json under {checkout}", file=sys.stderr)
            return 2
    try:
        snaps = snapshots([checkout.resolve() for checkout in checkouts])
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    out_dir = ROOT / "bench"
    out_dir.mkdir(exist_ok=True)
    for snap in snaps:
        path = out_dir / file_name(snap)
        with open(path, "w") as fh:
            json.dump(snap, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)
    return 0 if all(
        run["correct"] for snap in snaps for w in snap["workloads"].values()
        for run in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
