"""The benchmark snapshot writer, with a stub in place of the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_snapshot  # noqa: E402


def git(path, *args):
    return subprocess.run(
        ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t",
         *args],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_every_workload_untraced_and_traced(tmp_path):
    bench = {
        "command": ["python3", "perfbench/run.py"],
        "run_seconds": 20,
        "workloads": [{"name": "a"}, {"name": "b"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "BENCHMARK.json")
    git(tmp_path, "commit", "-q", "-m", "bench")
    calls = []

    def runner(checkout, command, workload, seconds, trace):
        calls.append((checkout, command, workload, seconds, trace))
        out = {"correct": True, "attempted": 2, "failed": 0,
               "metrics": {"wall_s": {"value": trace + 0.5, "unit": "s"}}}
        return [f"{workload} summary"], out

    snap = bench_snapshot.snapshot(tmp_path, runner)
    assert calls == [
        (tmp_path, bench["command"], name, 20, trace)
        for name in ("a", "b") for trace in (0, 1)
    ]
    assert snap["workloads"]["b"]["trace1"] == {
        "log": ["b summary"], "correct": True, "attempted": 2, "failed": 0,
        "metrics": {"wall_s": {"value": 1.5, "unit": "s"}},
    }
    head = git(tmp_path, "rev-parse", "HEAD")
    assert (snap["commit"], snap["dirty"]) == (head, False)
    assert bench_snapshot.file_name(snap) == (
        f"BENCH_{snap['date'][:10]}_{head[:7]}.json")
    (tmp_path / "untracked").write_text("")
    snap = bench_snapshot.snapshot(tmp_path, runner)
    assert snap["dirty"] and (snap["seed"], snap["seconds"]) == (1, 20)
    assert bench_snapshot.file_name(snap).endswith(f"{head[:7]}-dirty.json")
