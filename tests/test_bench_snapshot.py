"""The benchmark snapshot writer, with a stub in place of the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_snapshot  # noqa: E402


def git(path, *args):
    return subprocess.run(
        ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t",
         *args],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


BENCH = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 20,
    "workloads": [{"name": "a"}, {"name": "b"}],
}


def checkout(path, message="bench"):
    """A git repository at `path` whose one commit holds BENCH."""
    path.mkdir(exist_ok=True)
    (path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    git(path, "init", "-q")
    git(path, "add", "BENCHMARK.json")
    git(path, "commit", "-q", "-m", message)
    return path


def recording_runner(calls):
    def runner(checkout, command, workload, seconds, trace):
        calls.append((checkout, command, workload, seconds, trace))
        value = trace + 0.5 + (checkout.name == "change")
        out = {"correct": True, "attempted": 2, "failed": 0,
               "metrics": {"wall_s": {"value": value, "unit": "s"}}}
        return [f"{workload} summary"], out

    return runner


def test_every_workload_untraced_and_traced(tmp_path):
    checkout(tmp_path)
    calls = []
    runner = recording_runner(calls)

    [snap] = bench_snapshot.snapshots([tmp_path], runner)
    assert calls == [
        (tmp_path, BENCH["command"], name, 20, trace)
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
    [snap] = bench_snapshot.snapshots([tmp_path], runner)
    assert snap["dirty"] and (snap["seed"], snap["seconds"]) == (1, 20)
    assert bench_snapshot.file_name(snap).endswith(f"{head[:7]}-dirty.json")


def test_parent_and_change_run_in_turn(tmp_path):
    parent = checkout(tmp_path / "parent", "parent")
    change = checkout(tmp_path / "change", "change")
    calls = []
    snaps = bench_snapshot.snapshots([parent, change],
                                     recording_runner(calls))
    # Each (workload, trace) runs in both checkouts before the next
    # starts, and the parent goes first on every other one.
    assert [(c[0].name, c[2], c[4]) for c in calls] == [
        ("parent", "a", 0), ("change", "a", 0),
        ("change", "a", 1), ("parent", "a", 1),
        ("parent", "b", 0), ("change", "b", 0),
        ("change", "b", 1), ("parent", "b", 1),
    ]
    for snap, path, offset in ((snaps[0], parent, 0), (snaps[1], change, 1)):
        assert snap["commit"] == git(path, "rev-parse", "HEAD")
        assert snap["workloads"]["b"]["trace1"]["metrics"]["wall_s"] == {
            "value": 1.5 + offset, "unit": "s"}
    assert len({bench_snapshot.file_name(snap) for snap in snaps}) == 2


def test_parent_needs_other_commit_and_same_workloads(tmp_path):
    first = checkout(tmp_path / "first")
    calls = []
    with pytest.raises(ValueError, match="one commit"):
        bench_snapshot.snapshots([first, first], recording_runner(calls))
    other = checkout(tmp_path / "other", "other")
    (other / "BENCHMARK.json").write_text(
        json.dumps(dict(BENCH, workloads=[{"name": "a"}])))
    with pytest.raises(ValueError, match="different workloads"):
        bench_snapshot.snapshots([first, other], recording_runner(calls))
    assert calls == []
