"""Self-tests of the benchmark: tracer arithmetic, rebinding, grading and
a smoke run of every workload on a tiny corpus.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_a_nested_call_tree():
    tr = tracer.Tracer(rebindings=(), clock=FakeClock())
    leaf = tr.wrap(lambda: None, "leaf")
    mid = tr.wrap(lambda: (leaf(), leaf()), "mid")
    top = tr.wrap(lambda: (mid(), leaf()), "top")
    top()
    # Clock readings (start..end): top 1..10, mid 2..7 with its leaves
    # 3..4 and 5..6, then a leaf 8..9 directly under top.
    spans = tr.spans
    names = [s[tracer.NAME] for s in spans]
    assert names == ["top", "mid", "leaf", "leaf", "leaf"]
    durations = [s[tracer.END] - s[tracer.START] for s in spans]
    assert durations == [9.0, 5.0, 1.0, 1.0, 1.0]
    own = tracer.self_times(spans)
    assert own == [9.0 - 5.0 - 1.0, 5.0 - 2.0, 1.0, 1.0, 1.0]
    assert sum(own) == durations[0]
    assert tracer.has_children(spans) == [True, True, False, False, False]


def test_layer_metrics_from_span_shape():
    S = lambda name, parent, count=None, error=None: [
        name, parent, 0.0, 1.0, count, error]
    spans = [
        S("betti.regularity", -1),             # 0: miss, runs the engines
        S("betti.lcm", 0),                     # 1
        S("betti.lcm_lattice", 1, count=4),    # 2
        S("homology.reduced_homology_ranks", 1, count=3),
        S("betti.hochster", 0, error="CapacityError"),
        S("betti.component_homology_poly", 4),  # 5: miss
        S("homology.faces_from_nonfaces", 5, count=7),
        S("homology.reduced_homology_ranks", 5, count=7),
        S("betti.component_homology_poly", 4),  # 8: memo hit
        S("betti.regularity", -1),             # 9: cache hit
        S("monomials.power", -1, count=2),     # 10: miss
        S("monomials.minimalize", 10, count=12),
        S("monomials.power", -1, count=2),     # 12: cache hit
        S("monomials.power", -1, count=1),     # 13: s = 1, not a lookup
    ]
    m = tracer.layer_metrics(spans)
    assert set(m) == set(tracer.LAYER_METRICS)
    assert m["betti.regularity.calls"] == 2
    assert m["betti.regularity.cache_hit_ratio"] == 0.5
    assert m["betti.lcm.calls"] == 1
    assert m["betti.hochster.capacity_errors"] == 1
    assert m["betti.lcm_lattice.elements"] == 4
    assert m["betti.lcm.interval_hit_ratio"] == 1 - 1 / 4
    assert m["betti.component_homology_poly.memo_hit_ratio"] == 0.5
    assert m["homology.reduced_homology_ranks.faces_in"] == 10
    assert m["homology.faces_from_nonfaces.faces_out"] == 7
    assert m["monomials.power.calls"] == 3
    assert m["monomials.power.cache_hit_ratio"] == 0.5
    assert m["monomials.minimalize.gens_in"] == 12
    # Every span lasts 1.0: self time is 1.0 minus one per child.
    assert m["betti.lcm.self_s"] == 1.0 - 2.0
    assert m["betti.hochster.self_s"] == 1.0 - 2.0
    assert m["monomials.power.self_s"] == 3.0 - 1.0


def test_rebinding_covers_callers_and_restores_originals():
    import importlib

    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in tracer.REBINDINGS
    }
    from edgeideals import betti, generators, homology, verify

    with tracer.Tracer() as tr:
        assert not tr.missing
        for (mod, attr), fn in originals.items():
            wrapped = getattr(importlib.import_module(mod), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
        # Names imported into betti and verify are the ones rebound.
        assert betti.reduced_homology_ranks is not homology.reduced_homology_ranks
        assert verify.regularity is not betti.regularity
        G = generators.cycle_graph(5)
        verify.check_banerjee_recursion(G, 1)
    names = {s[tracer.NAME] for s in tr.spans}
    assert {"verify.check", "graphs", "betti.regularity", "betti.lcm",
            "betti.hochster", "monomials.power", "monomials.colon_by_monomial",
            "homology.reduced_homology_ranks"} <= names
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn


def test_rebinding_restores_after_an_exception():
    from edgeideals import monomials
    from edgeideals.generators import path_graph

    original = monomials.power
    tr = tracer.Tracer()
    with pytest.raises(monomials.IdealError):
        with tr:
            monomials.power(monomials.edge_ideal(path_graph(3)), 0)
    assert monomials.power is original
    assert tr.spans[-1][tracer.ERROR] == "IdealError"


def test_grading_compares_only_instances_answered_twice():
    ref = {
        "a": {"verdict": "pass", "answer": {"reg": 3}},
        "b": {"verdict": "skipped", "answer": {}},
    }
    rec = lambda id_, verdict, answer, kind="check": {
        "id": id_, "kind": kind, "verdict": verdict, "answer": answer}
    assert run.grade(rec("a", "pass", {"reg": 3}), ref) == "ok"
    assert run.grade(rec("a", "pass", {"reg": 4}), ref) == "failed"
    assert run.grade(rec("a", "skipped", {}), ref) == "skipped"
    assert run.grade(rec("b", "pass", {"reg": 9}), ref) == "ok"
    assert run.grade(rec("a", "fail", {"reg": 3}), ref) == "failed"
    assert run.grade(rec("a", "error", {}), ref) == "failed"
    assert run.grade(rec("zz", "pass", {}), ref) == "failed"
    assert run.grade(rec("zz", "pass", {}, kind="colon"), ref) == "ok"


def test_harrell_davis_quantile():
    assert run.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    values = list(range(1, 1002))
    assert run.quantile(values, 0.5) == pytest.approx(501, rel=1e-3)
    assert run.quantile(values, 0.9) == pytest.approx(901, rel=1e-3)
    # A gap at the median: the estimate lies between its two sides and
    # barely moves when noise swaps the samples next to it.
    gap = [1.0] * 50 + [10.0] * 51
    swapped = [1.0] * 51 + [10.0] * 50
    assert 1.0 < run.quantile(gap, 0.5) < 10.0
    assert abs(run.quantile(gap, 0.5) - run.quantile(swapped, 0.5)) < 1.5


def test_corpus_depends_only_on_the_seed():
    ref = workloads.load_reference()
    for name in workloads.WORKLOADS:
        a = [i.id for i in workloads.build_corpus(name, 3, ref)]
        b = [i.id for i in workloads.build_corpus(name, 3, ref)]
        c = [i.id for i in workloads.build_corpus(name, 4, ref)]
        assert a == b
        # Only ideal_arith draws its inputs; the others are fixed corpora.
        assert (a != c) == (name == "ideal_arith")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = list(tracer.LAYER_METRICS) + ["trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = (set(tracer.LAYER_METRICS) | {"trace.overhead_frac"}
                if trace else set(run.END_TO_END_UNITS))
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "ideal_arith", "--seed", "0", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
