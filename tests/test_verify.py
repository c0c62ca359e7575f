"""Verification harness tests: verdicts on hand-checked instances,
deterministic reports, parallel/serial agreement, and engine
disagreements recorded as errors."""

import hashlib
import json
import multiprocessing

import pytest

from edgeideals import betti
from edgeideals.betti import betti_table_lcm
from edgeideals.generators import FamilySpec, corona, cycle_graph, path_graph
from edgeideals.monomials import edge_ideal
from edgeideals.verify import (
    CHECK_NAMES,
    CheckResult,
    SweepParams,
    check_banerjee_recursion,
    check_bht_lower_bound,
    check_colon_squarefree_and_oddgirth,
    check_katzman,
    check_lemma_colon_iteration,
    check_main_theorem,
    check_main_theorem_hunter,
    check_vwc_preservation,
    derive_k,
    graph_code,
    run_sweep,
)


class TestCheckResult:
    def test_skip_requires_reason(self):
        with pytest.raises(ValueError):
            CheckResult("katzman", "x", "skipped", {})

    def test_bad_verdict(self):
        with pytest.raises(ValueError):
            CheckResult("katzman", "x", "maybe", {})

    def test_json_obj_sorted(self):
        r = CheckResult("katzman", "x", "pass", {"b": 1, "a": 2})
        obj = r.to_json_obj()
        assert obj["check"] == "katzman" and obj["verdict"] == "pass"
        assert "elapsed" not in obj


class TestDeriveK:
    def test_odd_girth_route(self):
        assert derive_k(cycle_graph(5), 1) == 2
        assert derive_k(cycle_graph(7), 1) == 3
        assert derive_k(corona(cycle_graph(7)), 1) == 3

    def test_bipartite_route(self):
        assert derive_k(cycle_graph(4), 1) == 3
        assert derive_k(path_graph(4), 2) == 4


class TestIndividualChecks:
    def test_katzman_passes(self):
        for G in (path_graph(4), cycle_graph(5), corona(cycle_graph(5))):
            assert check_katzman(G).verdict == "pass"

    def test_katzman_skips_edgeless(self):
        r = check_katzman(path_graph(1))
        assert r.verdict == "skipped" and "reason" in r.values

    def test_bht_passes(self):
        for s in (1, 2):
            assert check_bht_lower_bound(cycle_graph(5), s).verdict == "pass"

    def test_main_theorem_on_corona_c7(self):
        # corona(C7): odd-girth 7, so k = 3 and s = 1 is in range;
        # reg(I) = 2*1 + nu - 1 = nu + 1 = 4.
        G = corona(cycle_graph(7))
        r = check_main_theorem(G, 3, 1)
        assert r.verdict == "pass"
        assert r.values == {"reg": 4, "expected": 4}

    def test_main_theorem_skips(self):
        assert check_main_theorem(cycle_graph(6), 2, 1).verdict == "skipped"
        assert check_main_theorem(cycle_graph(6), 3, 2).verdict == "skipped"
        assert (
            check_main_theorem(cycle_graph(6), 3, 1).verdict == "skipped"
        )  # C6 is not very well-covered

    def test_hunter_is_observation(self):
        r = check_main_theorem_hunter(path_graph(4), 1)
        assert r.verdict == "observation"
        assert r.values["equal"] is True

    def test_colon_check_c5_tight(self):
        # C5, k = 2, s = 1: colon graph odd-girth is exactly 3 = 2(k-s)+1,
        # meeting the bound with no slack.
        r = check_colon_squarefree_and_oddgirth(cycle_graph(5), ((1, 2),), 2)
        assert r.verdict == "pass"
        assert r.values["colon_odd_girth"] == 3 and r.values["bound"] == 3

    def test_colon_check_skips_when_s_too_big(self):
        r = check_colon_squarefree_and_oddgirth(
            cycle_graph(5), ((1, 2), (3, 4)), 2
        )
        assert r.verdict == "skipped"

    def test_lemma_with_repeated_edge(self):
        G = cycle_graph(7)
        m = ((1, 2), (1, 2))
        r = check_lemma_colon_iteration(G, m, 0)
        assert r.verdict == "pass"

    def test_lemma_gates_on_odd_girth(self):
        r = check_lemma_colon_iteration(cycle_graph(3), ((1, 2),), 0)
        assert r.verdict == "skipped"

    def test_vwc_preservation_corona_c7(self):
        G = corona(cycle_graph(7))
        m = (tuple(sorted((0, 1))),)
        r = check_vwc_preservation(G, m, 3)
        assert r.verdict == "pass"
        assert r.values["nu_colon"] <= r.values["nu"]

    def test_banerjee(self):
        assert check_banerjee_recursion(cycle_graph(5), 1).verdict == "pass"


class TestSweepParams:
    @pytest.mark.parametrize(
        "given, message",
        [
            ({"s_values": (0,)}, "s must be positive"),
            ({"s_values": ()}, "s_values must be a nonempty list"),
            ({"s_values": (1, True)}, "s_values must be a nonempty list"),
            ({"s_values": (1, 1)}, "s_values must not repeat a power"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"multiset_sample": 0}, "multiset_sample must be"),
            ({"jobs": -3}, "jobs must be an integer of at least 0"),
            ({"timings": 1}, "timings must be true or false"),
        ],
    )
    def test_rejects_a_bad_value(self, given, message):
        with pytest.raises(ValueError, match=message):
            SweepParams(**given)

    def test_stores_s_values_as_a_tuple(self):
        assert SweepParams(s_values=[2, 1]).s_values == (2, 1)


class TestSweep:
    def test_unknown_check_rejected(self):
        spec = FamilySpec(kind="named", names=("P4",))
        with pytest.raises(ValueError):
            run_sweep(spec, ["nonsense"])

    def test_summary_tallies(self):
        spec = FamilySpec(kind="named", names=("P4", "C5", "C6"))
        report = run_sweep(
            spec, ["katzman", "main_theorem"], SweepParams(s_values=(1,))
        )
        summary = report.summary
        assert summary["katzman"]["pass"] == 3
        assert summary["katzman"]["fail"] == 0
        # P4 meets the main-theorem hypotheses (bipartite vwc, so k=3);
        # C5 skips on k<3 and C6 on not being very well-covered.
        assert summary["main_theorem"]["pass"] == 1
        assert summary["main_theorem"]["skipped"] == 2
        assert report.fail_count == 0 and report.failures() == []

    def test_report_json_deterministic(self):
        spec = FamilySpec(kind="exhaustive-vwc", m=2)
        params = SweepParams(s_values=(1,), seed=5)
        a = run_sweep(spec, ["katzman", "colon_squarefree_oddgirth"], params)
        b = run_sweep(spec, ["katzman", "colon_squarefree_oddgirth"], params)
        assert a.to_json() == b.to_json()
        obj = json.loads(a.to_json())
        assert obj["field"] == "QQ" and "version" in obj

    def test_pinned_report(self):
        """The whole report of a fixed sweep, pinned by its sha256: every
        check on four named graphs at s = 1, 2.  The hash does not depend
        on PYTHONHASHSEED.  A deliberate change of the report's content
        or a version bump updates the hash in the same change, with the
        reason in CHANGES.md; any other change of it is a regression."""
        spec = FamilySpec(
            kind="named", names=("C5", "P4", "corona(C5)", "corona(C7)")
        )
        report = run_sweep(
            spec, list(CHECK_NAMES), SweepParams(s_values=(1, 2), seed=0)
        )
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == (
            "08ef3fa9a189f4057030d8bb94f20d83cbc3df259450d4002135239d1db06d17"
        )

    def test_jobs_parallel_equals_serial(self):
        spec = FamilySpec(kind="named", names=("P4", "C5", "C4", "C7"))
        serial = run_sweep(
            spec, ["katzman", "bht"], SweepParams(s_values=(1,), jobs=1)
        )
        parallel = run_sweep(
            spec, ["katzman", "bht"], SweepParams(s_values=(1,), jobs=2)
        )
        assert serial.to_json() == parallel.to_json()

    def test_edgeless_graph_has_no_multisets(self):
        # As at s <= 2, a graph without edges gives no colon checks at
        # s >= 3 instead of sampling from an empty edge list.
        spec = FamilySpec(kind="named", names=("P1",))
        params = SweepParams(s_values=(3,))
        report = run_sweep(spec, list(CHECK_NAMES), params)
        assert "lemma_colon_iteration" not in report.summary
        assert "colon_squarefree_oddgirth" not in report.summary
        assert report.summary["bht"]["skipped"] == 1

    def test_csv_shape(self):
        spec = FamilySpec(kind="named", names=("P4",))
        report = run_sweep(spec, ["katzman"], SweepParams(s_values=(1,)))
        lines = report.to_csv().splitlines()
        assert lines[0] == "check,instance,verdict,values"
        assert len(lines) == 2

    def test_all_check_names_runnable(self):
        spec = FamilySpec(kind="named", names=("C7",))
        report = run_sweep(
            spec, list(CHECK_NAMES), SweepParams(s_values=(1,))
        )
        assert report.fail_count == 0
        assert {r.check for r in report.results} == set(CHECK_NAMES)
        # C7 has odd-girth 7 but is not very well-covered; 7 edge products
        # of size 1, each at one index.
        tally = {
            check: (counts["pass"], counts["skipped"])
            for check, counts in report.summary.items()
        }
        assert tally == {
            "banerjee": (1, 0),
            "bht": (1, 0),
            "colon_squarefree_oddgirth": (7, 0),
            "katzman": (1, 0),
            "lemma_colon_iteration": (7, 0),
            "main_theorem": (0, 1),
            "main_theorem_hunter": (0, 1),
            "vwc_preservation": (0, 7),
        }

    def test_graph_code_stable(self):
        assert graph_code(path_graph(4)) == graph_code(path_graph(4))
        assert graph_code(path_graph(4)) != graph_code(cycle_graph(4))


def make_hochster_wrong_on_c5(monkeypatch):
    """Patch the Hochster engine wrong on every ideal in 5 variables."""
    hochster = betti.betti_table_hochster

    def wrong(I):
        if I.nvars == 5:
            return betti.BettiTable({(0, 2): 9})
        return hochster(I)

    monkeypatch.setattr(betti, "betti_table_hochster", wrong)
    betti.regularity.cache_clear()


class TestEngineDisagreement:
    def test_error_verdict_keeps_the_sweep(self, monkeypatch):
        spec = FamilySpec(kind="named", names=("P4", "C5"))
        params = SweepParams(s_values=(1,))
        checks = ["katzman", "bht"]
        intact = run_sweep(spec, checks, params).results
        make_hochster_wrong_on_c5(monkeypatch)
        report = run_sweep(spec, checks, params)
        errors = report.errors()
        assert [r.check for r in errors] == ["bht", "katzman"]
        for r in errors:
            assert r.instance.startswith("g=5:")
            assert r.values["lcm"] == betti_table_lcm(
                edge_ideal(cycle_graph(5))
            ).rows()
            assert r.values["hochster"] == [(0, 2, 9)]
        kept = [r for r in report.results if r.verdict != "error"]
        p4 = [r for r in intact if not r.instance.startswith("g=5:")]
        assert [r.to_json_obj() for r in kept] == [
            r.to_json_obj() for r in p4
        ]
        assert report.summary["katzman"]["error"] == 1
        assert "error" not in run_sweep(
            FamilySpec(kind="named", names=("P4",)), checks, params
        ).summary["katzman"]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched engine reaches pool workers only by fork",
    )
    def test_pool_errors_equal_serial(self, monkeypatch):
        # Workers forked from the patched process meet the same fault.
        spec = FamilySpec(kind="named", names=("P4", "C5"))
        checks = ["katzman", "bht"]
        make_hochster_wrong_on_c5(monkeypatch)
        serial = run_sweep(spec, checks, SweepParams(s_values=(1,)))
        pooled = run_sweep(spec, checks, SweepParams(s_values=(1,), jobs=2))
        assert [r.check for r in pooled.errors()] == ["bht", "katzman"]
        assert pooled.to_json_obj() == serial.to_json_obj()

    def test_error_needs_a_reason(self):
        with pytest.raises(ValueError):
            CheckResult("katzman", "x", "error", {})
