"""Verification harness tests: verdicts on hand-checked instances,
deterministic reports, parallel/serial agreement, and engine
disagreements recorded as errors."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import edgeideals
from edgeideals import betti, graphs, verify
from edgeideals import monomials as mon
from edgeideals.betti import CapacityError, EngineDisagreement, betti_table_lcm
from edgeideals.generators import (
    FamilySpec,
    complete_graph,
    corona,
    cycle_graph,
    enumerate_all_graphs,
    path_graph,
)
from edgeideals.graphs import from_edge_list
from edgeideals.monomials import edge_ideal
from edgeideals.verify import (
    CHECK_NAMES,
    CheckResult,
    SweepParams,
    _instance_id,
    _orbit_representatives,
    _skipped,
    _unanswered,
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


def banerjee_by_every_generator(G, s):
    """The Banerjee check with one colon for every generator of I^s, the
    reference for the walk over one generator per Aut(G)-orbit.  It reads
    `verify.regularity` at call time, as the check does."""
    inst = _instance_id(G, s=s)
    if not G.edges:
        return _skipped("banerjee", inst, "no edges")
    I = edge_ideal(G)
    Is, Is1 = mon.power(I, s), mon.power(I, s + 1)
    try:
        lhs = verify.regularity(Is1)
        rhs = verify.regularity(Is)
        for m_l in Is.sorted_gens():
            colon = mon.colon_by_monomial(Is1, m_l)
            rhs = max(rhs, verify.regularity(colon) + 2 * s)
    except (CapacityError, EngineDisagreement) as exc:
        return _unanswered("banerjee", inst, exc)
    verdict = "pass" if lhs <= rhs else "fail"
    return CheckResult("banerjee", inst, verdict, {"lhs": lhs, "rhs": rhs})


class TestBanerjeeOrbits:
    def test_equals_every_generator(self):
        # Skip reasons included: edgeless graphs, and I^3 over both
        # engines' capacity on a dense graph at s = 2.
        for s, nmax in ((1, 6), (2, 5)):
            for n in range(1, nmax + 1):
                for G in enumerate_all_graphs(n, allow_isolated=True):
                    expected = banerjee_by_every_generator(G, s)
                    assert check_banerjee_recursion(G, s) == expected

    def test_first_colon_over_capacity_names_the_skip(self, monkeypatch):
        # A fake cap on the colons with a square x_u^2, by edges in a
        # triangle, naming the colon's generator count: the first orbit
        # over it must give the reason the first generator over it gave.
        regularity = verify.regularity

        def capped(I):
            degrees = {mon.degree(g) for g in I.gens}
            if degrees == {2} and not I.is_squarefree:
                raise CapacityError(f"{len(I.gens)} generators, a test cap")
            return regularity(I)

        monkeypatch.setattr(verify, "regularity", capped)
        reasons = set()
        for n in range(3, 6):
            for G in enumerate_all_graphs(n):
                res = check_banerjee_recursion(G, 1)
                assert res == banerjee_by_every_generator(G, 1)
                reasons.add(res.values.get("reason"))
        assert len(reasons - {None}) > 1

    @pytest.mark.parametrize("G", [complete_graph(4), cycle_graph(5)])
    def test_edge_transitive_graphs_take_one_colon(self, G, monkeypatch):
        colon_by_monomial = mon.colon_by_monomial
        calls = []

        def counted(I, m):
            calls.append(m)
            return colon_by_monomial(I, m)

        monkeypatch.setattr(mon, "colon_by_monomial", counted)
        assert check_banerjee_recursion(G, 1).verdict == "pass"
        assert len(calls) == 1

    def test_one_canonical_search_per_graph(self, monkeypatch):
        # The instance id, the orbit sums of I and I^2 and the orbit walk
        # of the colons read one memo entry, so the graph is searched
        # once.  The one colon of edge-transitive C5, I^2 : x3x4, is I
        # plus the chord x0x2, and its orbit sum searches that graph.
        search = graphs._canonical_search
        calls = []

        def counted(n, edges):
            calls.append(edges)
            return search(n, edges)

        monkeypatch.setattr(graphs, "_canonical_search", counted)
        graphs._canonical_memo.cache_clear()
        verify.regularity.cache_clear()
        G = cycle_graph(5)
        graph_code(G)
        assert check_banerjee_recursion(G, 1).verdict == "pass"
        assert calls == [G.edges, G.edges | {(0, 2)}]

    def test_a_permutation_off_the_ideal_raises(self):
        # Swapping the ends of P3's first edge sends x1*x2 to x0*x2.
        gens = edge_ideal(path_graph(3)).sorted_gens()
        assert _orbit_representatives(gens, [(2, 1, 0)]) == gens[:1]
        with pytest.raises(ValueError, match="outside the ideal"):
            _orbit_representatives(gens, [(1, 0, 2)])


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
        checks = ["katzman", "bht", "banerjee"]
        serial = run_sweep(spec, checks, SweepParams(s_values=(1,), jobs=1))
        parallel = run_sweep(
            spec, checks, SweepParams(s_values=(1,), jobs=2)
        )
        assert serial.to_json() == parallel.to_json()

    def test_import_loads_no_process_pool(self):
        # The pool is imported by a sweep with jobs > 1, not by every
        # interpreter that imports the package.
        src = os.path.dirname(os.path.dirname(edgeideals.__file__))
        code = (
            "import sys, edgeideals\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

    def test_graph_code_of_many_isolated_vertices(self):
        # A valid edge list a sweep may name: isolated vertices must not
        # cost the canonical search a recursion level each.
        G = from_edge_list("n 1100\n0 1\n")
        assert graph_code(G) == "1100:1098-1099"


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
