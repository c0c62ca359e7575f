"""Acceptance gate: ten criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
Each test prints exactly one line of the form

    ACCEPTANCE <n>: PASS — <details>

(or FAIL) before asserting.  Criteria marked as sweeps tolerate capacity
skips — an instance the engines cannot finish within the configured caps
is reported as skipped, never silently dropped or counted as a pass.
"""

import json
import random

import pytest

from edgeideals.betti import (
    CapacityError,
    betti_table,
    betti_table_hochster,
    betti_table_lcm,
)
from edgeideals.evenconn import colon_graph, colon_ideal_by_algebra
from edgeideals.generators import (
    FamilySpec,
    corona,
    cycle_graph,
    enumerate_all_graphs,
    enumerate_vwc_graphs,
    path_graph,
    random_graph,
)
from edgeideals.graphs import induced_matching_number, odd_girth
from edgeideals.monomials import edge_ideal, equals, power
from edgeideals.verify import (
    SweepParams,
    check_banerjee_recursion,
    check_bht_lower_bound,
    check_colon_squarefree_and_oddgirth,
    check_katzman,
    check_lemma_colon_iteration,
    check_main_theorem,
    check_vwc_preservation,
    derive_k,
    run_sweep,
)


def report(n, ok, details):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {details}")
    assert ok, f"acceptance criterion {n}: {details}"


@pytest.fixture(scope="module")
def vwc_family():
    """Every very well-covered graph with up to 4 matched pairs, plus the
    two whiskered odd cycles used as larger odd-girth witnesses."""
    graphs = []
    for m in (1, 2, 3, 4):
        graphs.extend(enumerate_vwc_graphs(m))
    graphs.append(corona(cycle_graph(5)))
    graphs.append(corona(cycle_graph(7)))
    return graphs


@pytest.fixture(scope="module")
def small_graphs():
    """All isolated-vertex-free graphs on up to 6 vertices, up to
    isomorphism."""
    out = []
    for n in range(2, 7):
        out.extend(enumerate_all_graphs(n))
    return out


def tally(results):
    t = {"pass": 0, "fail": 0, "skipped": 0, "observation": 0}
    for r in results:
        t[r.verdict] += 1
    return t


def test_criterion_01_main_theorem_equality(vwc_family):
    """reg(I^s) = 2s + nu - 1 on every hypothesis-satisfying instance."""
    results = []
    for G in vwc_family:
        for s in (1, 2, 3):
            k = derive_k(G, s)
            if s > k - 2:
                continue
            results.append(check_main_theorem(G, k, s))
    t = tally(results)
    ok = t["fail"] == 0 and t["pass"] >= 30
    report(
        1,
        ok,
        f"main theorem equality: {t['pass']} pass, {t['fail']} fail, "
        f"{t['skipped']} capacity/hypothesis skips "
        f"over {len(results)} (graph, s) instances",
    )


def test_criterion_02_first_power_equality(vwc_family):
    """s = 1 equality reg(I) = nu + 1 on the whole family, computed by the
    polarization+Hochster engine directly."""
    checked = failures = 0
    for G in vwc_family:
        k = derive_k(G, 1)
        if k < 3 or odd_girth(G) < 2 * k + 1:
            continue
        try:
            T = betti_table_hochster(edge_ideal(G))
        except CapacityError:
            continue
        checked += 1
        if T.regularity() != induced_matching_number(G) + 1:
            failures += 1
    ok = failures == 0 and checked >= 30
    report(
        2,
        ok,
        f"reg(I) = nu + 1 via Hochster on {checked} graphs, "
        f"{failures} failures",
    )


def test_criterion_03_colon_graph_oracle():
    """Even-connection colon graphs agree with plain ideal arithmetic on
    at least 500 random (graph, edge-product) instances."""
    rng = random.Random(20260826)
    checked = failures = 0
    while checked < 500:
        n = rng.randint(2, 8)
        G = random_graph(n, rng.uniform(0.2, 0.7), seed=rng.randrange(10**9))
        edges = sorted(G.edges)
        if not edges:
            continue
        s = rng.randint(1, 3)
        product = [edges[rng.randrange(len(edges))] for _ in range(s)]
        Q = colon_graph(G, product)
        if not equals(Q.as_ideal(), colon_ideal_by_algebra(G, product)):
            failures += 1
        checked += 1
    ok = failures == 0
    report(
        3,
        ok,
        f"colon graph vs ideal arithmetic on {checked} random instances, "
        f"{failures} disagreements",
    )


def test_criterion_04_colon_squarefree_and_oddgirth(vwc_family):
    """Colon ideals stay squarefree with controlled odd-girth, and the
    odd-girth bound is tight on C5 at k=2, s=1."""
    results = []
    for G in vwc_family + [cycle_graph(7), cycle_graph(9)]:
        for s in (1, 2):
            k = derive_k(G, s + 1)
            edges = sorted(G.edges)
            sample = [
                tuple(edges[i % len(edges)] for i in range(j, j + s))
                for j in range(0, min(len(edges), 4))
            ]
            for m in sample:
                results.append(check_colon_squarefree_and_oddgirth(G, m, k))
    t = tally(results)
    tight = check_colon_squarefree_and_oddgirth(cycle_graph(5), ((1, 2),), 2)
    tight_ok = (
        tight.verdict == "pass" and tight.values["colon_odd_girth"] == 3
    )
    ok = t["fail"] == 0 and t["pass"] >= 40 and tight_ok
    report(
        4,
        ok,
        f"colon squarefree/odd-girth: {t['pass']} pass, {t['fail']} fail; "
        f"tightness on C5 (odd-girth exactly 3): {tight_ok}",
    )


def test_criterion_05_colon_iteration_lemma(vwc_family):
    """One-edge-at-a-time colon iteration identity, including repeated
    edges in the product."""
    results = []
    rng = random.Random(55)
    for G in vwc_family + [cycle_graph(7), cycle_graph(9), cycle_graph(11)]:
        edges = sorted(G.edges)
        for s in (1, 2):
            if odd_girth(G) < 2 * s + 3:
                continue
            products = [tuple(edges[0] for _ in range(s))]  # repeated edge
            for _ in range(3):
                products.append(
                    tuple(
                        sorted(
                            edges[rng.randrange(len(edges))] for _ in range(s)
                        )
                    )
                )
            for m in products:
                for i in range(len(m)):
                    results.append(check_lemma_colon_iteration(G, m, i))
    t = tally(results)
    ok = t["fail"] == 0 and t["pass"] >= 40
    report(
        5,
        ok,
        f"colon iteration lemma: {t['pass']} pass, {t['fail']} fail "
        f"(repeated-edge products included)",
    )


def test_criterion_06_vwc_preservation(vwc_family):
    """Colon graphs of hypothesis-satisfying instances stay very
    well-covered with non-increasing induced matching number."""
    results = []
    for G in vwc_family:
        edges = sorted(G.edges)
        for s in (1, 2):
            k = derive_k(G, s + 2)
            for m in [
                tuple(edges[i % len(edges)] for i in range(j, j + s))
                for j in range(0, min(len(edges), 3))
            ]:
                results.append(check_vwc_preservation(G, m, k))
    t = tally(results)
    ok = t["fail"] == 0 and t["pass"] >= 20
    report(
        6,
        ok,
        f"vwc preservation + nu monotonicity: {t['pass']} pass, "
        f"{t['fail']} fail, {t['skipped']} hypothesis skips",
    )


def test_criterion_07_lower_bounds_small_graphs(small_graphs):
    """Katzman and the 2s + nu - 1 lower bound on every graph with at most
    6 vertices (no isolated vertices), s <= 2, with zero skips."""
    results = [check_katzman(G) for G in small_graphs]
    for G in small_graphs:
        for s in (1, 2):
            results.append(check_bht_lower_bound(G, s))
    t = tally(results)
    ok = t["fail"] == 0 and t["skipped"] == 0 and t["pass"] == len(results)
    report(
        7,
        ok,
        f"lower bounds on {len(small_graphs)} graphs (n <= 6): "
        f"{t['pass']} pass, {t['fail']} fail, {t['skipped']} skipped",
    )


def test_criterion_08_banerjee_recursion(small_graphs):
    """The colon-ideal regularity recursion bound at s = 1 on every graph
    with at most 6 vertices."""
    results = [check_banerjee_recursion(G, 1) for G in small_graphs]
    t = tally(results)
    ok = t["fail"] == 0 and t["pass"] >= len(small_graphs) - t["skipped"]
    report(
        8,
        ok,
        f"recursion bound on {len(small_graphs)} graphs: {t['pass']} pass, "
        f"{t['fail']} fail, {t['skipped']} capacity skips",
    )


def test_criterion_09_engine_cross_validation():
    """The two independent Betti engines agree entrywise on a corpus of
    power ideals, and reproduce the hand-checked anchors."""
    anchors = [
        (edge_ideal(path_graph(4)), 2),
        (power(edge_ideal(path_graph(2)), 3), 6),
        (edge_ideal(cycle_graph(5)), 3),
        (power(edge_ideal(cycle_graph(5)), 2), 4),
        (power(edge_ideal(cycle_graph(4)), 2), 4),
    ]
    anchor_fail = 0
    for I, expected in anchors:
        T = betti_table(I)
        if T.engines != ("lcm", "hochster") or T.regularity() != expected:
            anchor_fail += 1
    rng = random.Random(42)
    checked = disagreements = 0
    while checked < 60:
        G = random_graph(rng.randint(2, 6), 0.5, seed=rng.randrange(10**9))
        if not G.edges:
            continue
        I = power(edge_ideal(G), rng.randint(1, 2))
        try:
            a = betti_table_lcm(I)
            b = betti_table_hochster(I)
        except CapacityError:
            continue
        if a.entries != b.entries:
            disagreements += 1
        checked += 1
    ok = anchor_fail == 0 and disagreements == 0
    report(
        9,
        ok,
        f"engines agree entrywise on {checked} random power ideals "
        f"({disagreements} disagreements); {anchor_fail} anchor failures",
    )


def test_criterion_10_deterministic_reports():
    """Repeating a sweep yields byte-identical JSON, and the JSON records
    the field, tool version, and seed."""
    spec = FamilySpec(kind="exhaustive-vwc", m=2)
    checks = ["katzman", "colon_squarefree_oddgirth", "main_theorem"]
    params = SweepParams(s_values=(1,), seed=7)
    first = run_sweep(spec, checks, params).to_json()
    second = run_sweep(spec, checks, params).to_json()
    obj = json.loads(first)
    provenance = (
        obj.get("field") == "QQ"
        and "version" in obj
        and obj.get("seed") == 7
    )
    ok = first == second and provenance
    report(
        10,
        ok,
        f"repeated sweep byte-identical: {first == second}; "
        f"provenance (field/version/seed) recorded: {provenance}",
    )
