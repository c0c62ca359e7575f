"""Graph core tests: invariants checked against small brute-force oracles."""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.graphs import (
    INFINITE,
    EdgeListParseError,
    Graph,
    GraphError,
    are_isomorphic,
    canonical_form,
    complement,
    disjoint_union,
    find_vwc_certificate,
    from_edge_list,
    induced_matching_number,
    is_unmixed,
    is_very_well_covered,
    matching_certificate_ok,
    maximal_independent_sets,
    odd_girth,
    relabel,
    to_edge_list,
)
from edgeideals.generators import (
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    path_graph,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the library's algorithms).
# ---------------------------------------------------------------------------


def oracle_odd_girth(G):
    best = math.inf
    for length in range(3, G.n + 1, 2):
        for cyc in itertools.permutations(range(G.n), length):
            if cyc[0] != min(cyc):
                continue
            if all(
                tuple(sorted((cyc[i], cyc[(i + 1) % length]))) in G.edges
                for i in range(length)
            ):
                best = min(best, length)
                break
        if best < math.inf:
            break
    return best if best < math.inf else INFINITE


def oracle_induced_matching(G):
    edges = sorted(G.edges)
    best = 0
    for r in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, r):
            verts = set(v for e in combo for v in e)
            if len(verts) != 2 * r:
                continue
            induced = [
                e for e in G.edges if e[0] in verts and e[1] in verts
            ]
            if len(induced) == r:
                return r
    return best


def oracle_maximal_independent_sets(G):
    out = []
    for r in range(G.n + 1):
        for combo in itertools.combinations(range(G.n), r):
            s = set(combo)
            if any(u in s and v in s for u, v in G.edges):
                continue
            # maximal iff every outside vertex has a neighbor inside
            if all(G.adj[v] & s for v in range(G.n) if v not in s):
                out.append(tuple(sorted(s)))
    return sorted(out)


def random_graphs(seed, count, nmax=6):
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, nmax)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        out.append(Graph.from_edges(n, edges))
    return out


# ---------------------------------------------------------------------------
# Construction and parsing.
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_parse_roundtrip(self):
        G = cycle_graph(5)
        assert from_edge_list(to_edge_list(G)) == G

    def test_parse_comments_and_header(self):
        G = from_edge_list("# a square\nn 4\n0 1\n1 2\n2 3\n0 3\n")
        assert G == cycle_graph(4)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(EdgeListParseError) as err:
            from_edge_list("n 3\n0 1\n0 x\n")
        assert "3" in str(err.value)

    def test_parse_empty_document_is_empty_graph(self):
        G = from_edge_list("")
        assert G.n == 0 and not G.edges

    def test_parse_misplaced_header(self):
        with pytest.raises(EdgeListParseError):
            from_edge_list("0 1\nn 4\n")


# ---------------------------------------------------------------------------
# Odd-girth.
# ---------------------------------------------------------------------------


class TestOddGirth:
    def test_named(self):
        assert odd_girth(cycle_graph(5)) == 5
        assert odd_girth(cycle_graph(7)) == 7
        assert odd_girth(cycle_graph(4)) == INFINITE
        assert odd_girth(complete_graph(4)) == 3
        assert odd_girth(path_graph(6)) == INFINITE
        assert odd_girth(complete_bipartite_graph(3, 3)) == INFINITE

    def test_petersen(self):
        assert odd_girth(petersen()) == 5

    def test_infinite_compares_greater(self):
        assert odd_girth(cycle_graph(4)) > 10**9

    def test_against_oracle(self):
        for G in random_graphs(101, 60):
            assert odd_girth(G) == oracle_odd_girth(G), G.sorted_edges


# ---------------------------------------------------------------------------
# Induced matching number.
# ---------------------------------------------------------------------------


class TestInducedMatching:
    def test_named(self):
        assert induced_matching_number(path_graph(4)) == 1
        assert induced_matching_number(cycle_graph(5)) == 1
        assert induced_matching_number(cycle_graph(7)) == 2
        assert induced_matching_number(complete_graph(6)) == 1
        assert induced_matching_number(corona(cycle_graph(7))) == 3

    def test_disjoint_edges(self):
        G = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        assert induced_matching_number(G) == 3

    def test_against_oracle(self):
        for G in random_graphs(202, 50):
            if not G.edges:
                continue
            assert induced_matching_number(G) == oracle_induced_matching(G)


# ---------------------------------------------------------------------------
# Independent sets, unmixedness, very well-covered.
# ---------------------------------------------------------------------------


class TestIndependentSets:
    def test_c6_explicit(self):
        got = maximal_independent_sets(cycle_graph(6))
        assert sorted(got) == oracle_maximal_independent_sets(cycle_graph(6))
        assert {len(s) for s in got} == {2, 3}

    def test_against_oracle(self):
        for G in random_graphs(303, 40):
            assert sorted(
                maximal_independent_sets(G)
            ) == oracle_maximal_independent_sets(G)

    def test_against_oracle_up_to_eight_vertices(self):
        for G in random_graphs(808, 150, nmax=8):
            assert maximal_independent_sets(G) == oracle_maximal_independent_sets(G)

    def test_isolated_vertices_join_every_set(self):
        G = Graph.from_edges(5, [(1, 3)])
        assert maximal_independent_sets(G) == [(0, 1, 2, 4), (0, 2, 3, 4)]
        assert maximal_independent_sets(Graph.from_edges(3, [])) == [(0, 1, 2)]
        assert len(maximal_independent_sets(Graph.from_edges(3000, []))) == 1

    def test_large_independent_set_needs_no_recursion(self):
        # The star K_{1,400} has the 400 leaves as one maximal independent
        # set; a recursive search would need one frame per leaf.
        G = Graph.from_edges(401, [(0, v) for v in range(1, 401)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            got = maximal_independent_sets(G)
        finally:
            sys.setrecursionlimit(limit)
        assert got == [(0,), tuple(range(1, 401))]

    def test_unmixed(self):
        assert is_unmixed(cycle_graph(4))
        assert not is_unmixed(cycle_graph(6))

    def test_vwc_named(self):
        assert is_very_well_covered(cycle_graph(4))
        assert is_very_well_covered(path_graph(4))
        assert is_very_well_covered(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert not is_very_well_covered(cycle_graph(6))
        assert not is_very_well_covered(cycle_graph(5))  # odd order
        assert not is_very_well_covered(complete_graph(4))
        assert is_very_well_covered(corona(cycle_graph(5)))

    def test_vwc_rejects_isolated_vertices(self):
        assert not is_very_well_covered(Graph.from_edges(4, [(0, 1)]))


class TestCertificates:
    def test_c4_certificate_valid(self):
        G = cycle_graph(4)
        cert = find_vwc_certificate(G)
        assert cert is not None
        assert matching_certificate_ok(G, cert)

    def test_no_certificate_for_non_vwc(self):
        assert find_vwc_certificate(cycle_graph(6)) is None

    def test_triangle_condition_rejects(self):
        # K3 plus a pendant: matching (0-1, 2-3) has edge 0-1 in a triangle.
        G = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert not matching_certificate_ok(G, ((0, 1), (2, 3)))

    def test_characterization_matches_recognizer(self):
        # The certificate exists exactly for very well-covered graphs.
        for G in random_graphs(404, 60):
            if G.n % 2 or G.n == 0 or not all(G.adj[v] for v in range(G.n)):
                continue
            assert (find_vwc_certificate(G) is not None) == (
                is_very_well_covered(G)
            )


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms.
# ---------------------------------------------------------------------------


class TestIsomorphism:
    def test_relabel_invariance(self):
        import random

        rng = random.Random(9)
        for G in random_graphs(505, 40):
            perm = list(range(G.n))
            rng.shuffle(perm)
            assert are_isomorphic(G, relabel(G, perm))

    def test_distinguishes(self):
        assert not are_isomorphic(path_graph(4), cycle_graph(4))
        assert not are_isomorphic(
            Graph.from_edges(4, [(0, 1), (2, 3)]), path_graph(4)
        )

    def test_canonical_form_is_fixed_point(self):
        for G in random_graphs(606, 20):
            C = canonical_form(G)
            assert canonical_form(C) == C

    def test_complement_involution(self):
        for G in random_graphs(707, 20):
            assert complement(complement(G)) == G

    def test_disjoint_union(self):
        G = disjoint_union(path_graph(2), path_graph(2))
        assert G.n == 4 and len(G.edges) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**15 - 1), st.permutations(list(range(6))))
    def test_canonical_key_permutation_invariant(self, mask, perm):
        pairs = list(itertools.combinations(range(6), 2))
        edges = [pairs[i] for i in range(15) if mask >> i & 1]
        G = Graph.from_edges(6, edges)
        assert are_isomorphic(G, relabel(G, list(perm)))
