"""Graph core tests: invariants checked against small brute-force oracles."""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.graphs import (
    INFINITE,
    MAX_VERTICES,
    EdgeListParseError,
    Graph,
    GraphError,
    are_isomorphic,
    automorphism_generators,
    certificate_conditions_hold,
    find_vwc_certificate,
    from_edge_list,
    induced_matching_number,
    is_unmixed,
    is_very_well_covered,
    matching_certificate_ok,
    maximal_independent_sets,
    odd_girth,
    to_edge_list,
    _canonical_search,
    _norm,
    _orbits,
    canonical_key,
)
from edgeideals import graphs
from edgeideals.generators import (
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    enumerate_all_graphs,
    enumerate_vwc_graphs,
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


def oracle_certificate_conditions(G, matching):
    """Conditions (i) and (ii) on a matching, read off the edge set."""
    for x, y in matching:
        if G.adj[x] & G.adj[y]:
            return False
        for z in G.adj[x] - {y}:
            for w in G.adj[y] - {x, z}:
                if not G.has_edge(z, w):
                    return False
    return True


def oracle_perfect_matchings(G):
    """Perfect matchings as tuples of sorted edges, lexicographically."""

    def rec(free):
        if not free:
            yield ()
            return
        v = min(free)
        for u in sorted(G.adj[v] & free):
            for rest in rec(free - {v, u}):
                yield ((v, u),) + rest

    yield from rec(frozenset(range(G.n)))


def oracle_vwc_certificate(G):
    """The lexicographically first perfect matching that certifies, by
    trying every perfect matching in turn."""
    if G.n == 0 or G.n % 2 or G.isolated_vertices():
        return None
    return next(
        (M for M in oracle_perfect_matchings(G)
         if matching_certificate_ok(G, M)),
        None,
    )


def canonical_key_oracle(G):
    """The canonical key by the unpruned search: every leaf of the
    individualization-refinement tree, each refinement run until the
    colours stop changing, each individualization by explicit ranks."""
    n, edges = G.n, G.edges
    if n == 0:
        return (0, ())
    complete = n * (n - 1) // 2
    if len(edges) in (0, complete):
        return (n, tuple(sorted(edges)))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def refine(colors):
        while True:
            sig = [
                (colors[v], tuple(sorted(colors[u] for u in adj[v])))
                for v in range(n)
            ]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = tuple(rank[s] for s in sig)
            if new == colors:
                return new
            colors = new

    best = None

    def search(colors):
        nonlocal best
        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            code = tuple(
                sorted(_norm(colors[u], colors[v]) for u, v in edges)
            )
            if best is None or code < best:
                best = code
            return
        for v in cells[target]:
            sig = tuple(
                (colors[u], 0 if u == v else 1) for u in range(n)
            )
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            search(refine(tuple(rank[s] for s in sig)))

    search(refine((0,) * n))
    return (n, best)


def relabel(G, perm):
    """G with each vertex v renamed perm[v]."""
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def complement(G):
    """G's complement on the same vertices."""
    return Graph.from_edges(
        G.n, [e for e in itertools.combinations(range(G.n), 2)
              if e not in G.edges])


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


def complete_multipartite(parts):
    """The complete multipartite graph with parts of the given sizes."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return Graph.from_edges(len(part), [
        (u, v) for u, v in itertools.combinations(range(len(part)), 2)
        if part[u] != part[v]
    ])


def twin_blowup(rng):
    """A random graph on at most 4 vertices with each vertex replaced by 1
    to 3 twins, open (an independent set) or closed (a clique); at most 8
    vertices in all."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    while sum(sizes) > 8:
        sizes.pop()
    starts = list(itertools.accumulate(sizes, initial=0))
    blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = set()
    for block in blocks:
        if rng.random() < 0.5:
            edges.update(itertools.combinations(block, 2))
    for a, b in itertools.combinations(blocks, 2):
        if rng.random() < 0.5:
            edges.update((u, v) for u in a for v in b)
    return Graph.from_edges(starts[-1], edges)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**28 - 1))
    def test_parse_roundtrip_any_graph(self, n, mask):
        # Any vertex count, isolated vertices included: the header keeps n.
        pairs = itertools.combinations(range(n), 2)
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        G = Graph.from_edges(n, edges)
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

    def test_parse_rejects_too_many_vertices(self):
        # Rejected at parse time, before anything sized by n is built.
        limit = f"limit of {MAX_VERTICES} vertices"
        for doc in ("n 100000000\n0 1\n", f"n {MAX_VERTICES + 1}\n"):
            with pytest.raises(EdgeListParseError, match=limit):
                from_edge_list(doc)
        with pytest.raises(EdgeListParseError, match="^line 2: .*" + limit):
            from_edge_list(f"0 1\n0 {MAX_VERTICES}\n")
        assert from_edge_list(f"n {MAX_VERTICES}\n").n == MAX_VERTICES
        assert from_edge_list(f"0 {MAX_VERTICES - 1}\n").n == MAX_VERTICES


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

    def test_long_paths_and_many_edges(self):
        # A branch and bound over edges took 72 s on P60 and 7 s on
        # C50, and needed a frame per edge of 1500 K2.
        assert induced_matching_number(path_graph(60)) == 20
        assert induced_matching_number(cycle_graph(50)) == 16
        G = Graph.from_edges(3000, [(2 * i, 2 * i + 1) for i in range(1500)])
        assert induced_matching_number(G) == 1500

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

    def test_recognizers_against_oracle(self):
        for n in range(1, 8):
            for G in enumerate_all_graphs(n, allow_isolated=True):
                sizes = {len(s) for s in oracle_maximal_independent_sets(G)}
                assert is_unmixed(G) == (len(sizes) == 1)
                assert is_very_well_covered(G) == (
                    n % 2 == 0 and not G.isolated_vertices()
                    and sizes == {n // 2}
                )

    def test_recognizers_stop_early(self, monkeypatch):
        # P200 and C600 have too many maximal independent sets to list;
        # listing them all had not finished on P200 after two minutes.
        drawn = []
        masks = graphs._maximal_independent_masks

        def counting(G):
            for mask in masks(G):
                drawn.append(mask)
                yield mask

        monkeypatch.setattr(graphs, "_maximal_independent_masks", counting)
        for G in (path_graph(200), cycle_graph(600)):
            for recognizer in (is_very_well_covered, is_unmixed):
                drawn.clear()
                assert not recognizer(G)
                assert 0 < len(drawn) <= 4

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

    def test_conditions_against_oracle(self):
        # Every perfect matching of every small random graph.
        for G in random_graphs(303, 80):
            for M in oracle_perfect_matchings(G):
                assert certificate_conditions_hold(G.adj_mask, M) == (
                    oracle_certificate_conditions(G, M)
                )

    def test_greedy_against_the_exhaustive_search(self):
        # Every graph on at most seven vertices, relabelled very
        # well-covered graphs (several certifying matchings each) and
        # random graphs on at most eight vertices.
        import random

        rng = random.Random(31)
        cases = [
            G for n in range(1, 8)
            for G in enumerate_all_graphs(n, allow_isolated=True)
        ]
        cases += [
            relabel(G, rng.sample(range(G.n), G.n))
            for m in range(1, 5) for G in enumerate_vwc_graphs(m)
            for _ in range(3)
        ]
        cases += random_graphs(707, 300, nmax=8)
        for G in cases:
            assert find_vwc_certificate(G) == oracle_vwc_certificate(G)

    def test_long_inputs(self):
        # Trying every perfect matching in turn raised RecursionError on
        # P2000 and had not finished on corona(P1200) after 100 s.
        assert find_vwc_certificate(path_graph(2000)) is None
        pendants = tuple((v, 1200 + v) for v in range(1200))
        assert find_vwc_certificate(corona(path_graph(1200))) == pendants

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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**15 - 1), st.permutations(list(range(6))))
    def test_canonical_key_permutation_invariant(self, mask, perm):
        pairs = list(itertools.combinations(range(6), 2))
        edges = [pairs[i] for i in range(15) if mask >> i & 1]
        G = Graph.from_edges(6, edges)
        assert are_isomorphic(G, relabel(G, list(perm)))

    def test_key_against_the_unpruned_search(self):
        import random

        rng = random.Random(25)
        graphs = [
            relabel(G, rng.sample(range(G.n), G.n))
            for n in range(1, 7)
            for G in enumerate_all_graphs(n, allow_isolated=True)
            for _ in range(3)
        ]
        graphs += [G for m in range(1, 5) for G in enumerate_vwc_graphs(m)]
        graphs += [corona(cycle_graph(k)) for k in range(5, 12)]
        # Cells of twins are individualized in one step.
        graphs += [
            relabel(H, rng.sample(range(H.n), H.n))
            for H in (
                [complete_bipartite_graph(1, b) for b in range(1, 8)]
                + [complete_bipartite_graph(a, b)
                   for a in range(2, 5) for b in range(a, 9 - a)]
                + [complete_multipartite(parts) for parts in (
                    (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 1, 3),
                    (2, 3, 3), (1, 2, 2, 3))]
                + [twin_blowup(rng) for _ in range(60)]
            )
        ]
        # Two triangles and a square, and its complement: a search that
        # backs up past the node where two equal leaves part misses the
        # least code on some labellings of these.
        triangles_and_square = Graph.from_edges(10, [
            (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
            (6, 7), (7, 8), (8, 9), (6, 9),
        ])
        graphs += [
            relabel(H, rng.sample(range(10), 10))
            for H in (triangles_and_square, complement(triangles_and_square))
            for _ in range(5)
        ]
        for G in graphs:
            key, gens = _canonical_search(G.n, G.edges)
            assert key == canonical_key(G) == canonical_key_oracle(G)
            for g in gens:
                assert sorted(g) == list(range(G.n))
                assert {_norm(g[u], g[v]) for u, v in G.edges} == G.edges

    def test_automorphism_generators_are_checked(self, monkeypatch):
        G = cycle_graph(5)
        perms = automorphism_generators(G)
        assert _orbits((0,), perms) == set(range(5))
        # A transposition of two neighbours on the cycle moves its edges.
        # The memo is cleared before and after, so that the patched search
        # answers and its result is not kept.
        monkeypatch.setattr(
            graphs, "_canonical_search",
            lambda n, edges: (None, ((1, 0, 2, 3, 4),)),
        )
        graphs._canonical_memo.cache_clear()
        try:
            with pytest.raises(ValueError, match="not an automorphism"):
                automorphism_generators(G)
        finally:
            graphs._canonical_memo.cache_clear()

    def test_twin_cells_form_one_orbit(self):
        # A cell of twins is individualized in one step, so the generators
        # that permute it are added, not found by the search: isolated
        # vertices (open twins), the leaves of a star (open twins), a
        # clique hung on a path (closed twins) and all of K5.
        import random

        rng = random.Random(26)
        clique = itertools.combinations(range(4, 8), 2)
        for G, twins in (
            (Graph.from_edges(9, path_graph(4).edges), range(4, 9)),
            (complete_bipartite_graph(1, 6), range(1, 7)),
            (Graph.from_edges(8, [*path_graph(4).edges, *clique,
                                  *[(3, v) for v in range(4, 8)]]),
             range(4, 8)),
            (complete_graph(5), range(5)),
        ):
            for _ in range(5):
                perm = rng.sample(range(G.n), G.n)
                H = relabel(G, perm)
                key, gens = _canonical_search(H.n, H.edges)
                assert key == canonical_key_oracle(H)
                cell = {perm[v] for v in twins}
                assert _orbits((min(cell),), gens) == cell
                for g in gens:
                    assert {_norm(g[u], g[v]) for u, v in H.edges} == H.edges

    def test_large_automorphism_groups(self):
        # The unpruned search visits every leaf: K6,6 took about a minute
        # and K8,8 did not finish.  Pruning by the automorphisms found
        # keeps each of these well under a second.  K1,1200 needed a frame
        # per leaf, and raised RecursionError, until its cell of twins was
        # individualized in one step.
        import random

        rng = random.Random(8)
        matching = Graph.from_edges(16, [(2 * i, 2 * i + 1) for i in range(8)])
        path_and_points = Graph.from_edges(16, path_graph(8).edges)
        for G in (
            complete_bipartite_graph(6, 6),
            complete_bipartite_graph(8, 8),
            matching,
            path_and_points,
            complete_bipartite_graph(1, 1200),
        ):
            H = relabel(G, rng.sample(range(G.n), G.n))
            assert canonical_key(G) == canonical_key(H)
