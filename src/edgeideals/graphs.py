"""Finite simple graphs and the graph invariants the regularity lab needs.

Vertices are the integers 0..n-1.  Edges are stored as sorted pairs and the
Graph value is immutable, so every operation here is a pure function.

Odd-girth uses the convention that a bipartite graph has odd-girth INFINITE,
which compares greater than every finite value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

INFINITE = math.inf


class GraphError(ValueError):
    """Invalid graph data: loops, duplicate edges, out-of-range vertices."""


class EdgeListParseError(GraphError):
    """Malformed edge-list document; message carries the line number."""


def _norm(u, v):
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: vertex count plus a set of sorted edge pairs."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for e in self.edges:
            u, v = e
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if u > v:
                raise GraphError(f"edge {e} is not sorted")
            if not (0 <= u < self.n and v < self.n):
                raise GraphError(f"edge {e} out of range for n={self.n}")

    @staticmethod
    def from_edges(n, edges):
        """Build a graph, rejecting loops and duplicate edges."""
        seen = set()
        for u, v in edges:
            e = _norm(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
        return Graph(n, frozenset(seen))

    @cached_property
    def adj(self):
        nbrs = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def adj_mask(self):
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def sorted_edges(self):
        return tuple(sorted(self.edges))

    def neighbors(self, v):
        return self.adj[v]

    def has_edge(self, u, v):
        return _norm(u, v) in self.edges

    def degree(self, v):
        return len(self.adj[v])

    def isolated_vertices(self):
        return tuple(v for v in range(self.n) if not self.adj[v])


def from_edge_list(text):
    """Parse an edge-list document into a Graph.

    One "u v" pair per line, '#' starts a comment, blank lines ignored.
    An optional first line "n <count>" forces the vertex count; otherwise
    n is 1 + the largest vertex index seen (0 for empty input).
    """
    n_override = None
    edges = []
    seen = set()
    saw_data = False
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "n":
            if saw_data or n_override is not None:
                raise EdgeListParseError(
                    f"line {line_no}: header 'n' must be the first data line"
                )
            if len(toks) != 2:
                raise EdgeListParseError(f"line {line_no}: expected 'n <count>'")
            try:
                n_override = int(toks[1])
            except ValueError:
                raise EdgeListParseError(
                    f"line {line_no}: bad vertex count {toks[1]!r}"
                ) from None
            if n_override < 0:
                raise EdgeListParseError(f"line {line_no}: negative vertex count")
            continue
        saw_data = True
        if len(toks) != 2:
            raise EdgeListParseError(
                f"line {line_no}: expected two vertex indices, got {len(toks)} tokens"
            )
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {line_no}: non-integer token in {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {line_no}: negative vertex index")
        if u == v:
            raise GraphError(f"line {line_no}: loop edge at vertex {u}")
        e = _norm(u, v)
        if e in seen:
            raise GraphError(f"line {line_no}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    n = 1 + max((max(e) for e in edges), default=-1)
    if n_override is not None:
        if n_override < n:
            raise GraphError(
                f"header n={n_override} smaller than largest vertex index {n - 1}"
            )
        n = n_override
    return Graph(n, frozenset(edges))


def to_edge_list(G):
    """Inverse of from_edge_list, with an explicit header."""
    lines = [f"n {G.n}"]
    lines += [f"{u} {v}" for u, v in G.sorted_edges]
    return "\n".join(lines) + "\n"


def odd_girth(G):
    """Length of the shortest odd cycle, or INFINITE for bipartite graphs.

    BFS layering from every root: an edge joining two vertices at equal
    distance d from the root witnesses a closed odd walk of length 2d+1,
    hence an odd cycle of length at most 2d+1; the global minimum over
    roots and edges is exactly the odd girth.
    """
    best = INFINITE
    edges = G.sorted_edges
    for root in range(G.n):
        dist = [-1] * G.n
        dist[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for p in queue:
                for q in G.adj[p]:
                    if dist[q] < 0:
                        dist[q] = dist[p] + 1
                        nxt.append(q)
            queue = nxt
        for u, v in edges:
            if dist[u] >= 0 and dist[u] == dist[v]:
                cand = 2 * dist[u] + 1
                if cand < best:
                    best = cand
    return best


def induced_matching_number(G):
    """Largest number of edges that form an induced matching, by exact search.

    Branch and bound over edges in sorted order; selecting {u,v} blocks
    every vertex of N[u] or N[v] from later edges, which encodes both the
    disjointness and the no-connecting-edge condition.
    """
    edges = G.sorted_edges
    m = len(edges)
    closed = [G.adj_mask[v] | (1 << v) for v in range(G.n)]
    block = [closed[u] | closed[v] for u, v in edges]
    bits = [(1 << u) | (1 << v) for u, v in edges]
    best = 0

    def rec(i, blocked, count):
        nonlocal best
        if count > best:
            best = count
        for j in range(i, m):
            if count + (m - j) <= best:
                return
            if bits[j] & blocked:
                continue
            rec(j + 1, blocked | block[j], count + 1)

    rec(0, 0, 0)
    return best


def maximal_independent_sets(G):
    """All inclusion-maximal independent sets, in lexicographic order.

    These are the maximal cliques of the complement graph; enumerated by
    Bron-Kerbosch with pivoting on bitmasks, on an explicit stack so that
    large independent sets cannot exhaust the interpreter's recursion
    limit.  Isolated vertices lie in every maximal independent set, so
    they are set aside first.
    """
    n = G.n
    if n == 0:
        return [()]
    full = (1 << n) - 1
    isolated = sum(1 << v for v in range(n) if not G.adj_mask[v])
    cadj = [full & ~(G.adj_mask[v] | (1 << v)) for v in range(n)]
    out = []
    stack = [(isolated, full ^ isolated, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            out.append(r)
            continue
        # Pivot: the vertex of p | x with the most complement-neighbours
        # in p, lowest index on ties; only the set bits of p | x are read.
        pivots = p | x
        u, best = -1, -1
        while pivots:
            low = pivots & -pivots
            w = low.bit_length() - 1
            count = (p & cadj[w]).bit_count()
            if count > best:
                u, best = w, count
            pivots ^= low
        cand = p & ~cadj[u]
        while cand:
            v = (cand & -cand).bit_length() - 1
            vbit = 1 << v
            stack.append((r | vbit, p & cadj[v], x & cadj[v]))
            p &= ~vbit
            x |= vbit
            cand &= ~vbit
    sets = [tuple(v for v in range(n) if (mask >> v) & 1) for mask in out]
    return sorted(sets)


def is_unmixed(G):
    """True iff every maximal independent set has the same size."""
    sizes = {len(s) for s in maximal_independent_sets(G)}
    return len(sizes) <= 1


def is_very_well_covered(G):
    """True iff n is even and positive, no vertex is isolated, and every
    maximal independent set has size exactly n/2."""
    if G.n == 0 or G.n % 2:
        return False
    if G.isolated_vertices():
        return False
    return all(len(s) == G.n // 2 for s in maximal_independent_sets(G))


def _perfect_matchings(G):
    """Yield perfect matchings as sorted tuples of edges, lexicographically."""
    if G.n % 2:
        return

    def rec(covered, acc):
        if covered == (1 << G.n) - 1:
            yield tuple(acc)
            return
        v = next(w for w in range(G.n) if not (covered >> w) & 1)
        for u in sorted(G.adj[v]):
            if (covered >> u) & 1:
                continue
            acc.append(_norm(v, u))
            yield from rec(covered | (1 << v) | (1 << u), acc)
            acc.pop()

    yield from rec(0, [])


def matching_certificate_ok(G, matching):
    """Check the two structural conditions on a perfect matching:
    (i) no matching edge lies in a triangle, and (ii) whenever a matching
    edge is the central edge of a length-3 path, the path's endpoints are
    adjacent."""
    covered = set()
    for x, y in matching:
        if not G.has_edge(x, y):
            return False
        if x in covered or y in covered:
            return False
        covered.update((x, y))
    if len(covered) != G.n:
        return False
    for x, y in matching:
        if G.adj_mask[x] & G.adj_mask[y]:
            return False  # common neighbor closes a triangle through (x, y)
        for z in G.adj[x]:
            if z == y:
                continue
            for w in G.adj[y]:
                if w == x or w == z:
                    continue
                if not G.has_edge(z, w):
                    return False
    return True


def find_vwc_certificate(G):
    """Search for a perfect matching certifying very-well-coveredness.

    Returns the lexicographically first perfect matching satisfying both
    conditions of matching_certificate_ok, or None.
    """
    if G.n == 0 or G.n % 2 or G.isolated_vertices():
        return None
    for M in _perfect_matchings(G):
        if matching_certificate_ok(G, M):
            return M
    return None


def relabel(G, perm):
    """Relabel vertices: perm[v] is the new label of v."""
    return Graph(G.n, frozenset(_norm(perm[u], perm[v]) for u, v in G.edges))


def disjoint_union(G, H):
    shifted = [(u + G.n, v + G.n) for u, v in H.edges]
    return Graph(G.n + H.n, frozenset(set(G.edges) | set(shifted)))


def complement(G):
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(G.n), 2)
        if not G.has_edge(u, v)
    ]
    return Graph(G.n, frozenset(edges))


@lru_cache(maxsize=262144)
def _canonical_key(n, edges):
    if n == 0:
        return (0, ())
    complete = n * (n - 1) // 2
    if len(edges) in (0, complete):
        # Vertex-transitive extremes: any labeling is canonical.
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


def canonical_key(G):
    """A canonical form: the lexicographically least edge encoding over all
    vertex orderings compatible with iterated color refinement.  Two graphs
    are isomorphic iff their canonical keys are equal."""
    return _canonical_key(G.n, G.edges)


def canonical_form(G):
    n, edges = canonical_key(G)
    return Graph(n, frozenset(edges))


def are_isomorphic(G, H):
    return canonical_key(G) == canonical_key(H)
