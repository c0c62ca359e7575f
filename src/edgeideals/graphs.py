"""Finite simple graphs and the graph invariants the regularity lab needs.

Vertices are the integers 0..n-1.  Edges are stored as sorted pairs and the
Graph value is immutable, so every operation here is a pure function.

Odd-girth uses the convention that a bipartite graph has odd-girth INFINITE,
which compares greater than every finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

INFINITE = math.inf

# The most vertices an edge-list document may name, by its header or by a
# vertex index.  Every family the lab builds is far smaller (corona(C15)
# has 30), and `edge_ideal` stores a dense exponent tuple of length n per
# generator, so an unchecked header such as "n 100000000" would allocate
# gigabytes before any check ran.
MAX_VERTICES = 4096


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

    def has_edge(self, u, v):
        return _norm(u, v) in self.edges

    def isolated_vertices(self):
        return tuple(v for v in range(self.n) if not self.adj[v])


def from_edge_list(text):
    """Parse an edge-list document into a Graph.

    One "u v" pair per line, '#' starts a comment, blank lines ignored.
    An optional first line "n <count>" forces the vertex count; otherwise
    n is 1 + the largest vertex index seen (0 for empty input).  Either
    way n may not exceed MAX_VERTICES.  Every refusal names its line: a
    header below the largest index names the header's.
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
            if n_override > MAX_VERTICES:
                raise EdgeListParseError(
                    f"line {line_no}: vertex count {n_override} exceeds the "
                    f"limit of {MAX_VERTICES} vertices"
                )
            header_line = line_no
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
        if max(u, v) >= MAX_VERTICES:
            raise EdgeListParseError(
                f"line {line_no}: vertex index {max(u, v)} exceeds the limit "
                f"of {MAX_VERTICES} vertices (indices 0..{MAX_VERTICES - 1})"
            )
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
                f"line {header_line}: header n={n_override} smaller than "
                f"largest vertex index {n - 1}"
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

    nu(S), the number for the subgraph induced on S, is memoized on S,
    from which the vertices with no neighbour in S are dropped.  The
    lowest vertex v of S is either unmatched, leaving nu(S - v), or
    matched to a neighbour u, which blocks N[v] and N[u]: 1 + nu(S - N[v]
    - N[u]).  The search runs on an explicit stack, so that long paths
    cannot exhaust the interpreter's recursion limit.
    """
    adj = G.adj_mask
    closed = [a | 1 << v for v, a in enumerate(adj)]

    def drop(s, gone):
        # s - gone, less the vertices it leaves with no neighbour in it;
        # only neighbours of `gone` can be such vertices.
        s &= ~gone
        near = 0
        while gone:
            low = gone & -gone
            near |= adj[low.bit_length() - 1]
            gone ^= low
        near &= s
        while near:
            low = near & -near
            if not adj[low.bit_length() - 1] & s:
                s ^= low
            near ^= low
        return s

    top = sum(1 << v for v, a in enumerate(adj) if a)
    nu = {0: 0}
    # (s, None) asks for nu(s); (s, kids) comes back once every kid has it.
    stack = [(top, None)]
    while stack:
        s, kids = stack.pop()
        if kids is not None:
            nu[s] = max(nu[kids[0]], 1 + max(nu[t] for t in kids[1:]))
            continue
        if s in nu:
            continue
        v = (s & -s).bit_length() - 1
        kids = [drop(s, 1 << v)]
        nbrs = adj[v] & s
        while nbrs:
            low = nbrs & -nbrs
            u = low.bit_length() - 1
            kids.append(drop(s, s & (closed[v] | closed[u])))
            nbrs ^= low
        stack.append((s, kids))
        stack += [(t, None) for t in kids if t not in nu]
    return nu[top]


def _maximal_independent_masks(G):
    """Yield the inclusion-maximal independent sets as vertex bitmasks.

    These are the maximal cliques of the complement graph; enumerated by
    Bron-Kerbosch with pivoting on bitmasks, on an explicit stack so that
    large independent sets cannot exhaust the interpreter's recursion
    limit.  Isolated vertices lie in every maximal independent set, so
    they are set aside first.
    """
    n = G.n
    full = (1 << n) - 1
    isolated = sum(1 << v for v in range(n) if not G.adj_mask[v])
    cadj = [full & ~(G.adj_mask[v] | (1 << v)) for v in range(n)]
    stack = [(isolated, full ^ isolated, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            yield r
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


def maximal_independent_sets(G):
    """All inclusion-maximal independent sets, in lexicographic order."""
    return sorted(
        tuple(v for v in range(G.n) if (mask >> v) & 1)
        for mask in _maximal_independent_masks(G)
    )


def is_unmixed(G):
    """True iff every maximal independent set has the same size; stops at
    a second size."""
    sizes = map(int.bit_count, _maximal_independent_masks(G))
    first = next(sizes)
    return all(size == first for size in sizes)


def is_very_well_covered(G):
    """True iff n is even and positive, no vertex is isolated, and every
    maximal independent set has size exactly n/2; stops at another size."""
    if G.n == 0 or G.n % 2 or G.isolated_vertices():
        return False
    sizes = map(int.bit_count, _maximal_independent_masks(G))
    return all(size == G.n // 2 for size in sizes)


def certificate_conditions_hold(adj, matching):
    """The two structural conditions on the edges (x, y) of a matching,
    over adjacency bitmasks `adj`: (i) no matching edge lies in a
    triangle, and (ii) whenever a matching edge is the central edge of a
    length-3 path, the path's endpoints are adjacent."""
    for x, y in matching:
        if adj[x] & adj[y]:
            return False  # common neighbor closes a triangle through (x, y)
        wmask = adj[y] & ~(1 << x)
        rem = adj[x] & ~(1 << y)
        while rem:
            bit = rem & -rem
            rem ^= bit
            if wmask & ~bit & ~adj[bit.bit_length() - 1]:
                return False  # a path z-x-y-w with z, w not adjacent
    return True


def matching_certificate_ok(G, matching):
    """True iff `matching` is a perfect matching of G that satisfies both
    conditions of certificate_conditions_hold."""
    covered = set()
    for x, y in matching:
        if not G.has_edge(x, y):
            return False
        if x in covered or y in covered:
            return False
        covered.update((x, y))
    if len(covered) != G.n:
        return False
    return certificate_conditions_hold(G.adj_mask, matching)


def find_vwc_certificate(G):
    """The lexicographically first perfect matching satisfying both
    conditions of certificate_conditions_hold, or None.

    Each lowest unmatched vertex v takes its least unmatched partner u
    whose edge passes the conditions.  The greedy choice is exact: two
    such partners y and z of v are false twins (a path z-v-y-w makes w
    adjacent to z, and v-y lies in no triangle), so the swap (y z) maps a
    certifying matching through (v, z) onto one through (v, y).
    """
    if G.n == 0 or G.n % 2 or G.isolated_vertices():
        return None
    matching, free = [], (1 << G.n) - 1
    while free:
        v = (free & -free).bit_length() - 1
        for u in sorted(G.adj[v]):
            if free >> u & 1 and certificate_conditions_hold(
                    G.adj_mask, [(v, u)]):
                break
        else:
            return None
        free &= ~(1 << v | 1 << u)
        matching.append((v, u))
    return tuple(matching)


def _orbits(points, perms):
    """The union of the orbits of `points` under the group `perms` generate."""
    out = set(points)
    stack = list(out)
    while stack:
        x = stack.pop()
        for g in perms:
            y = g[x]
            if y not in out:
                out.add(y)
                stack.append(y)
    return out


def _mask_orbit(mask, perms):
    """The orbit of the bitmask `mask` under the group the bit
    permutations `perms` generate (p moves bit b to bit p[b]), as a list
    with `mask` first."""
    orbit = [mask]
    seen = {mask}
    for member in orbit:
        bits = []
        while member:
            low = member & -member
            bits.append(low.bit_length() - 1)
            member ^= low
        for p in perms:
            image = 0
            for b in bits:
                image |= 1 << p[b]
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def _symmetric_generators(n, points):
    """A transposition and a cycle of the vertices `points`, which
    generate every permutation of them; as permutations of 0..n-1."""
    if len(points) < 2:
        return ()
    swap = list(range(n))
    swap[points[0]], swap[points[1]] = points[1], points[0]
    cycle = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        cycle[a] = b
    return tuple(dict.fromkeys((tuple(swap), tuple(cycle))))


def _canonical_search(n, edges):
    """(canonical key, automorphism generators) of the graph on 0..n-1.

    Individualization-refinement: refine the colouring to a fixed point,
    individualize each vertex of the first non-singleton cell in turn,
    and take the least sorted edge code over the discrete leaves.
    Colours are always dense ranks, and refinement and target choice
    commute with relabelling, so two leaves with equal codes give an
    automorphism (McKay and Piperno, "Practical graph isomorphism, II",
    J. Symbolic Comput. 60, 2014).  A node skips a target vertex in the
    orbit of one it explored under the automorphisms found so far that
    fix its individualized vertices: that subtree is the image of an
    explored one and holds the same codes.  For the same reason a leaf
    that repeats an earlier code sends the search back to the node where
    the two leaves' paths part.  A cell of twins, with one open or one
    closed neighbourhood for all, is individualized in index order at
    once: its permutations fix the path and colouring, and the rest stay
    the first non-singleton cell once one twin is individualized, so each
    sibling branch is an image of this one.  A transposition and a cycle
    of it join the generators, permutations p (p[v] the image of v) that
    generate a subgroup of Aut(G), all of it for edgeless or complete G.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def refine(colors, count):
        # Each pass splits classes and keeps their order; a pass that
        # leaves the class count unchanged leaves every colour unchanged.
        while True:
            sig = [
                (c, tuple(sorted([colors[u] for u in nbrs])))
                for c, nbrs in zip(colors, adj)
            ]
            ranks = sorted(set(sig))
            if len(ranks) == count:
                return colors, count
            rank = {s: i for i, s in enumerate(ranks)}
            colors = tuple([rank[s] for s in sig])
            count = len(ranks)

    leaves = {}  # leaf code -> (labelling, path) of the first leaf with it
    gens = []
    best = None

    def search(colors, count, path):
        # Returns a depth d: the nodes on `path` deeper than d stop at
        # once, and the others go on.
        nonlocal best
        if count == n:
            code = tuple(
                sorted([_norm(colors[u], colors[v]) for u, v in edges])
            )
            first, first_path = leaves.setdefault(code, (colors, path))
            if first is colors:
                if best is None or code < best:
                    best = code
                return len(path)
            label_of = [0] * n
            for v, c in enumerate(colors):
                label_of[c] = v
            gens.append(tuple([label_of[c] for c in first]))
            # The new automorphism fixes the paths' common prefix and maps
            # the earlier leaf's branch, searched in full, onto this one.
            return next(
                d for d, (a, b) in enumerate(zip(first_path, path)) if a != b
            )
        depth = len(path)
        cells = [[] for _ in range(count)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        target, cell = next(x for x in enumerate(cells) if len(x[1]) > 1)
        if (len({frozenset(adj[v]) for v in cell}) == 1
                or len({frozenset(adj[v] | {v}) for v in cell}) == 1):
            child = [c + (len(cell) - 1) * (c > target) for c in colors]
            for i, v in enumerate(cell):
                child[v] += i
            gens.extend(_symmetric_generators(n, cell))
            child, count = refine(tuple(child), count + len(cell) - 1)
            return min(depth, search(child, count, path + tuple(cell)))
        stab, known, done = [], 0, set()
        for v in cell:
            if done and len(gens) > known:
                stab += [
                    g for g in gens[known:] if all(g[p] == p for p in path)
                ]
                known = len(gens)
                done = _orbits(done, stab)
            if v in done:
                continue
            done |= _orbits((v,), stab)
            # The rank of (colour, 0 if u == v else 1) over dense colours.
            child = tuple([
                c + (c > target or (c == target and u != v))
                for u, c in enumerate(colors)
            ])
            back = search(*refine(child, count + 1), path + (v,))
            if back < depth:
                return back
        return depth

    search(*refine((0,) * n, min(n, 1)), ())
    return (n, best), tuple(gens)


# Keyed on every graph checked and, through the lcm engine's orbit sums
# (`betti._ideal_symmetries`), on the graph of every colon under the lcm
# cap.  One seed-1 `perfbench` pass holds 201 entries on `banerjee_small`
# and 44 on `vwc_main_theorem`.  Criterion 8 (all n <= 6) keys 313 graphs,
# its 155 and 158 colon graphs, and misses each once: a graph is read only
# during its own check, so the entries it evicts are not asked again.
# Enumeration's keys never repeat: it bypasses the memo.
@lru_cache(maxsize=1 << 8)
def _canonical_memo(G):
    return _canonical_search(G.n, G.edges)


def canonical_key(G):
    """A canonical form: the lexicographically least edge encoding over all
    vertex orderings compatible with iterated color refinement.  Two graphs
    are isomorphic iff their canonical keys are equal."""
    return _canonical_memo(G)[0]


def automorphism_generators(G):
    """Permutations p of 0..n-1 (p[v] the image of v) that generate a
    subgroup of Aut(G), from the canonical search; ValueError for one
    that does not map E(G) onto itself."""
    perms = _canonical_memo(G)[1]
    for p in perms:
        if {_norm(p[u], p[v]) for u, v in G.edges} != G.edges:
            raise ValueError(f"{p} is not an automorphism of the graph")
    return perms


def are_isomorphic(G, H):
    return canonical_key(G) == canonical_key(H)
