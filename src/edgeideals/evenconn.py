"""Even-connection combinatorics of colon ideals of edge-ideal powers.

For an edge ideal I = I(G) and a minimal generator m = e_1...e_s of I^s,
the colon ideal (I^{s+1} : m) is generated in degree two, by the edges of
G together with the products uv of even-connected vertex pairs (u = v
allowed).  Vertices u, v are even-connected with respect to the edge
multiset {e_1, ..., e_s} when G contains a walk

    u = p_0, p_1, ..., p_{2l+1} = v      (l >= 1)

whose consecutive pairs are all edges of G, such that every interior pair
{p_{2k+1}, p_{2k+2}} (0 <= k <= l-1) equals some e_i, and no e_i is used
more often than its multiplicity in the product.  Vertices may repeat
along the walk.

The search runs a layered breadth-first sweep over states (current
vertex at an even position, residual count vector), where the count
vector holds one entry per distinct product edge, in sorted order, and
each interior pair decrements its entry.  Every walk in a layer has the
same length, so each layer is closed once: the first layer whose final
step reaches v holds v's shortest witness walks, and the least of them
in lexicographic order is v's witness.  Everything here is independent
of the monomial-algebra colon computation, so the two can referee each
other.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import monomials as mon
from .graphs import Graph, GraphError


class EvenConnectionError(ValueError):
    """Invalid input to the even-connection machinery."""


def normalize_edge_product(G, edges):
    """Validate an s-fold edge product and return it as a sorted tuple
    of normalized edges (repetition allowed, every factor an edge of G)."""
    if not edges:
        raise EvenConnectionError("an edge product needs at least one edge")
    out = []
    for u, v in edges:
        e = tuple(sorted((u, v)))
        if e not in G.edges:
            raise EvenConnectionError(f"{e} is not an edge")
        out.append(e)
    return tuple(sorted(out))


@dataclass(frozen=True)
class EvenConnectionWitness:
    """A witness walk p_0 ... p_{2l+1} for an even-connection."""

    walk: tuple
    # bridge_edges[k] is the interior pair {p_{2k+1}, p_{2k+2}} as used.
    bridge_edges: tuple

    @property
    def length(self):
        return len(self.walk) - 1


def validate_witness(G, edges, witness, u, v):
    """Check a claimed witness against the definition, from scratch."""
    walk = witness.walk
    if len(walk) < 4 or len(walk) % 2 != 0:
        return False
    if walk[0] != u or walk[-1] != v:
        return False
    for a, b in zip(walk, walk[1:]):
        if tuple(sorted((a, b))) not in G.edges:
            return False
    product = list(normalize_edge_product(G, edges))
    bridges = []
    for k in range(len(walk) // 2 - 1):
        pair = tuple(sorted((walk[2 * k + 1], walk[2 * k + 2])))
        bridges.append(pair)
        if pair in product:
            product.remove(pair)  # consume one unit of multiplicity
        else:
            return False
    return tuple(bridges) == witness.bridge_edges


def even_connections_from(G, product, u):
    """All witnesses from u: a dict v -> EvenConnectionWitness, each the
    lexicographically least among the shortest witness walks from u to v."""
    distinct = sorted(set(product))
    # bridges[a] lists (i, b) for each distinct product edge i = {a, b}.
    bridges = [[] for _ in range(G.n)]
    for i, (a, b) in enumerate(distinct):
        bridges[a].append((i, b))
        bridges[b].append((i, a))
    best = {}
    # A layer maps (vertex at an even position, residual counts) to the
    # least walk reaching that state; entry i counts unused distinct[i].
    layer = {(u, tuple(product.count(e) for e in distinct)): (u,)}
    for _ in range(len(product)):
        nxt = {}
        for (w, rest), walk in layer.items():
            for a in G.adj[w]:
                for i, b in bridges[a]:
                    if rest[i]:
                        state = (b, rest[:i] + (rest[i] - 1,) + rest[i + 1:])
                        cand = walk + (a, b)
                        if state not in nxt or cand < nxt[state]:
                            nxt[state] = cand
        layer = nxt
        reached = {}
        for (w, _rest), walk in layer.items():
            for v in G.adj[w]:
                if v not in best:
                    cand = walk + (v,)
                    if v not in reached or cand < reached[v]:
                        reached[v] = cand
        for v, walk in reached.items():
            bridge_edges = tuple(
                tuple(sorted(walk[j:j + 2])) for j in range(1, len(walk) - 2, 2)
            )
            best[v] = EvenConnectionWitness(walk, bridge_edges)
    return best


def is_even_connected(G, edges, u, v):
    """The lexicographically least shortest witness, or None."""
    product = normalize_edge_product(G, edges)
    for w in (u, v):
        if not 0 <= w < G.n:
            raise EvenConnectionError(f"vertex {w} out of range")
    witness = even_connections_from(G, product, u).get(v)
    if witness is not None and not validate_witness(G, edges, witness, u, v):
        raise AssertionError("search produced an invalid witness")
    return witness


@dataclass(frozen=True)
class ColonQuadraticIdeal:
    """The quadratic generators of (I(G)^{s+1} : e_1...e_s): ordinary
    edges plus squared vertices, each new edge carrying its witness."""

    n: int
    edges: frozenset
    squares: frozenset
    witnesses: tuple  # pairs ((u, v) or (u, u), EvenConnectionWitness)

    @property
    def is_squarefree(self):
        return not self.squares

    def edge_graph(self):
        """The graph on the squarefree part; the colon ideal is an edge
        ideal exactly when there are no squares."""
        return Graph(self.n, self.edges)

    def as_ideal(self):
        return mon.quadratic_ideal(self.n, self.edges, self.squares)

    def new_edges(self, G):
        return sorted(e for e in self.edges if e not in G.edges)

    def to_dot(self, G=None):
        """Graphviz source; edges absent from the base graph are dashed
        and squared vertices are doubled."""
        lines = ["graph colon {"]
        for u in sorted(self.squares):
            lines.append(f'  {u} [peripheries=2];')
        seen = set(self.squares)
        for e in sorted(self.edges):
            seen.update(e)
            style = ""
            if G is not None and e not in G.edges:
                style = " [style=dashed]"
            lines.append(f"  {e[0]} -- {e[1]}{style};")
        for u in range(self.n):
            if u not in seen:
                lines.append(f"  {u};")
        lines.append("}")
        return "\n".join(lines)


def colon_graph(G, edges):
    """Quadratic generators of (I(G)^{s+1} : e_1...e_s) by even-connection
    search alone (no ideal arithmetic)."""
    if not isinstance(G, Graph):
        raise GraphError("expected a Graph")
    product = normalize_edge_product(G, edges)
    out_edges = set(G.edges)
    squares = set()
    witnesses = []
    for u in range(G.n):
        found = even_connections_from(G, product, u)
        for v, wit in sorted(found.items()):
            if v < u:
                continue  # the sweep from v already recorded this pair
            if u == v:
                squares.add(u)
                witnesses.append(((u, u), wit))
            elif (u, v) not in G.edges:
                out_edges.add((u, v))
                witnesses.append(((u, v), wit))
    return ColonQuadraticIdeal(
        G.n, frozenset(out_edges), frozenset(squares), tuple(witnesses)
    )


def colon_ideal_by_algebra(G, edges):
    """Referee path: (I^{s+1} : e_1...e_s) by plain monomial arithmetic."""
    product = normalize_edge_product(G, edges)
    I = mon.edge_ideal(G)
    m = mon.product_of_edges(G.n, product)
    return mon.colon_by_monomial(I, m, len(product) + 1)
