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
vertex at an even position, residual multiplicities), which yields the
shortest witness walk and, among the shortest, the lexicographically
least.  Everything here is independent of the monomial-algebra colon
computation, so the two can referee each other.
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
    for e in edges:
        u, v = e
        if tuple(sorted((u, v))) not in G.edges:
            raise EvenConnectionError(f"{tuple(sorted((u, v)))} is not an edge")
        out.append(tuple(sorted((u, v))))
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


def _counts(product):
    counts = {}
    for e in product:
        counts[e] = counts.get(e, 0) + 1
    return counts


def _multiset_key(counts):
    return tuple(sorted((e, c) for e, c in counts.items() if c))


def even_connections_from(G, product, u):
    """All witnesses from u: a dict v -> EvenConnectionWitness, each the
    lexicographically least among the shortest witness walks from u to v."""
    counts = _counts(product)
    distinct = sorted(counts)
    best = {}
    # Layered BFS over (vertex at even position, residual multiset); each
    # layer uses one more interior pair, so walks in a layer share length
    # and prefix comparison is plain lexicographic order.
    layer = {(u, _multiset_key(counts)): (u,)}
    residuals = {_multiset_key(counts): counts}

    def close_walks(layer):
        # One final step from every walk that consumed at least one pair.
        for (w, _rkey), walk in sorted(layer.items(), key=lambda kv: kv[1]):
            if len(walk) == 1:
                continue
            for v in sorted(G.adj[w]):
                cand = walk + (v,)
                old = best.get(v)
                if old is None or (len(cand), cand) < (len(old.walk), old.walk):
                    bridges = tuple(
                        tuple(sorted((cand[2 * k + 1], cand[2 * k + 2])))
                        for k in range(len(cand) // 2 - 1)
                    )
                    best[v] = EvenConnectionWitness(cand, bridges)

    for _ in range(len(product)):
        close_walks(layer)
        nxt = {}
        for (w, rkey), walk in layer.items():
            rem = residuals[rkey]
            for a in sorted(G.adj[w]):
                for e in distinct:
                    if not rem.get(e):
                        continue
                    if a == e[0]:
                        b = e[1]
                    elif a == e[1]:
                        b = e[0]
                    else:
                        continue
                    rem2 = dict(rem)
                    rem2[e] -= 1
                    rkey2 = _multiset_key(rem2)
                    residuals.setdefault(rkey2, rem2)
                    cand = walk + (a, b)
                    state = (b, rkey2)
                    if state not in nxt or cand < nxt[state]:
                        nxt[state] = cand
        layer = nxt
        if not layer:
            break
    # Walks that consumed the whole multiset still need their final step.
    close_walks(layer)
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
        gens = set()
        for u, v in self.edges:
            gens.add(mon.mul(mon.variable(self.n, u), mon.variable(self.n, v)))
        for u in self.squares:
            x = mon.variable(self.n, u)
            gens.add(mon.mul(x, x))
        return mon.MonomialIdeal(self.n, frozenset(gens))

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
    if isinstance(G, Graph) is False:
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
    return mon.colon_by_monomial(mon.power(I, len(product) + 1), m)
