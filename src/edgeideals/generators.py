"""Graph families for the verification harness.

Three sources: exhaustive small graphs up to isomorphism, very
well-covered graphs grown block by block around a fixed perfect matching,
and named families (paths, cycles, complete graphs, coronas).

The perfect matching {x_i, y_i} is fixed up front and only cross edges
vary; the matching conditions (Favaron, Discrete Math. 42, 1982)

  (i)  no matching edge lies in a triangle,
  (ii) the ends of any length-3 path whose central edge is a matching
       edge are adjacent,

decide which extensions are kept, and the independent recognizer
re-checks every emitted graph.  The constructor is never trusted.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, fields

from .graphs import (
    Graph,
    GraphError,
    _canonical_search,
    _mask_orbit,
    canonical_key,
    certificate_conditions_hold,
    is_very_well_covered,
    matching_certificate_ok,
    odd_girth,
)


class GenerationError(RuntimeError):
    """A random generator exhausted its attempt budget."""


# ---------------------------------------------------------------------------
# Named families.
# ---------------------------------------------------------------------------


def path_graph(n):
    if n < 1:
        raise GraphError("a path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise GraphError("a cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    if n < 1:
        raise GraphError("a complete graph needs at least one vertex")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a, b):
    if a < 1 or b < 1:
        raise GraphError("both sides of a complete bipartite graph need vertices")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def corona(G):
    """Attach one new pendant vertex to every vertex of G.

    The pendant edges form a perfect matching that always satisfies the
    very-well-covered certificate conditions; this is asserted, not
    assumed.
    """
    edges = list(G.edges) + [(v, G.n + v) for v in range(G.n)]
    H = Graph.from_edges(2 * G.n, edges)
    pendants = tuple((v, G.n + v) for v in range(G.n))
    if not matching_certificate_ok(H, pendants):
        raise AssertionError("corona pendant matching failed certification")
    return H


_NAMED_RE = re.compile(r"^(P|C|K)(\d+)(?:,(\d+))?$")


def named_graph(name):
    """Parse 'P4', 'C5', 'K6', 'K3,3', or 'corona(C7)'."""
    name = name.strip()
    m = re.match(r"^corona\((.*)\)$", name)
    if m:
        return corona(named_graph(m.group(1)))
    m = _NAMED_RE.match(name)
    if not m:
        raise GraphError(f"unknown graph name {name!r}")
    kind, a, b = m.group(1), int(m.group(2)), m.group(3)
    if b is not None:
        if kind != "K":
            raise GraphError(f"unknown graph name {name!r}")
        return complete_bipartite_graph(a, int(b))
    if kind == "P":
        return path_graph(a)
    if kind == "C":
        return cycle_graph(a)
    return complete_graph(a)


def random_graph(n, density, seed):
    """Erdos-Renyi draw, deterministic per seed."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Exhaustive small graphs up to isomorphism.
# ---------------------------------------------------------------------------


def enumerate_all_graphs(n, allow_isolated=False):
    """One representative per isomorphism class of graphs on n vertices,
    by default without isolated vertices; built by vertex augmentation
    (every n-vertex graph minus its last vertex is an (n-1)-vertex graph).
    Deterministic order: by edge count, then edge list.

    Each class is represented by the first extension, over parents in
    order and neighbour masks in increasing order, that falls in it.
    The parent's automorphisms map each mask onto masks whose extensions
    are isomorphic to its own, so only the first mask of each orbit is
    keyed (McKay, "Isomorph-free exhaustive generation", J. Algorithms
    26, 1998); a skipped mask could never be the first of its class."""
    if not 1 <= n <= 8:
        raise GraphError(f"exhaustive enumeration supports 1 <= n <= 8, got {n}")
    key, gens = _canonical_search(1, frozenset())
    reps = {key: (frozenset(), gens)}
    for level in range(2, n + 1):
        new = {}
        v = level - 1
        for edges, gens in reps.values():
            seen = bytearray(1 << v)
            for mask in range(1 << v):
                if seen[mask]:
                    continue
                # Mark the mask's orbit, of which it is the least member.
                for image in _mask_orbit(mask, gens):
                    seen[image] = 1
                # Grown from a set, so that each edge frozenset iterates in
                # the order it always has: the checks' costs follow it.
                ext = set(edges)
                ext.update((u, v) for u in range(v) if mask >> u & 1)
                ext = frozenset(ext)
                key, ext_gens = _canonical_search(level, ext)
                if key not in new:
                    new[key] = (ext, ext_gens)
        reps = new
    graphs = [Graph(n, e) for e, _ in reps.values()]
    if not allow_isolated:
        covered = lambda G: all(G.adj[v] for v in range(G.n))
        graphs = [G for G in graphs if covered(G)]
    graphs.sort(key=lambda G: (len(G.edges), G.sorted_edges))
    return graphs


# ---------------------------------------------------------------------------
# Very well-covered graphs, by block augmentation.
# ---------------------------------------------------------------------------

# Cross-edge slots between matched pairs (x_i, y_i) and (x_j, y_j):
# (x_i-x_j, x_i-y_j, y_i-x_j, y_i-y_j).  Condition (i) forbids any two
# slots sharing a vertex, leaving these seven patterns per pair of blocks.
_BLOCK_PATTERNS = (
    (),
    ((0, 0),),
    ((0, 1),),
    ((1, 0),),
    ((1, 1),),
    ((0, 0), (1, 1)),
    ((0, 1), (1, 0)),
)


def enumerate_vwc_graphs(m):
    """Very well-covered graphs on 2m vertices, one per isomorphism class,
    sorted by edge count, then edge list.  Every emitted graph is
    re-checked by the independent recognizer.

    Built by block augmentation (McKay, J. Algorithms 26, 1998): level
    t + 1 extends each representative on t blocks, in the order found,
    by the block (2t, 2t + 1) and each of the 7^t assignments of
    `_BLOCK_PATTERNS` between it and blocks 0..t-1, in `itertools.product`
    order.  An extension whose matching certifies is kept unless marked,
    and its orbit under the relabelings that keep the matching is marked.
    Marks are edge bitmasks over the vertex-pair slots u * 2(t+1) + v
    (u < v), walked by `_mask_orbit`; each is dropped once reached, since
    no labelled extension is produced twice.  This is sound:

    1. Removing a block leaves the matching certifying, since conditions
       (i) and (ii) pass to induced subgraphs.
    2. If v has two certifying partners y and z, they are false twins:
       a path z-v-y-w puts w in N(z), so N(y) = N(z), and y, z are not
       adjacent, as v-y lies in no triangle.  The swap (y z) is then an
       automorphism, so a graph's certifying matchings form one
       Aut(G)-orbit, and each isomorphism class meets the graphs that
       the fixed matching certifies in one orbit of its relabelings.
    3. So the least member of a class, ordered by pattern vector in step
       order (blocks t, then i), restricts to the least member of its
       restriction's class.  Representatives are found in that order,
       so the first extension that reaches a class is its least member,
       which is the class's first certifying assignment in that order.

    Each graph's edge frozenset is grown from the matching edges, then
    the cross edges in step order: the checks' costs follow its
    iteration order."""
    if not 1 <= m <= 5:
        raise GraphError(f"vwc enumeration supports 1 <= m <= 5, got {m}")
    matching = [(2 * i, 2 * i + 1) for i in range(m)]
    reps = [[]]  # the cross edges of each representative, in step order
    for t in range(1, m):
        n = 2 * t + 2
        slot_maps = _matching_slot_maps(t + 1)
        marked = set()
        new = []
        for cross in reps:
            base, base_mask = [0] * n, 0
            for u, v in matching[: t + 1] + cross:
                base[u] |= 1 << v
                base[v] |= 1 << u
                base_mask |= 1 << (u * n + v)
            for patterns in itertools.product(_BLOCK_PATTERNS, repeat=t):
                adj, mask, added = list(base), base_mask, []
                for i, pattern in enumerate(patterns):
                    for a, b in pattern:
                        u, v = 2 * i + a, 2 * t + b
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                        mask |= 1 << (u * n + v)
                        added.append((u, v))
                # A marked mask is the image of a kept one, so it certifies.
                if mask in marked:
                    marked.discard(mask)
                elif certificate_conditions_hold(adj, matching[: t + 1]):
                    marked.update(_mask_orbit(mask, slot_maps)[1:])
                    new.append(cross + added)
        reps = new
    seen = {}
    for cross in reps:
        G = Graph(2 * m, frozenset(matching + cross))
        seen.setdefault(canonical_key(G), G)
    graphs = sorted(seen.values(), key=lambda G: (len(G.edges), G.sorted_edges))
    for G in graphs:
        if not is_very_well_covered(G):
            raise AssertionError(
                f"block augmentation emitted a non-vwc graph: "
                f"{G.sorted_edges}"
            )
    return graphs


def _matching_slot_maps(m):
    """At most three relabelings of 2m vertices that generate those
    keeping the matching {(2i, 2i+1)}: swap the ends of block 0, swap
    blocks 0 and 1, and rotate the blocks.  Each is given as the map from
    a vertex-pair slot u * 2m + v (u < v) to the slot of its image pair."""
    n = 2 * m
    perms = [(1, 0, *range(2, n))]
    if m > 1:
        perms += [(2, 3, 0, 1, *range(4, n)), (*range(2, n), 0, 1)]
    slot_maps = []
    for perm in dict.fromkeys(perms):
        slot_map = [0] * (n * n)
        for u, v in itertools.combinations(range(n), 2):
            a, b = sorted((perm[u], perm[v]))
            slot_map[u * n + v] = a * n + b
        slot_maps.append(slot_map)
    return slot_maps


def random_vwc_graph(m, density, seed):
    """A random very well-covered graph on 2m vertices: propose cross
    edges at the given density, close condition (ii) to a fixed point,
    resample whenever condition (i) breaks.  Deterministic per seed."""
    if m < 1:
        raise GraphError("need at least one matched pair")
    if not 0 <= density <= 1:
        raise GraphError("density must lie in [0, 1]")
    rng = random.Random(seed)
    matching = [(2 * i, 2 * i + 1) for i in range(m)]
    slots = [
        (2 * i + a, 2 * j + b)
        for i in range(m)
        for j in range(i + 1, m)
        for a in (0, 1)
        for b in (0, 1)
    ]
    for _attempt in range(500):
        adj = [0] * (2 * m)
        for x, y in matching:
            adj[x] |= 1 << y
            adj[y] |= 1 << x
        for u, v in slots:
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        # Close condition (ii): a violating length-3 path demands its end
        # edge; new edges can create new paths, so iterate to a fixed
        # point (bounded: the edge set only grows).
        changed = True
        while changed:
            changed = False
            for x, y in matching:
                zmask = adj[x] & ~(1 << y)
                wmask = adj[y] & ~(1 << x)
                rem = zmask
                while rem:
                    bit = rem & -rem
                    z = bit.bit_length() - 1
                    rem ^= bit
                    need = wmask & ~(1 << z) & ~adj[z]
                    while need:
                        nb = need & -need
                        w = nb.bit_length() - 1
                        need ^= nb
                        adj[z] |= 1 << w
                        adj[w] |= 1 << z
                        changed = True
        if not certificate_conditions_hold(adj, matching):
            continue  # condition (i) broke: resample
        edges = [
            (u, v)
            for u in range(2 * m)
            for v in range(u + 1, 2 * m)
            if adj[u] & (1 << v)
        ]
        G = Graph.from_edges(2 * m, edges)
        if not is_very_well_covered(G):
            raise AssertionError("repair produced a non-vwc graph")
        return G
    raise GenerationError(
        f"no very well-covered graph found for m={m}, density={density}, "
        f"seed={seed} within the attempt budget"
    )


# ---------------------------------------------------------------------------
# Family specifications (CLI / JSON plumbing).
# ---------------------------------------------------------------------------

# The fields each kind reads besides `kind`, `odd_girth_min` and `cap`.
_KIND_FIELDS = {
    "exhaustive-all": ("n",),
    "exhaustive-vwc": ("m",),
    "random-vwc": ("m", "density", "seed"),
    "named": ("names",),
}
_SHARED_FIELDS = ("kind", "odd_girth_min", "cap")
FAMILY_KINDS = tuple(_KIND_FIELDS)


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A declarative description of a graph stream.

    A field left at None is not given; a field the kind does not read must
    not be given.  A random-vwc family reads `density` 0.3 and `seed` 0
    unless given, and two specs are equal when they describe the same
    family, so an unset default equals the default given."""

    kind: str
    n: int | None = None
    m: int | None = None
    density: float | None = None
    seed: int | None = None
    odd_girth_min: int | None = None
    cap: int | None = None
    names: tuple | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        unread = sorted(
            f.name
            for f in fields(self)
            if f.name not in _SHARED_FIELDS + _KIND_FIELDS[self.kind]
            and getattr(self, f.name) is not None
        )
        if unread:
            raise ValueError(
                f"a {self.kind} family does not read {', '.join(unread)}"
            )
        if self.cap is not None and self.cap <= 0:
            raise ValueError("instance cap must be positive")
        if self.kind == "exhaustive-all" and self.n is None:
            raise ValueError("exhaustive-all needs n")
        if self.kind in ("exhaustive-vwc", "random-vwc") and self.m is None:
            raise ValueError(f"{self.kind} needs the pair count m")
        if self.kind == "named" and not self.names:
            raise ValueError("named family needs at least one name")

    def __eq__(self, other):
        return (
            isinstance(other, FamilySpec)
            and self.to_json_obj() == other.to_json_obj()
        )

    def __hash__(self):
        return hash(self.kind)  # equal specs have equal kinds

    @staticmethod
    def from_json_obj(obj):
        """The spec a JSON object describes; ValueError for a missing kind,
        for an unknown key, for a value of the wrong type (`names` a list
        of strings, `density` a number, every other key an integer, never
        null), and for anything the constructor rejects, such as a key the
        kind does not read."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("a family needs a JSON object with a 'kind'")
        known = set(_SHARED_FIELDS).union(*_KIND_FIELDS.values())
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(f"unknown family key(s): {', '.join(unknown)}")
        for key, value in obj.items():
            if key == "kind":
                continue
            if key == "names":
                ok = isinstance(value, list) and all(
                    isinstance(name, str) for name in value
                )
            else:
                types = (int, float) if key == "density" else int
                ok = isinstance(value, types) and not isinstance(value, bool)
            if not ok:
                raise ValueError(
                    f"family key {key} has the wrong type: {value!r}"
                )
        given = dict(obj)
        if "names" in given:
            given["names"] = tuple(given["names"])
        return FamilySpec(**given)

    def to_json_obj(self):
        obj = {"kind": self.kind}
        if self.n is not None:
            obj["n"] = self.n
        if self.m is not None:
            obj["m"] = self.m
        if self.kind == "random-vwc":
            obj["density"] = 0.3 if self.density is None else self.density
            obj["seed"] = 0 if self.seed is None else self.seed
        if self.odd_girth_min is not None:
            obj["odd_girth_min"] = self.odd_girth_min
        if self.cap is not None:
            obj["cap"] = self.cap
        if self.names:
            obj["names"] = list(self.names)
        return obj

    def instances(self):
        """The graph stream this spec describes, deterministically."""
        count = self.cap
        if self.kind == "exhaustive-all":
            stream = enumerate_all_graphs(self.n)
        elif self.kind == "exhaustive-vwc":
            stream = enumerate_vwc_graphs(self.m)
        elif self.kind == "random-vwc":
            count = count or 20
            obj = self.to_json_obj()
            seeds = range(obj["seed"], obj["seed"] + 20 * count)
            stream = self._random_vwc(obj["density"], seeds)
        else:
            stream = [named_graph(name) for name in self.names]
        if self.odd_girth_min is not None:
            stream = (G for G in stream if odd_girth(G) >= self.odd_girth_min)
        return list(itertools.islice(stream, count))

    def _random_vwc(self, density, seeds):
        """One graph per seed, skipping seeds that exhaust their attempt
        budget; GenerationError only when no seed gives a graph."""
        found = False
        for seed in seeds:
            try:
                G = random_vwc_graph(self.m, density, seed)
            except GenerationError:
                continue
            found = True
            yield G
        if not found:
            raise GenerationError(
                f"no very well-covered graph found for m={self.m}, "
                f"density={density} at any seed in "
                f"{seeds.start}..{seeds.stop - 1}"
            )
