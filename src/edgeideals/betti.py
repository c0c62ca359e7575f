"""Graded Betti numbers and Castelnuovo-Mumford regularity of monomial
ideals, by two engines that validate each other.

Both engines sum over the lcm lattice.  Polarization maps it one to one
onto the unions of the polarized generator masks: a union is the lcm's
polarization, a generator divides m exactly when its mask lies inside
m's, and a mask's bit count is the degree.  So both engines read one
lattice, `lcm_lattice`, built once per ideal, and share the homology kernel
and `_submask_faces`; each computes an element's homology by its own route.

Engine 1 (lcm lattice): each graded Betti number of the ideal is the
reduced homology rank, one dimension down, of the open interval below a
lattice element m.  The relation "variable v is slack in atom a" (a_v <
m_v, over the interval's atoms, the minimal generators dividing m) is a
Dowker pair with two homotopy equivalent complexes: the crosscut complex
on the atoms (the nerve of the slack masks, homotopy equivalent to the
interval's order complex) and the upper Koszul complex K^m(I) on the
variables of m (Miller-Sturmfels, Thm 1.34).  The relation is read off
the polarized masks (`_slack_relation`): the atoms by one OR of
precomputed generator sets per variable that the element's mask stops
short of, and each atom's row as the element's top copies missing from
the atom's mask, compressed onto supp(m).  The homology is memoized on
the relation itself, its distinct rows and column count, not on m: equal
relations give equal complexes, so the key hits across intervals and
across ideals.  A miss reduces the relation to its Dowker core,
dropping rows inside other rows and columns inside other columns, strong
collapses that keep both homotopy types, and a second memo, on the core,
builds whichever complex of the core has fewer vertices; on a tie, the
crosscut complex.  Both are submask complexes, K^m of the core's rows and
the nerve of its columns (atoms form a face exactly when some variable is
slack in all of them), so `_submask_faces` builds either, and with at
most LCM_MAX_GENERATORS vertices it needs no face cap.  The interval
homology stays independent of Hochster: it works on the unpolarized
support of m, while Hochster restricts the polarized Stanley-Reisner
complex, and for squarefree m, K^m is the Alexander dual of Hochster's
restriction; Hochster reads neither the relation nor the core memo.

Orbit sum: a vertex permutation fixing I permutes the polarized bits
(copy c of v to copy c of its image) and with them the lattice, and maps
the interval below w onto the interval below its image, so the two have
the same homology (Gasharov-Peeva-Welker, The lcm-lattice in monomial
resolutions, Math. Res. Lett. 6, 1999).  The lcm engine finds such
permutations itself (`_ideal_symmetries`): the automorphisms of I's own
graph, an edge uv per minimal generator with support {u, v}, that fix
I.  For I = I(G)^s that graph is G, whose automorphism generators the
canonical-key memo already holds once `graph_code(G)` has run.  It reads
one relation per orbit of the lattice and weights its ranks by the
orbit's size.  Hochster keeps its full sweep, so wherever both engines
answer, its table referees the orbit sum as well as the reductions.

Engine 2 (polarization + Hochster): polarize to a squarefree ideal, then
sum reduced homology ranks of vertex-subset restrictions of its
Stanley-Reisner complex.  Only subsets that are unions of minimal nonfaces
can carry homology (anything else restricts to a cone), so the sweep runs
over the lcm lattice, the unions of the generator supports, and looks each
restriction up, relabelled onto its own bits, in one global memo.  A miss
splits it into the components of its nonfaces, a join.  Each component is
first reduced from its nonface list, without listing a face: when the
deletion of some vertex is a cone, its polynomial is t times the link's;
when the link is a cone, it is the deletion's.  Links are built directly
(`_link`), and the pieces recurse through the same memo.  Only a
component where no vertex qualifies has its faces enumerated, on
whichever of its complex and its Alexander dual has fewer (the two have
2^c between them, and an exact face count of the complex, stopped at
half, picks the side).  The lcm engine reduces by strong collapses on its
own relation, a different theorem on a different complex from deletion
and link, and still enumerates the faces of the core's complex, so
wherever both engines answer, the reductions are checked independently.

Hochster decides capacity once, on the components of the full support,
before it reads the lattice.  HOCHSTER_MAX_VARS bounds a
component's vertices, and with them the depth of the reductions and of
the face count, one level per vertex, and the side that
`_enumerated_component_poly` builds, at most 2^(c-1) faces.
HOMOLOGY_FACE_CAP is a certified test, not an enumeration bound: a
component is over it only where both the nerve of its dual's facets and
the complex itself are certified over the cap (`_over_face_cap`).  Both
certified counts, and the vertex count, only shrink under deletion, link
and splitting, and a connected piece of a restriction is a deletion of
one full-support component, so no connected piece, the only kind reduced
or enumerated, could fail a test those components pass.

Tables are indexed on the ideal I, not R/I: reg(I) = reg(R/I) + 1.
Everything is over the rationals via exact integer ranks.

Both engines enforce the fixed capacity limits below and raise
CapacityError rather than degrade silently.  Each engine is public and
stamps the table it returns with its own name.  `betti_table` is the one
rule that runs them: it runs both, requires their tables to agree when
both answer, and raises CapacityError only when both refuse.

The restriction, relation, core, polarization, lattice and regularity
memos are bounded `lru_cache`s; `cache_info()` reads their hits.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_

from . import monomials as mon
from .graphs import Graph, _mask_orbit, automorphism_generators
from .homology import faces_from_nonfaces, reduced_homology_ranks


class CapacityError(RuntimeError):
    """A computation exceeded one of the desk-scale capacity limits."""


class EngineDisagreement(RuntimeError):
    """The two Betti engines produced different tables for one ideal."""

    def __init__(self, ideal, table_lcm, table_hochster):
        self.ideal = ideal
        self.table_lcm = table_lcm
        self.table_hochster = table_hochster
        super().__init__(
            "Betti engines disagree on "
            f"{ideal.gen_strings()}: lcm={table_lcm.rows()} "
            f"hochster={table_hochster.rows()}"
        )


# Capacity limits, read at call time, LATTICE_CAP when a lattice is built.
# LCM_MAX_GENERATORS alone bounds the lcm engine: at 16 generators, at most
# 2^16 - 1 = 65,535 faces on the side it builds and elements in its lattice.
LCM_MAX_GENERATORS = 16
LATTICE_CAP = 80000  # both engines' lattice; keeps every Hochster decision
HOCHSTER_MAX_VARS = 24  # per component of the full support
HOMOLOGY_FACE_CAP = 30000


class BettiTable:
    """Map (homological degree i, internal degree j) -> positive rank.

    `engines` names the engines that answered with this table: one
    engine's own name, or those that answered `betti_table`.  Equality
    compares entries only.
    """

    def __init__(self, entries, engines=()):
        self.entries = {k: v for k, v in entries.items() if v}
        self.engines = engines
        for (i, j), r in self.entries.items():
            if i < 0 or j < 0 or r < 0:
                raise ValueError(f"bad Betti entry ({i},{j})={r}")

    def rank(self, i, j):
        return self.entries.get((i, j), 0)

    def regularity(self):
        if not self.entries:
            raise ValueError("empty Betti table has no regularity")
        return max(j - i for i, j in self.entries)

    def rows(self):
        return [(i, j, r) for (i, j), r in sorted(self.entries.items())]

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable({self.rows()})"

    def to_json_obj(self):
        return [{"i": i, "j": j, "rank": r} for i, j, r in self.rows()]

    def text_triangle(self):
        """Macaulay-style layout: rows indexed by j-i, columns by i."""
        imax = max(i for i, _ in self.entries)
        dmin = min(j - i for i, j in self.entries)
        dmax = max(j - i for i, j in self.entries)
        width = max(len(str(r)) for r in self.entries.values())
        width = max(width, len(str(imax)), len(str(dmax)) + 1)
        head = " " * (len(str(dmax)) + 2) + " ".join(
            str(i).rjust(width) for i in range(imax + 1)
        )
        lines = [head]
        for d in range(dmin, dmax + 1):
            cells = []
            for i in range(imax + 1):
                r = self.entries.get((i, d + i), 0)
                cells.append((str(r) if r else ".").rjust(width))
            lines.append(str(d).rjust(len(str(dmax)) + 1) + " " + " ".join(cells))
        return "\n".join(lines)


def _check_ideal(I):
    if I.is_zero:
        raise mon.IdealError("the zero ideal has no Betti table")
    if I.is_unit:
        raise mon.IdealError("the unit ideal has no Betti table")


# ---------------------------------------------------------------------------
# Homology polynomials of complexes-with-nonfaces, and the submask face
# enumerator and mask helpers shared by both engines: the lcm engine runs
# `_submask_faces` on the rows or columns of an interval's Dowker core,
# Hochster on the nonface complements of a component (its Alexander dual).
#
# A complex is encoded as P(t) = sum_d rank(H~_d) * t^(d+1), so that the
# join of two complexes has polynomial P1 * P2 and a contractible factor
# kills the product.
# ---------------------------------------------------------------------------


def _ranks_to_poly(ranks):
    if not ranks:
        return ()
    top = max(ranks) + 1
    coeffs = [0] * (top + 1)
    for d, r in ranks.items():
        coeffs[d + 1] = r
    return tuple(coeffs)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _submask_faces(masks):
    """Nonempty faces of the union of the simplices on the given masks:
    every nonempty submask of one of them.  Each caller passes an
    antichain, so every mask is a facet: Hochster the complements of
    minimal nonfaces, the lcm engine the rows or columns of a Dowker
    core."""
    faces = set()
    for s in masks:
        sub = s
        while sub:
            faces.add(sub)
            sub = (sub - 1) & s
    return list(faces)


def _runs(mask):
    """The runs of consecutive set bits of `mask`, each with the shift
    that moves it down past the clear bits below it, so OR-ing
    (x & run) >> shift over the runs compresses x onto mask's bits."""
    runs = []
    c = 0
    while mask:
        low = mask & -mask
        run = ((mask + low) & ~mask) - low
        runs.append((run, low.bit_length() - 1 - c))
        c += run.bit_count()
        mask ^= run
    return runs


def _transpose(rows, ncols):
    """Column masks over the rows of a relation given by its row masks,
    visiting only each row's set bits."""
    cols = [0] * ncols
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols


def _enumerated_component_poly(nvertices, nonfaces):
    """Homology polynomial of a component that no deletion or link
    reduces, from the faces of whichever of the complex and its Alexander
    dual has fewer.

    Taking complements maps the dual's faces onto the complex's nonfaces,
    so the two have 2^c faces between them, the empty ones included.
    `_face_count` picks the side without building a face: the complex when
    it has fewer than 2^(c-1) faces, else the dual, which then has at most
    2^(c-1) - 1 nonempty ones.  No face cap applies: a component has at
    most HOCHSTER_MAX_VARS vertices, and those that reach here are
    smaller, at most 8 on every ideal of criteria 1 and 8."""
    half = 1 << (nvertices - 1)
    if _face_count(nvertices, nonfaces, half - 1) < half:
        faces = faces_from_nonfaces(nvertices, nonfaces)
        return _ranks_to_poly(reduced_homology_ranks(faces))
    full = (1 << nvertices) - 1
    dual = _submask_faces([full ^ nf for nf in nonfaces])
    ranks = reduced_homology_ranks(dual)
    return _ranks_to_poly({nvertices - 3 - d: r for d, r in ranks.items()})


def _link(nonfaces, bit):
    """The minimal nonfaces of lk(v), v the vertex `bit`, from those of
    the complex, an antichain: each nonface through v less v, which stay an
    antichain, and each nonface avoiding v that holds none of them."""
    through = [nf ^ bit for nf in nonfaces if nf & bit]
    link = through[:]
    for nf in nonfaces:
        if not nf & bit:
            for t in through:
                if t & nf == t:
                    break
            else:
                link.append(nf)
    return link


def _face_count(nvertices, nonfaces, cap):
    """Number of faces, the empty face included, of the complex on
    0..nvertices-1 with the given minimal nonfaces; cap + 1 once that
    number passes `cap`.

    Every face either avoids a vertex v, a face of del(v), or is v joined
    to a face of lk(v), so F = F(del v) + F(lk v), with del and lk as in
    `_reduce_by_vertex`.  A vertex in no nonface doubles the count, and a
    one-vertex nonface {v} leaves lk(v) void.  Counts are memoized for the
    call on the nonfaces alone, saturate at cap + 1, and the link is not
    counted once the deletion alone passes the cap."""
    return _count_faces((1 << nvertices) - 1, list(nonfaces), {}, cap)


def _count_faces(ground, nfs, memo, cap):
    """`_face_count` on the vertex mask `ground`, saturating at cap + 1,
    with the counts of the nonface lists seen so far in `memo`."""
    cover = reduce(or_, nfs, 0)
    key = tuple(sorted(nfs))
    got = memo.get(key)
    if got is None:
        if not nfs:
            got = 1
        else:
            bit = cover & -cover
            rest = cover ^ bit
            got = _count_faces(
                rest, [nf for nf in nfs if not nf & bit], memo, cap
            )
            if got <= cap and bit not in nfs:
                got += _count_faces(rest, _link(nfs, bit), memo, cap)
            got = min(got, cap + 1)
        memo[key] = got
    return min(got << (ground & ~cover).bit_count(), cap + 1)


def _reduced_complex_poly(ground, nonfaces):
    """Homology polynomial of the complex on the vertex mask `ground` with
    the given minimal nonfaces, the result of a deletion or a link.

    A one-vertex nonface drops its vertex; then an empty ground set is
    {empty face}, (1,), and a vertex in no nonface is a cone apex, ().
    Otherwise the other nonfaces cover the ground set exactly, and the
    complex is relabelled onto it and looked up (`component_homology_poly`)."""
    rest, covered = [], 0
    for nf in nonfaces:
        if nf & (nf - 1):
            rest.append(nf)
            covered |= nf
        else:
            ground &= ~nf
    if not ground:
        return (1,)
    if ground & ~covered:
        return ()
    return component_homology_poly(*_localize(rest, ground))


def _reduce_by_vertex(nvertices, nonfaces):
    """Homology polynomial of a component by one deletion or link, or None
    when no vertex qualifies.

    Write the complex as del(v) united with star(v), a cone, meeting in
    lk(v); Mayer-Vietoris gives two rules (Barmak-Minian, Strong homotopy
    types, nerves and collapses, DCG 47, 2012; Jonsson, Simplicial
    Complexes of Graphs, LNM 1928).  del(v) keeps the nonfaces avoiding v;
    lk(v) keeps the minimal elements of {N - v} (`_link`).

    - Rule 2: some u != v lies in no nonface avoiding v.  Then del(v) is a
      cone on u and H~_d(complex) = H~_(d-1)(lk v): t * P(lk v).
    - Rule 1: some vertex of lk(v) lies in no minimal nonface of lk(v).
      Then the link is a cone and H~(complex) = H~(del v): P(del v)."""
    full = (1 << nvertices) - 1
    for v in range(nvertices):
        bit = 1 << v
        covered = 0
        for nf in nonfaces:
            if not nf & bit:
                covered |= nf
        if full & ~bit & ~covered:
            poly = _reduced_complex_poly(full & ~bit, _link(nonfaces, bit))
            return (0,) + poly if poly else ()
    for v in range(nvertices):
        bit = 1 << v
        if full & ~bit & ~reduce(or_, _link(nonfaces, bit), 0):
            return _reduced_complex_poly(
                full & ~bit, [nf for nf in nonfaces if not nf & bit]
            )
    return None


# Restrictions and the pieces reductions leave share this memo.  Each run
# alone, criterion 8 (all n <= 6) peaks at 14,036 entries, criterion 1 at
# 15,879.
@lru_cache(maxsize=1 << 15)
def component_homology_poly(nvertices, nonfaces):
    """Homology polynomial of the complex on 0..nvertices-1 with the given
    sorted minimal nonfaces, connected or not, each vertex in some nonface.

    A miss splits it into its nonface components, a join, each relabelled
    (`_localize`) and looked up here.  One component is reduced by one
    deletion or link when some vertex qualifies (`_reduce_by_vertex`), its
    pieces looked up here too; otherwise its faces, or its Alexander
    dual's, are enumerated (`_enumerated_component_poly`).  No capacity
    limit applies: `betti_table_hochster` decides it on the full support."""
    comps = _split_components(nonfaces)
    if len(comps) > 1:
        poly = (1,)  # neutral for the join product
        for comp in comps:
            p = component_homology_poly(*_localize(comp))
            if not p:
                return ()
            poly = _poly_mul(poly, p)
        return poly
    poly = _reduce_by_vertex(nvertices, nonfaces)
    if poly is None:
        poly = _enumerated_component_poly(nvertices, nonfaces)
    return poly


def _split_components(nonfaces):
    """Group nonface masks into connected components (shared vertices) in
    one pass: a nonface meeting no earlier one opens a group, else the
    groups it meets, searched newest first until its shared vertices are
    all found, merge into the oldest.  Components come in the order of
    their first nonface, each in input order."""
    covers, members = [], []
    seen = 0
    for i, nf in enumerate(nonfaces):
        shared = nf & seen
        seen |= nf
        if not shared:
            covers.append(nf)
            members.append([i])
            continue
        g = len(covers) - 1
        while not covers[g] & shared:
            g -= 1
        shared &= ~covers[g]
        covers[g] |= nf
        members[g].append(i)
        h = g
        while shared:
            h -= 1
            if covers[h] & shared:
                shared &= ~covers[h]
                covers[h] |= covers.pop(g)
                members[h] += members.pop(g)
                g = h
    if len(members) == 1:
        return [list(nonfaces)]
    return [[nonfaces[i] for i in sorted(m)] for m in members]


def _localize(nonfaces, support=None):
    """Relabel the bits of `support`, by default the union of a nonface
    group, onto 0..c-1; returns (c, the group's sorted masks)."""
    if support is None:
        support = reduce(or_, nonfaces, 0)
    runs = _runs(support)
    local = []
    for nf in nonfaces:
        m = 0
        for run, shift in runs:
            m |= (nf & run) >> shift
        local.append(m)
    return support.bit_count(), tuple(sorted(local))


# ---------------------------------------------------------------------------
# Engine 2: polarization + Hochster sweep, over the lattice both engines read.
# ---------------------------------------------------------------------------


# Every repeat call reads the ideal just polarized: one `betti_table`
# call reaches it from `_ideal_symmetries`, `_slack_tables`, `lcm_lattice`
# and Hochster.
# Seed-1 benchmark passes: 506 hits of 700 calls on `banerjee_small`,
# 149 of 238 on `vwc_main_theorem`, and a larger cache hits no more.
@lru_cache(maxsize=1)
def polarize(I):
    """Polarized generator supports: (polarized variable count, masks in
    `sorted_gens()` order, last-copy mask).

    Variable v with maximal exponent e_v across generators becomes e_v
    squarefree copies, consecutive bits from an offset; exponent e selects
    the first e copies, one shifted run of e ones.  The last-copy mask
    holds each variable's last copy.  Polarization preserves the graded
    Betti table, and the support size of a polarized generator equals the
    original total degree.  Memoized on the last ideal, so an ideal that
    both engines and `lcm_lattice` read in turn is polarized once.
    """
    gens = I.sorted_gens()
    offsets = []
    total = last = 0
    for e in map(max, zip(*gens)):
        offsets.append(total)
        total += e
        if e:
            last |= 1 << (total - 1)
    masks = []
    for g in gens:
        m = 0
        for e, offset in zip(g, offsets):
            if e:
                m |= ((1 << e) - 1) << offset
        masks.append(m)
    return total, tuple(masks), last


def _union_closure(masks):
    """The unions of every nonempty subset of `masks`, one mask at a time:
    after each mask the set holds every union of the masks so far.

    CapacityError exactly when it has more than LATTICE_CAP elements: the
    masks count like every other union, and the set only grows."""
    seen = set()
    for nf in masks:
        seen |= {w | nf for w in seen}
        seen.add(nf)
        if len(seen) > LATTICE_CAP:
            raise CapacityError(f"lcm lattice exceeded the cap {LATTICE_CAP}")
    return seen


@lru_cache(maxsize=1)
def lcm_lattice(I):
    """The lcm lattice of I as polarized masks, their union closure.
    Memoized on the last ideal, so both engines of one `betti_table` call
    read one build, a frozenset since every caller gets the same object."""
    return frozenset(_union_closure(polarize(I)[1]))


def _over_face_cap(nvertices, nonfaces, cap):
    """Whether the component on 0..nvertices-1 with the given minimal
    nonfaces is certified over `cap` nonempty faces on both routes: the
    nerve of its dual's facets, since the t facets through the busiest
    vertex (the nonfaces avoiding it, all but the fewest any one column
    of the relation holds) span a simplex of 2^t - 1 faces, and the
    complex, by its face count (`_face_count`).  Never when its 2^c - 1
    possible nonempty faces fit the cap."""
    if (1 << nvertices) - 1 <= cap:
        return False
    cols = _transpose(nonfaces, nvertices)
    busiest = len(nonfaces) - min(map(int.bit_count, cols))
    # The empty face is counted too, so the nonempty ones fit the cap
    # exactly when the count is at most cap + 1.
    return (1 << busiest) - 1 > cap and (
        _face_count(nvertices, nonfaces, cap + 1) > cap + 1
    )


def betti_table_hochster(I):
    """Graded Betti table of I via polarization and restriction homology.

    CapacityError, before the lattice is read, at the first component
    of the full support with more than HOCHSTER_MAX_VARS vertices or over
    HOMOLOGY_FACE_CAP (`_over_face_cap`), so an ideal also over the
    lattice cap reports the component.
    """
    _check_ideal(I)
    nonfaces = polarize(I)[1]
    cap = HOMOLOGY_FACE_CAP
    for comp in _split_components(nonfaces):
        c, local = _localize(comp)
        if c > HOCHSTER_MAX_VARS:
            raise CapacityError(
                f"{c} polarized variables exceed the cap {HOCHSTER_MAX_VARS}"
            )
        if _over_face_cap(c, local, cap):
            raise CapacityError(
                f"restricted complex on {c} vertices exceeded the face cap "
                f"{cap} on both the primal and the dual-nerve route"
            )
    entries = {}
    for w in lcm_lattice(I):
        # The nonfaces inside w cover exactly its bits: w is their union.
        inside = [nf for nf in nonfaces if not nf & ~w]
        poly = component_homology_poly(*_localize(inside, w))
        if not poly:
            continue
        j = w.bit_count()
        for e, r in enumerate(poly):
            if r:  # rank of H~_(e-1) of the restriction to w
                entries[(j - e - 1, j)] = entries.get((j - e - 1, j), 0) + r
    return BettiTable(entries, ("hochster",))


# ---------------------------------------------------------------------------
# Engine 1: lcm lattice with interval homology.
# ---------------------------------------------------------------------------


def _slack_tables(I):
    """What `_slack_relation` reads of I, built once per table: the
    polarized masks, the last-copy and first-copy masks, `contains` (for
    each polarized bit, the generators whose masks hold it) and the mask
    of every polarized bit."""
    nbits, masks, last = polarize(I)
    full = (1 << nbits) - 1
    return masks, last, full & (last << 1 | 1), _transpose(masks, nbits), full


def _slack_relation(w, tables):
    """The slack relation of the interval below the lattice element w, as
    (atoms, rows, k), from the tables of its ideal (`_slack_tables`).

    `atoms` masks the indices, in `sorted_gens()` order, of the atoms:
    the generators dividing w's monomial m.  `rows` lists their slack
    masks in index order, each over the k variables of supp(m) in
    variable order, bit j set when the atom's exponent of the j-th
    variable is below m's.

    Both come from the polarized masks alone, whose copies of each
    variable form a prefix.  A generator divides m exactly when its mask
    holds no copy outside w, and one holding a copy of v outside w holds
    the first such copy.  So the non-atoms are the union of `contains`
    over each variable's first copy missing from w: one OR per variable
    that w stops short of.  w's top copies are its bits whose successor
    is outside w or starts the next variable, and an atom's exponent of
    v is below m_v exactly when v's top copy is missing from its mask.
    So its slack row is w's top copies outside its mask, compressed onto
    them (`_runs`)."""
    masks, last, starts, contains, full = tables
    # A copy outside w is its variable's first missing one when it
    # starts the variable or follows a copy in w.
    firsts = full & ~w & (starts | w << 1)
    out = 0
    while firsts:
        low = firsts & -firsts
        out |= contains[low.bit_length() - 1]
        firsts ^= low
    atoms = ((1 << len(masks)) - 1) & ~out
    tops = w & ~(w >> 1 & ~last)
    runs = _runs(tops)
    rows = []
    rest = atoms
    while rest:
        low = rest & -rest
        slack = tops & ~masks[low.bit_length() - 1]
        row = 0
        for run, shift in runs:
            row |= (slack & run) >> shift
        rows.append(row)
        rest ^= low
    return atoms, rows, tops.bit_count()


def _ideal_symmetries(I):
    """Permutations of I's polarized bits, identities left out, that
    generate a group fixing I, read off the graph H of I: vertices the
    variables, an edge uv for each minimal generator with support
    exactly {u, v}.

    A permutation fixing I fixes H, so the generators of Aut(H)
    (`automorphism_generators`, from the canonical-key memo) are the
    candidates.  For I = I(G)^s, H = G: (x_u x_v)^s is a minimal
    generator exactly when uv is an edge, and a generator on {u, v} is a
    product of edges inside it; a colon I^2 : e, edges and squares x_u^2,
    gives its graph.  Each candidate p sends copy c of v to copy c of
    p[v] and is kept only when that maps the set of generator masks onto
    itself.  The map is then a permutation of the bits, even where p
    moves v to a variable with another top exponent: no image has more
    bits than its mask, so each mask keeps its bit count, and every bit
    lies in a mask.  It fixes the polarized ideal, so it permutes the
    lattice and maps each interval onto an isomorphic one.  Any other
    candidate is dropped, so the kept ones span a subgroup of the
    stabilizer, enough for an orbit sum, and a wrong group never reaches
    a table."""
    edges = set()
    for g in I.gens:
        support = [v for v, e in enumerate(g) if e]
        if len(support) == 2:
            edges.add(tuple(support))
    perms = automorphism_generators(Graph(I.nvars, frozenset(edges)))
    if not perms:
        return ()
    nbits, masks, _ = polarize(I)
    tops = list(map(max, zip(*I.gens)))
    offsets = list(accumulate(tops, initial=0))
    identity = list(range(nbits))
    gens = set(masks)
    out = []
    for p in perms:
        bits = [0] * nbits
        for v, image in enumerate(p):
            for c in range(tops[v]):
                bits[offsets[v] + c] = offsets[image] + c
        if bits != identity and (
            {_permute_mask(m, bits) for m in masks} == gens
        ):
            out.append(bits)
    return tuple(out)


def _permute_mask(mask, bits):
    """The image of `mask` under the bit permutation `bits`."""
    image = 0
    while mask:
        low = mask & -mask
        image |= 1 << bits[low.bit_length() - 1]
        mask ^= low
    return image


def _lattice_orbits(lattice, perms):
    """(representative, orbit size) for each orbit of the lattice elements
    under the group the bit permutations `perms` generate, representatives
    in lattice order.  An orbit is walked (`_mask_orbit`) from its first
    member met, and every other member is marked; a mark is dropped once
    reached, since the lattice holds each element once."""
    marked = set()
    for w in lattice:
        if w in marked:
            marked.discard(w)
        else:
            orbit = _mask_orbit(w, perms)
            marked.update(orbit[1:])
            yield w, len(orbit)


def _maximal(masks):
    """The inclusion-maximal masks among `masks`, one copy of each."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in kept:
            if m & k == m:
                break
        else:
            kept.append(m)
    return kept


def _dowker_core(rows, ncols):
    """The core of a relation given by its row masks over `ncols` columns:
    (row masks over the kept columns, renumbered; column masks over the
    kept rows).

    Until neither step applies: drop each row contained in another,
    keeping one copy of equal rows, then each column whose row set lies
    inside another column's.  Either step leaves one side's complex
    unchanged and strongly collapses the other (Barmak-Minian, Strong
    homotopy types, nerves and collapses, DCG 47, 2012): a row inside
    another, or a column inside another, is a dominated vertex.  So the
    core's nerve and the submask complex of its rows keep the homotopy
    type of the relation's two Dowker complexes."""
    while True:
        rows = _maximal(rows)
        cols = _transpose(rows, ncols)
        kept = _maximal(cols)
        if len(kept) == ncols:
            return rows, cols
        ncols = len(kept)
        rows = _transpose(kept, len(rows))


# Each run alone, criterion 8 (all n <= 6) peaks at 2,042 entries and
# criterion 1 at 1,641.
@lru_cache(maxsize=1 << 15)
def _relation_ranks(rows, ncols):
    """Reduced homology of the interval below a lattice element m, from
    its slack relation: the sorted distinct row masks `rows` over the
    `ncols` variables of supp(m).

    The relation is "variable v is slack in atom a" (a_v < m_v); an
    atom's slack mask is its row.  Its two complexes are homotopy
    equivalent (Dowker, Ann. of Math. 56, 1952):

    - the crosscut complex of the interval, vertices the atoms, faces the
      subsets whose lcm is still below m.  A subset's lcm stays below m
      exactly when its slack masks share a variable, so this is the nerve
      of the slack masks: the submasks of the columns, each column the
      mask of the atoms its variable is slack in;
    - the upper Koszul complex K^m(I) = {F in supp(m) : m/x^F in I},
      vertices the variables of m.  An atom a divides m/x^F exactly when
      F is inside slack(a), so the faces are the submasks of the slack
      masks.  Miller-Sturmfels, Combinatorial Commutative Algebra,
      Thm 1.34: beta_{i,m}(I) = rank H~_{i-1}(K^m(I)).

    Equal relations give equal complexes, so the key holds no monomial
    and hits across intervals and across ideals; equal atoms give equal
    relations, so it hits wherever a key on the atoms would.  A miss
    reduces the relation to its Dowker core (`_dowker_core`): an atom
    whose slack mask lies inside another's, and a variable whose atoms
    lie inside another variable's, are dominated vertices of one complex
    and leave the other unchanged.  The core's homology is memoized in
    turn (`_core_ranks`).  Neither complex is Hochster's: K^m lives on
    the unpolarized support of m, and for squarefree m it is the
    Alexander dual of the restriction Hochster's engine builds."""
    core, cols = _dowker_core(rows, ncols)
    return _core_ranks(tuple(sorted(core)), len(cols))


# Each run alone, criterion 8 peaks at 310 entries and criterion 1 at 69.
# Most relation-memo misses share a core: building the core's faces on
# every miss instead, seed-1 `vwc_main_theorem` takes 0.132 s a pass on a
# 2-CPU host against 0.118 s, and `banerjee_small` 0.296 s against 0.285 s.
@lru_cache(maxsize=1 << 12)
def _core_ranks(rows, ncols):
    """Reduced homology of the Dowker complexes of a core, given by its
    sorted row masks over `ncols` columns.

    One enumerator builds either complex of the core (`_submask_faces`):
    K^m from its rows when it has fewer columns than rows, else the nerve
    from its columns.  No face cap applies: the built side has at most
    LCM_MAX_GENERATORS vertices."""
    side = rows if ncols < len(rows) else _transpose(rows, ncols)
    return reduced_homology_ranks(_submask_faces(side))


def betti_table_lcm(I):
    """Graded Betti table of I via lcm-lattice interval homology: beta_{i,j}
    sums the ranks of H~_(i-1) over the intervals below the lattice
    elements of degree j, w's bit count.

    The bit permutations fixing I that `_ideal_symmetries` finds, such as
    those of Aut(G) for I = I(G)^s, map the interval below w onto the
    interval below its image, of the same degree and with the same
    homology (Gasharov-Peeva-Welker, The lcm-lattice in monomial
    resolutions, Math. Res. Lett. 6, 1999).  So the sum reads one
    relation per orbit of the lattice under the group they generate and
    weights its ranks by the orbit's size.  They are sought only once the
    generator cap and the lattice cap have passed, so an ideal over
    either never searches its graph.  Without them every element is
    read, and no orbit is walked.  Hochster keeps its full sweep, so
    wherever both engines answer (`betti_table`), an orbit walked wrong
    shows as an EngineDisagreement, not a wrong table."""
    _check_ideal(I)
    if len(I.gens) > LCM_MAX_GENERATORS:
        raise CapacityError(
            f"{len(I.gens)} generators exceed the lcm generator cap "
            f"{LCM_MAX_GENERATORS}"
        )
    lattice = lcm_lattice(I)
    perms = _ideal_symmetries(I)
    orbits = _lattice_orbits(lattice, perms) if perms else (
        (w, 1) for w in lattice
    )
    tables = _slack_tables(I)
    entries = {}
    for w, size in orbits:
        _, rows, k = _slack_relation(w, tables)
        j = w.bit_count()
        for d, r in _relation_ranks(tuple(sorted(set(rows))), k).items():
            i = d + 1
            entries[(i, j)] = entries.get((i, j), 0) + r * size
    return BettiTable(entries, ("lcm",))


# ---------------------------------------------------------------------------
# The engine rule.
# ---------------------------------------------------------------------------


def betti_table(I):
    """Betti table of I from both engines, each that fits its limits.

    When both answer, their tables must agree entrywise, else
    EngineDisagreement; CapacityError only when both refuse.  The returned
    table records the engines that answered in `engines`.  The lcm engine
    sums over the orbits of I's own symmetries (`betti_table_lcm`);
    Hochster sweeps every element, so a two-engine answer referees the
    orbit sum.  A single engine is `betti_table_lcm` or
    `betti_table_hochster` itself.
    """
    tables, names, errors = [], [], []
    # The engines are looked up at call time, so rebinding the module
    # attributes reaches every engine run.
    for name, engine in (
        ("lcm", betti_table_lcm), ("hochster", betti_table_hochster)
    ):
        try:
            tables.append(engine(I))
        except CapacityError as exc:
            errors.append(str(exc))
        else:
            names.append(name)
    if not tables:
        raise CapacityError("both engines over capacity: " + "; ".join(errors))
    if len(tables) == 2 and tables[0] != tables[1]:
        raise EngineDisagreement(I, *tables)
    return BettiTable(tables[0].entries, tuple(names))


# Each entry holds a whole ideal.  Criterion 8 (all n <= 6) peaks at 568
# entries, criterion 1 at 62.
@lru_cache(maxsize=1 << 12)
def regularity(I):
    """reg(I) = max{j - i} over the entries of betti_table(I), memoized on
    I; `cache_info` and `cache_clear` read the memo."""
    return betti_table(I).regularity()
