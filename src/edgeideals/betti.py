"""Graded Betti numbers and Castelnuovo-Mumford regularity of monomial
ideals, by two engines that validate each other.

Both engines sum over the lcm lattice.  Polarization maps it one to one
onto the unions of the polarized generator masks: a union is the lcm's
polarization, a generator divides m exactly when its mask lies inside
m's, and a mask's bit count is the degree.  So `_union_closure` lists the
lattice for both engines, which also share the homology kernel and
`_submask_faces`; each computes an element's homology by its own route.

Engine 1 (lcm lattice): each graded Betti number of the ideal is the
reduced homology rank, one dimension down, of the open interval below a
lattice element m.  The relation "variable v is slack in atom a" (a_v <
m_v, over the interval's atoms, the minimal generators dividing m) is a
Dowker pair with two homotopy equivalent complexes: the crosscut complex
on the atoms (the nerve of the slack masks, homotopy equivalent to the
interval's order complex) and the upper Koszul complex K^m(I) on the
variables of m (Miller-Sturmfels, Thm 1.34).  Each interval first
reduces the relation to its Dowker core, dropping rows inside other rows
and columns inside other columns, strong collapses that keep both
homotopy types, then builds whichever complex of the core has fewer
vertices; on a tie, the crosscut complex.  Both are submask complexes,
K^m of the core's rows and the nerve of its columns (atoms form a face
exactly when some variable is slack in all of them), so `_submask_faces`
builds either, and with at most LCM_MAX_GENERATORS vertices it needs no
face cap.  The interval homology stays independent of Hochster: it works
on the unpolarized support of m, while Hochster restricts the polarized
Stanley-Reisner complex, and for squarefree m, K^m is the Alexander dual
of Hochster's restriction.

Engine 2 (polarization + Hochster): polarize to a squarefree ideal, then
sum reduced homology ranks of vertex-subset restrictions of its
Stanley-Reisner complex.  Only subsets that are unions of minimal nonfaces
can carry homology (anything else restricts to a cone), so the sweep runs
over the union closure of the generator supports.  Restrictions decompose
as joins over connected components of their nonfaces, and component
homology is memoized globally.  Every component, whatever its size, is
first reduced from its nonface list, without listing a face: when the
deletion of some vertex is a cone, its polynomial is t times the link's;
when the link is a cone, it is the deletion's.  The pieces recurse
through the same memo.  Only a component where no vertex qualifies has its
faces enumerated, on whichever of its complex and its Alexander dual has
fewer (the two have 2^c between them, and an exact face count of the
complex, stopped at half, picks the side).  The lcm engine reduces by
strong collapses on its own relation, a different theorem on a different
complex from deletion and link, and still enumerates the faces of the
core's complex, so wherever both engines answer, the reductions are
checked against an independent route.

Hochster decides capacity once, on the components of the full support,
before the union closure is built.  HOCHSTER_MAX_VARS bounds a
component's vertices, and with them the depth of the reductions and of
the face count, one level per vertex, and the side that
`_enumerated_component_poly` builds, at most 2^(c-1) faces.
HOMOLOGY_FACE_CAP is a certified test, not an enumeration bound: a
component is over it only where both the nerve of its dual's facets and
the complex itself are certified over the cap (`_over_face_cap`).  Both
certified counts, and the vertex count, only shrink under deletion, link
and splitting into components, and every restriction is a deletion of
the full support, so once the full support passes, no component that the
sweep or a reduction reaches could fail either test.

Tables are indexed on the ideal I, not R/I: reg(I) = reg(R/I) + 1.
Everything is over the rationals via exact integer ranks.

Both engines enforce the fixed capacity limits below and raise
CapacityError rather than degrade silently.  `betti_table` runs each
requested engine that fits its limits and requires the tables to agree
when two answer.

The component, interval and regularity memos are bounded `lru_cache`s, so
their hits are readable from `cache_info()`.
"""

from __future__ import annotations

from functools import lru_cache

from . import monomials as mon
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


# Capacity limits, read at call time.  No lcm face cap is needed: the side
# built has at most LCM_MAX_GENERATORS vertices, so at most 2^16 - 1 faces.
LCM_MAX_GENERATORS = 16
LCM_LATTICE_CAP = 5000
HOCHSTER_MAX_VARS = 24  # per component of the full support
HOCHSTER_UNION_CAP = 80000
HOMOLOGY_FACE_CAP = 30000


class BettiTable:
    """Map (homological degree i, internal degree j) -> positive rank.

    `engines` names the engines that answered with this table; equality
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
# enumerator shared by both engines: the lcm engine runs `_submask_faces`
# on the rows or the columns of an interval's Dowker core, Hochster on the
# nonface complements of a component (its Alexander dual).
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
    every nonempty submask of one of them.  Larger masks go first, so a
    mask already listed lies inside an enumerated simplex and is skipped."""
    faces = set()
    for s in sorted(masks, key=int.bit_count, reverse=True):
        if s in faces:
            continue
        sub = s
        while sub:
            faces.add(sub)
            sub = (sub - 1) & s
    return list(faces)


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
    dual_ranks = reduced_homology_ranks(dual)
    return _ranks_to_poly(
        {nvertices - 3 - d: r for d, r in dual_ranks.items()}
    )


def _minimal(masks):
    """The inclusion-minimal masks among `masks`."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


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
    cover = 0
    for nf in nfs:
        cover |= nf
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
                got += _count_faces(
                    rest, _minimal([nf & ~bit for nf in nfs]), memo, cap
                )
            got = min(got, cap + 1)
        memo[key] = got
    return min(got << (ground & ~cover).bit_count(), cap + 1)


def _reduced_complex_poly(ground, nonfaces):
    """Homology polynomial of the complex on the vertex mask `ground` with
    the given minimal nonfaces, the result of a deletion or a link.

    A one-vertex nonface drops its vertex; then an empty ground set is
    {empty face}, (1,), and a vertex in no nonface is a cone apex, ().
    Otherwise the complex is the join of its nonface components, each
    computed through the memoized `component_homology_poly`."""
    rest = []
    for nf in nonfaces:
        if nf & (nf - 1):
            rest.append(nf)
        else:
            ground &= ~nf
    if not ground:
        return (1,)
    covered = 0
    for nf in rest:
        covered |= nf
    if ground & ~covered:
        return ()
    return restriction_homology_poly(tuple(rest))


def _reduce_by_vertex(nvertices, nonfaces):
    """Homology polynomial of a component by one deletion or link, or None
    when no vertex qualifies.

    Write the complex as del(v) united with star(v), a cone, meeting in
    lk(v); Mayer-Vietoris gives two rules (Barmak-Minian, Strong homotopy
    types, nerves and collapses, DCG 47, 2012; Jonsson, Simplicial
    Complexes of Graphs, LNM 1928).  del(v) keeps the nonfaces avoiding v;
    lk(v) keeps the minimal elements of {N - v}.

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
            link = _minimal([nf & ~bit for nf in nonfaces])
            poly = _reduced_complex_poly(full & ~bit, link)
            return (0,) + poly if poly else ()
    for v in range(nvertices):
        bit = 1 << v
        link = _minimal([nf & ~bit for nf in nonfaces])
        covered = 0
        for nf in link:
            covered |= nf
        if full & ~bit & ~covered:
            return _reduced_complex_poly(
                full & ~bit, [nf for nf in nonfaces if not nf & bit]
            )
    return None


# Components and the pieces the reductions leave share this memo.
# Each run alone, criterion 8 (all n <= 6) peaks at 14,229 entries and
# criterion 1 at 15,508.
@lru_cache(maxsize=1 << 15)
def component_homology_poly(nvertices, nonfaces):
    """Homology polynomial of the complex on 0..nvertices-1 with the given
    minimal nonfaces, every vertex lying in at least one nonface.

    One deletion or link reduces the component to smaller ones, memoized
    here too, when some vertex qualifies (`_reduce_by_vertex`); otherwise
    its faces, or its Alexander dual's, are enumerated
    (`_enumerated_component_poly`).  No capacity limit applies here:
    `betti_table_hochster` decides capacity on the full support before any
    component is computed.
    """
    poly = _reduce_by_vertex(nvertices, nonfaces)
    if poly is None:
        poly = _enumerated_component_poly(nvertices, nonfaces)
    return poly


def _split_components(nonfaces):
    """Group nonface masks into connected components (shared vertices):
    each grows from the first nonface not yet grouped until its vertex
    cover stops growing.  Components come in the order of their first
    nonface, each in input order."""
    comps = []
    rest = nonfaces
    while rest:
        cover = rest[0]
        while True:
            comp = [nf for nf in rest if nf & cover]
            grown = 0
            for nf in comp:
                grown |= nf
            if grown == cover:
                break
            cover = grown
        comps.append(comp)
        rest = [nf for nf in rest if not nf & cover]
    return comps


def _localize(nonfaces):
    """Relabel the vertices of a nonface group to 0..c-1; returns (c, masks)."""
    union = 0
    for nf in nonfaces:
        union |= nf
    # Each run of consecutive vertices moves down past the gaps below it.
    runs = []
    c = 0
    rem = union
    while rem:
        low = rem & -rem
        run = ((rem + low) & ~rem) - low
        runs.append((run, low.bit_length() - 1 - c))
        c += run.bit_count()
        rem ^= run
    local = []
    for nf in nonfaces:
        m = 0
        for run, shift in runs:
            m |= (nf & run) >> shift
        local.append(m)
    return c, tuple(sorted(local))


def restriction_homology_poly(nonfaces):
    """Homology polynomial of the complex whose minimal nonfaces are the
    given masks, on exactly the vertices those masks cover; factors over
    connected components (joins multiply homology polynomials)."""
    poly = (1,)  # neutral for the join product
    for comp in _split_components(nonfaces):
        c, local = _localize(comp)
        p = component_homology_poly(c, local)
        if not p:
            return ()
        poly = _poly_mul(poly, p)
    return poly


# ---------------------------------------------------------------------------
# Engine 2: polarization + Hochster sweep; `_union_closure` serves both.
# ---------------------------------------------------------------------------


def polarize(I):
    """Polarized generator supports: (polarized variable count, masks).

    Variable v with maximal exponent e_v across generators becomes e_v
    squarefree copies; exponent e selects the first e copies.  Polarization
    preserves the graded Betti table, and the support size of a polarized
    generator equals the original total degree.
    """
    gens = I.sorted_gens()
    maxexp = [0] * I.nvars
    for g in gens:
        for v, e in enumerate(g):
            if e > maxexp[v]:
                maxexp[v] = e
    offsets = [0] * I.nvars
    total = 0
    for v in range(I.nvars):
        offsets[v] = total
        total += maxexp[v]
    masks = []
    for g in gens:
        m = 0
        for v, e in enumerate(g):
            for c in range(e):
                m |= 1 << (offsets[v] + c)
        masks.append(m)
    return total, masks


def _union_closure(masks, cap, name):
    """The unions of every nonempty subset of `masks`, one mask at a time:
    after each mask the set holds every union of the masks so far.

    Raises CapacityError, naming the closure `name`, exactly when it has
    more than `cap` elements.  The masks themselves count toward the cap
    like every other union, and the set only grows, so checking after each
    mask suffices."""
    seen = set()
    for nf in masks:
        seen |= {w | nf for w in seen}
        seen.add(nf)
        if len(seen) > cap:
            raise CapacityError(f"{name} exceeded the cap {cap}")
    return seen


def _over_face_cap(nvertices, nonfaces, cap):
    """Whether the component on 0..nvertices-1 with the given minimal
    nonfaces is certified over `cap` nonempty faces on both routes: the
    nerve of its dual's facets, since the t facets through the busiest
    vertex (the nonfaces avoiding it) span a simplex of 2^t - 1 faces, and
    the complex, by its exact face count (`_face_count`).  Never when its
    2^c - 1 possible nonempty faces fit the cap."""
    if (1 << nvertices) - 1 <= cap:
        return False
    busiest = max(
        sum(not nf >> v & 1 for nf in nonfaces) for v in range(nvertices)
    )
    # The empty face is counted too, so the nonempty ones fit the cap
    # exactly when the count is at most cap + 1.
    return (1 << busiest) - 1 > cap and (
        _face_count(nvertices, nonfaces, cap + 1) > cap + 1
    )


def betti_table_hochster(I):
    """Graded Betti table of I via polarization and restriction homology.

    CapacityError, before the union closure is built, at the first
    component of the full support with more than HOCHSTER_MAX_VARS
    vertices or over HOMOLOGY_FACE_CAP (`_over_face_cap`), so an ideal
    also over the union cap reports the component.
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
    unions = _union_closure(nonfaces, HOCHSTER_UNION_CAP, "union closure")
    entries = {}
    for w in unions:
        nfs = tuple(nf for nf in nonfaces if not (nf & ~w))
        poly = restriction_homology_poly(nfs)
        if not poly:
            continue
        j = w.bit_count()
        for e, r in enumerate(poly):
            if not r:
                continue
            d = e - 1
            i = j - d - 2
            if i < 0:
                raise AssertionError("negative homological degree")
            entries[(i, j)] = entries.get((i, j), 0) + r
    return BettiTable(entries)


# ---------------------------------------------------------------------------
# Engine 1: lcm lattice with interval homology.
# ---------------------------------------------------------------------------


def lcm_lattice(I):
    """The lcm lattice of I as polarized masks, Hochster's union closure
    of the same ideal, under LCM_LATTICE_CAP."""
    return _union_closure(polarize(I)[1], LCM_LATTICE_CAP, "lcm lattice")


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


# Criterion 8 (all n <= 6) peaks at 6,886 entries, criterion 1 at 3,468.
@lru_cache(maxsize=1 << 15)
def _crosscut_ranks(atoms):
    """Reduced homology of the interval below m = lcm(atoms), from
    whichever side of a Dowker pair has fewer vertices.

    The relation is "variable v is slack in atom a" (a_v < m_v); an atom's
    slack mask is its row.  Its two complexes are homotopy equivalent
    (Dowker, Ann. of Math. 56, 1952):

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

    The relation is first reduced to its Dowker core (`_dowker_core`):
    an atom whose slack mask lies inside another's, and a variable whose
    atoms (those it is slack in) lie inside another variable's, are
    dominated vertices of one complex and leave the other unchanged.  One
    enumerator builds either complex of the core: K^m from its rows when
    the core has fewer variables than atoms, else the nerve from its
    columns.  No face cap applies: the built side has at most
    LCM_MAX_GENERATORS vertices.  Neither complex is Hochster's: K^m lives
    on the unpolarized support of m, and for squarefree m it is the
    Alexander dual of the restriction Hochster's engine builds.  Keyed on
    the atoms alone: a lattice element is the lcm of the generators
    dividing it, so the atoms determine m."""
    m = tuple(map(max, zip(*atoms)))
    slack = [
        sum(1 << v for v, (a, e) in enumerate(zip(atom, m)) if a < e)
        for atom in atoms
    ]
    rows, cols = _dowker_core(slack, len(m))
    faces = _submask_faces(rows if len(cols) < len(rows) else cols)
    return reduced_homology_ranks(faces)


def betti_table_lcm(I):
    """Graded Betti table of I via lcm-lattice interval homology.  The
    atoms of a lattice mask w are the generators whose polarized masks lie
    inside w, in `sorted_gens()` order; its degree is w's bit count."""
    _check_ideal(I)
    if len(I.gens) > LCM_MAX_GENERATORS:
        raise CapacityError(
            f"{len(I.gens)} generators exceed the lcm-lattice cap "
            f"{LCM_MAX_GENERATORS}; use the Hochster engine"
        )
    gens = I.sorted_gens()
    masks = polarize(I)[1]
    entries = {}
    for w in lcm_lattice(I):
        atoms = tuple(g for g, a in zip(gens, masks) if not a & ~w)
        ranks = _crosscut_ranks(atoms)
        j = w.bit_count()
        for d, r in ranks.items():
            i = d + 1
            entries[(i, j)] = entries.get((i, j), 0) + r
    return BettiTable(entries)


# ---------------------------------------------------------------------------
# The engine rule.
# ---------------------------------------------------------------------------


def _check_engines(engines):
    if engines not in (("lcm",), ("hochster",), ("lcm", "hochster")):
        raise ValueError(
            f"engines must be ('lcm',), ('hochster',) or "
            f"('lcm', 'hochster'), not {engines!r}"
        )


def betti_table(I, engines=("lcm", "hochster")):
    """Betti table of I from every listed engine that fits its limits.

    Tables from two engines must agree entrywise, else EngineDisagreement.
    CapacityError only when no listed engine fits.  The returned table
    records the engines that answered in `engines`.
    """
    _check_engines(engines)
    _check_ideal(I)
    tables, errors = {}, []
    for name in engines:
        # Looked up at call time, so rebinding the module attributes
        # reaches every engine run.
        fn = betti_table_lcm if name == "lcm" else betti_table_hochster
        try:
            tables[name] = fn(I)
        except CapacityError as exc:
            errors.append(exc)
    if not tables:
        if len(errors) == 1:
            raise errors[0]
        raise CapacityError(
            "both engines over capacity: " + "; ".join(map(str, errors))
        )
    if len(tables) == 2 and tables["lcm"] != tables["hochster"]:
        raise EngineDisagreement(I, tables["lcm"], tables["hochster"])
    table = next(iter(tables.values()))
    table.engines = tuple(tables)
    return table


# Each entry holds a whole ideal.  Criterion 8 (all n <= 6) peaks at 736
# entries, criterion 1 at 62.
@lru_cache(maxsize=1 << 12)
def regularity(I):
    """reg(I) = max{j - i} over the entries of betti_table(I)."""
    return betti_table(I).regularity()
