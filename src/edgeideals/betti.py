"""Graded Betti numbers and Castelnuovo-Mumford regularity of monomial
ideals, by two independent engines that validate each other.

Engine 1 (lcm lattice): each graded Betti number of the ideal is the
reduced homology rank, one dimension down, of the open interval below a
lattice element.  The interval homology is computed through the crosscut
complex on the interval's atoms (the minimal generators dividing the
element), which is homotopy equivalent to the interval's order complex and
exponentially smaller.

Engine 2 (polarization + Hochster): polarize to a squarefree ideal, then
sum reduced homology ranks of vertex-subset restrictions of its
Stanley-Reisner complex.  Only subsets that are unions of minimal nonfaces
can carry homology (anything else restricts to a cone), so the sweep runs
over the union closure of the generator supports.  Restrictions decompose
as joins over connected components of their nonfaces, and component
homology is memoized globally.

Tables are indexed on the ideal I, not R/I: reg(I) = reg(R/I) + 1.
Everything is over the rationals via exact integer ranks.

Both engines enforce explicit capacity caps and raise CapacityError rather
than degrade silently.  `betti_table` runs each requested engine that fits
its caps and requires the tables to agree when two answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import monomials as mon
from .homology import faces_from_nonfaces, reduced_homology_ranks


class CapacityError(RuntimeError):
    """A computation exceeded its configured desk-scale cap."""


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


@dataclass(frozen=True)
class Caps:
    """Capacity limits for the resolution engines."""

    lcm_max_generators: int = 16
    lcm_lattice_cap: int = 5000
    lcm_face_cap: int = 70000
    hochster_max_vars: int = 24
    hochster_max_gens: int = 150
    hochster_union_cap: int = 80000
    homology_face_cap: int = 30000


DEFAULT_CAPS = Caps()


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

    def projective_dimension(self):
        return max(i for i, _ in self.entries)

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
# Homology polynomials of complexes-with-nonfaces, shared by both engines.
#
# A complex is encoded as P(t) = sum_d rank(H~_d) * t^(d+1), so that the
# join of two complexes has polynomial P1 * P2 and a contractible factor
# kills the product.
# ---------------------------------------------------------------------------

# Keyed on the face cap too: whether a component fits depends on it.
_component_memo = {}


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


def _nerve_faces(facets, full, cap):
    """Nonempty faces of the nerve of a cover by simplices: subsets of
    facets with nonzero common intersection.  Intersections only shrink
    along the DFS, so zero-intersection branches are pruned whole."""
    k = len(facets)
    faces = []

    def extend(start, inter, mask):
        for j in range(start, k):
            inter2 = inter & facets[j]
            if not inter2:
                continue
            m2 = mask | (1 << j)
            faces.append(m2)
            if cap is not None and len(faces) > cap:
                raise OverflowError("nerve face cap exceeded")
            extend(j + 1, inter2, m2)

    extend(0, full, 0)
    return faces


def component_homology_poly(nvertices, nonfaces, caps=DEFAULT_CAPS):
    """Homology polynomial of the complex on 0..nvertices-1 with the given
    minimal nonfaces, every vertex lying in at least one nonface.

    Chooses between direct face enumeration and the Alexander-dual complex
    (faces = subsets of nonface complements), whichever is smaller; over
    the rationals H~_d(complex) = H~_(n-d-3)(dual).
    """
    key = (nvertices, nonfaces, caps.homology_face_cap)
    hit = _component_memo.get(key)
    if hit is not None:
        return hit
    full = (1 << nvertices) - 1
    if nvertices <= 12:
        faces = faces_from_nonfaces(nvertices, nonfaces, cap=None)
        ranks = reduced_homology_ranks(faces)
    else:
        # Alexander-dual route: the dual complex is the union of the
        # simplices on the nonface complements.  Its homotopy type is the
        # nerve of that cover (simplices intersect in simplices, which
        # are empty or contractible), a complex with one vertex per
        # nonface; H~_d(primal) = H~_(n-d-3)(dual) over the rationals.
        # The nerve DFS prunes the moment an intersection empties, so the
        # cost is proportional to the nerve's actual face count.
        facets = [full ^ nf for nf in nonfaces if full ^ nf]
        try:
            nerve = _nerve_faces(facets, full, caps.homology_face_cap)
            dual = reduced_homology_ranks(nerve)
            ranks = {nvertices - 3 - d: r for d, r in dual.items()}
        except OverflowError:
            try:
                faces = faces_from_nonfaces(
                    nvertices, nonfaces, cap=caps.homology_face_cap
                )
            except OverflowError:
                raise CapacityError(
                    f"restricted complex on {nvertices} vertices exceeded "
                    f"the face cap {caps.homology_face_cap} on both the "
                    f"primal and the dual-nerve route"
                ) from None
            ranks = reduced_homology_ranks(faces)
    poly = _ranks_to_poly(ranks)
    _component_memo[key] = poly
    return poly


def _split_components(nonfaces):
    """Group nonface masks into connected components (shared vertices)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vertex_root = {}
    roots = {}
    for nf in nonfaces:
        parent.setdefault(nf, nf)
        rem = nf
        while rem:
            bit = rem & -rem
            v = bit.bit_length() - 1
            rem ^= bit
            if v in vertex_root:
                ra, rb = find(nf), find(vertex_root[v])
                if ra != rb:
                    parent[ra] = rb
            else:
                vertex_root[v] = nf
    comps = {}
    for nf in nonfaces:
        comps.setdefault(find(nf), []).append(nf)
    return list(comps.values())


def _localize(nonfaces):
    """Relabel the vertices of a nonface group to 0..c-1; returns (c, masks)."""
    union = 0
    for nf in nonfaces:
        union |= nf
    verts = []
    rem = union
    while rem:
        bit = rem & -rem
        verts.append(bit.bit_length() - 1)
        rem ^= bit
    pos = {v: i for i, v in enumerate(verts)}
    local = []
    for nf in nonfaces:
        m = 0
        r = nf
        while r:
            bit = r & -r
            m |= 1 << pos[bit.bit_length() - 1]
            r ^= bit
        local.append(m)
    return len(verts), tuple(sorted(local))


def restriction_homology_poly(nonfaces, caps=DEFAULT_CAPS):
    """Homology polynomial of the complex whose minimal nonfaces are the
    given masks, on exactly the vertices those masks cover; factors over
    connected components (joins multiply homology polynomials)."""
    poly = (1,)  # neutral for the join product
    for comp in _split_components(nonfaces):
        c, local = _localize(comp)
        p = component_homology_poly(c, local, caps)
        if not p:
            return ()
        poly = _poly_mul(poly, p)
    return poly


# ---------------------------------------------------------------------------
# Engine 2: polarization + Hochster restriction sweep.
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


def _union_closure(masks, cap):
    seen = set(masks)
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for nf in masks:
                u = w | nf
                if u not in seen:
                    seen.add(u)
                    if len(seen) > cap:
                        raise CapacityError(
                            f"union closure exceeded the cap {cap}"
                        )
                    new.append(u)
        frontier = new
    return seen


def betti_table_hochster(I, caps=DEFAULT_CAPS):
    """Graded Betti table of I via polarization and restriction homology."""
    _check_ideal(I)
    if len(I.gens) > caps.hochster_max_gens:
        raise CapacityError(
            f"{len(I.gens)} generators exceed the Hochster generator cap "
            f"{caps.hochster_max_gens}"
        )
    npol, nonfaces = polarize(I)
    if npol > caps.hochster_max_vars:
        raise CapacityError(
            f"{npol} polarized variables exceed the cap "
            f"{caps.hochster_max_vars}"
        )
    unions = _union_closure(nonfaces, caps.hochster_union_cap)
    entries = {}
    for w in unions:
        nfs = tuple(nf for nf in nonfaces if not (nf & ~w))
        poly = restriction_homology_poly(nfs, caps)
        if not poly:
            continue
        j = bin(w).count("1")
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
# Engine 1: lcm lattice with crosscut interval homology.
# ---------------------------------------------------------------------------


def lcm_lattice(I, cap=DEFAULT_CAPS.lcm_lattice_cap):
    """All least common multiples of nonempty generator subsets."""
    gens = I.sorted_gens()
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                u = mon.lcm(m, g)
                if u not in seen:
                    seen.add(u)
                    if len(seen) > cap:
                        raise CapacityError(
                            f"lcm lattice exceeded the cap {cap}"
                        )
                    new.append(u)
        frontier = new
    return seen


# Keyed on the face cap too: whether an interval fits depends on it.
_interval_memo = {}


def _crosscut_ranks(atoms, m, caps):
    """Reduced homology of the crosscut complex of the interval below m:
    vertices are the generators dividing m, faces the subsets whose lcm is
    still below m.  Homotopy equivalent to the interval's order complex.

    A subset's lcm stays below m exactly when some variable has exponent
    below m's in every atom, so the complex is the nerve of the atoms'
    slack masks (the variables where the atom is below m)."""
    key = (atoms, caps.lcm_face_cap)
    hit = _interval_memo.get(key)
    if hit is not None:
        return hit
    slack = [
        sum(1 << v for v, (a, e) in enumerate(zip(atom, m)) if a < e)
        for atom in atoms
    ]
    try:
        faces = _nerve_faces(slack, (1 << len(m)) - 1, caps.lcm_face_cap)
    except OverflowError:
        raise CapacityError(
            f"crosscut complex exceeded the face cap {caps.lcm_face_cap}"
        ) from None
    ranks = reduced_homology_ranks(faces)
    _interval_memo[key] = ranks
    return ranks


def betti_table_lcm(I, caps=DEFAULT_CAPS):
    """Graded Betti table of I via lcm-lattice interval homology."""
    _check_ideal(I)
    if len(I.gens) > caps.lcm_max_generators:
        raise CapacityError(
            f"{len(I.gens)} generators exceed the lcm-lattice cap "
            f"{caps.lcm_max_generators}; use the Hochster engine"
        )
    gens = I.sorted_gens()
    entries = {}
    for m in lcm_lattice(I, caps.lcm_lattice_cap):
        atoms = tuple(g for g in gens if mon.divides(g, m))
        ranks = _crosscut_ranks(atoms, m, caps)
        j = mon.degree(m)
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


def betti_table(I, engines=("lcm", "hochster"), caps=DEFAULT_CAPS):
    """Betti table of I from every listed engine that fits within caps.

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
            tables[name] = fn(I, caps)
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


_reg_cache = {}


def regularity(I, engines=("lcm", "hochster"), caps=DEFAULT_CAPS):
    """reg(I) = max{j - i} over the entries of betti_table(I, engines, caps);
    memoized under the default caps."""
    _check_engines(engines)
    key = (I, engines) if caps is DEFAULT_CAPS else None
    if key is not None and key in _reg_cache:
        return _reg_cache[key]
    reg = betti_table(I, engines, caps).regularity()
    if key is not None:
        _reg_cache[key] = reg
    return reg
