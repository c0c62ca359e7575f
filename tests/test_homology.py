"""Homology engine tests: ranks against Fraction Gaussian elimination,
homology against known spaces, and faces from minimal nonfaces against
brute force."""

import itertools
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeideals.homology import (
    faces_from_nonfaces,
    matrix_rank_exact,
    reduced_homology_ranks,
)


def mask(verts):
    return sum(1 << v for v in verts)


def closure_masks(facets):
    """All nonempty faces (as bitmasks) of the complex with these facets."""
    faces = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            faces.update(mask(c) for c in itertools.combinations(f, r))
    return faces


def fraction_rank(rows):
    """Plain dense Gaussian elimination over Q as an independent oracle.

    `rows` is the same sparse {column: value} format matrix_rank_exact takes.
    """
    cols = sorted({c for r in rows for c in r})
    cindex = {c: i for i, c in enumerate(cols)}
    mat = [
        [Fraction(r.get(c, 0)) for c in cols]
        for r in rows
    ]
    rank = 0
    for col in range(len(cols)):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def fraction_boundary_rank(lower_faces, upper_faces):
    """`boundary_rank` by the Fraction oracle: the same signed boundary
    matrix, ranked by dense elimination over Q."""
    index = {f: i for i, f in enumerate(lower_faces)}
    rows = []
    for f in upper_faces:
        bits = [b for b in range(f.bit_length()) if f >> b & 1]
        rows.append(
            {index[f ^ (1 << b)]: (-1) ** k for k, b in enumerate(bits)}
        )
    return fraction_rank(rows)


def ranks_without_collapse(faces, rank):
    """Reduced homology of a closed complex from the ranks of its boundary
    maps, each ranked by `rank`: with `fraction_boundary_rank`, an oracle
    that shares no code with `reduced_homology_ranks`."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    if not by_dim:
        return {-1: 1}
    top = max(by_dim)
    counts = {d: len(fs) for d, fs in by_dim.items()}
    ranks = {0: 1}  # augmentation onto the empty face
    for d in range(1, top + 1):
        ranks[d] = rank(
            sorted(by_dim.get(d - 1, [])), sorted(by_dim.get(d, []))
        )
    hom = {}
    for d in range(0, top + 1):
        h = counts.get(d, 0) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            hom[d] = h
    return hom


def boundary_sphere(k):
    """Facets of the boundary of a (k+1)-simplex: a k-sphere on k+2 verts."""
    return list(itertools.combinations(range(k + 2), k + 1))


def random_face_set(rng, nmax=7):
    n = rng.randint(2, nmax)
    facets = [
        tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
        for _ in range(rng.randint(1, 7))
    ]
    return closure_masks(facets)


# Sparse integer matrices: at most 12 rows over at most 12 columns, at
# most 4 nonzero entries a row, entries -4..4.
sparse_matrices = st.integers(1, 12).flatmap(
    lambda ncols: st.lists(
        st.dictionaries(
            st.integers(0, ncols - 1),
            st.integers(-4, 4).filter(bool),
            max_size=4,
        ),
        max_size=12,
    )
)


class TestExactRank:
    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices)
    @example([{0: 2, 1: 1}, {0: 1, 1: 2}])  # no unit pivot
    @example([{1: -2, 0: 1}, {1: 3}])  # a negative pivot, scaled by 2
    def test_sparse_against_fraction_oracle(self, rows):
        before = [dict(r) for r in rows]
        assert matrix_rank_exact(rows) == fraction_rank(rows)
        assert rows == before  # the input is left unchanged

    def test_against_fraction_oracle(self):
        rng = random.Random(5)
        for _ in range(80):
            rows = [
                {
                    c: rng.randint(-3, 3)
                    for c in rng.sample(range(6), rng.randint(0, 6))
                    if rng.random() < 0.8
                }
                for _ in range(rng.randint(0, 6))
            ]
            rows = [{c: v for c, v in r.items() if v} for r in rows]
            assert matrix_rank_exact(
                [dict(r) for r in rows]
            ) == fraction_rank(rows)

    def test_large_entries_exact(self):
        # Entries that would alias under floating point.
        rows = [{0: 10**20, 1: 1}, {0: 10**20, 1: 1}]
        assert matrix_rank_exact(rows) == 1
        rows = [{0: 10**20, 1: 1}, {0: 10**20 + 1, 1: 1}]
        assert matrix_rank_exact(rows) == 2


class TestHomologyAnchors:
    def test_point_is_acyclic(self):
        assert reduced_homology_ranks(closure_masks([(0,)])) == {}

    def test_simplex_is_acyclic(self):
        assert reduced_homology_ranks(closure_masks([(0, 1, 2, 3)])) == {}

    def test_two_points(self):
        assert reduced_homology_ranks({1, 2}) == {0: 1}

    def test_circle(self):
        faces = closure_masks([(0, 1), (1, 2), (0, 2)])
        assert reduced_homology_ranks(faces) == {1: 1}

    def test_spheres(self):
        for k in (1, 2, 3):
            faces = closure_masks(boundary_sphere(k))
            assert reduced_homology_ranks(faces) == {k: 1}

    def test_empty_face_only(self):
        assert reduced_homology_ranks(set()) == {-1: 1}

    def test_torus(self):
        # Moebius-Kantor 7-vertex triangulation: triangles {i, i+1, i+3}
        # and {i, i+2, i+3} mod 7.
        facets = [
            tuple(sorted(((i + a) % 7 for a in tri)))
            for i in range(7)
            for tri in ((0, 1, 3), (0, 2, 3))
        ]
        faces = closure_masks(facets)
        counts = {}
        for f in faces:
            counts[bin(f).count("1")] = counts.get(bin(f).count("1"), 0) + 1
        assert counts == {1: 7, 2: 21, 3: 14}  # chi = 0
        assert reduced_homology_ranks(faces) == {1: 2, 2: 1}

    def test_real_projective_plane(self):
        # The 6-vertex RP^2 (half an icosahedron): H_1 over Z is Z/2, so
        # over Q it is acyclic, and no torsion may leak into the ranks.
        facets = [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
        ]
        faces = closure_masks(facets)
        assert len(faces) == 6 + 15 + 10
        assert reduced_homology_ranks(faces) == {}

    def test_octahedral_sphere(self):
        # Boundary of the 8-dimensional cross-polytope, a 7-sphere: the
        # faces on 16 vertices with no antipodal pair {2i, 2i + 1}.
        faces = faces_from_nonfaces(16, [0b11 << 2 * i for i in range(8)])
        assert len(faces) == 3**8 - 1
        assert reduced_homology_ranks(faces) == {7: 1}

    def test_boundary_of_the_16_vertex_simplex(self):
        # The largest complex the lcm engine can build: every proper
        # nonempty subset of 16 vertices, a 14-sphere.
        faces = faces_from_nonfaces(16, [(1 << 16) - 1])
        assert len(faces) == (1 << 16) - 2
        assert reduced_homology_ranks(faces) == {14: 1}

    def test_euler_characteristic_matches_homology(self):
        rng = random.Random(10)
        for _ in range(30):
            faces = random_face_set(rng, nmax=6)
            hom = reduced_homology_ranks(faces)
            chi = sum((-1) ** d * r for d, r in hom.items())
            # The alternating face count, the empty face counted at -1.
            assert chi == -1 + sum((-1) ** (f.bit_count() - 1) for f in faces)


nonface_sets = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=8)
    )
)


class TestComplexFromNonfaces:
    @settings(max_examples=200, deadline=None)
    @given(nonface_sets)
    @example((3, [0b010]))  # a one-vertex nonface
    @example((4, [0b0011, 0b0111, 0b1110]))  # a non-minimal nonface
    def test_against_bruteforce(self, case):
        # Every subset containing no nonface, listed in the DFS order:
        # lexicographic on the sorted vertex tuples.
        n, nonfaces = case
        expected = [
            mask(c)
            for c in sorted(
                c
                for r in range(1, n + 1)
                for c in itertools.combinations(range(n), r)
            )
            if not any(nf & mask(c) == nf for nf in nonfaces)
        ]
        assert faces_from_nonfaces(n, nonfaces) == expected

