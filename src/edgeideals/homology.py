"""Exact rational homology of finite abstract simplicial complexes.

Ranks of integer boundary matrices are computed exactly by one row
echelon, the standard reduction of persistent homology
(Edelsbrunner-Letscher-Zomorodian, "Topological persistence and
simplification", 2002): each row is reduced at its largest column against
the kept row that starts there, by integer combinations.  Boundary
matrices have +-1 entries and their pivots are nearly always +-1 too, so a
row is rarely scaled.

Complexes are lists of faces encoded as integer bitmasks over a local
vertex set.  The empty face is implicit: every nonvoid complex contains it,
and the complex whose only face is the empty one has reduced homology rank
1 in dimension -1.
"""

from __future__ import annotations

from math import gcd


def matrix_rank_exact(rows):
    """Exact rank over the rationals of a sparse integer matrix.

    `rows` is a list of {column: value} dicts, left unchanged.  Each row
    is reduced at its largest column c: if a kept row starts at c, the row
    becomes a * row - b * kept, with a / b = kept[c] / row[c] in lowest
    terms and a > 0, which clears c; otherwise it is kept under c.  The
    rank is the number of rows kept.
    """
    kept = {}
    for row in rows:
        row = dict(row)
        while row:
            c = max(row)
            pivot = kept.get(c)
            if pivot is None:
                kept[c] = row
                break
            a, b = pivot[c], row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                nv = row.get(k, 0) - b * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return len(kept)


def boundary_rank(lower_faces, upper_faces):
    """Rank of the simplicial boundary map from upper_faces (dimension d)
    to lower_faces (dimension d-1), both given as bitmask lists."""
    index = {f: i for i, f in enumerate(lower_faces)}
    rows = []
    for f in upper_faces:
        row = {}
        sign = 1
        rem = f
        while rem:
            bit = rem & -rem
            row[index[f ^ bit]] = sign
            sign = -sign
            rem ^= bit
        rows.append(row)
    return matrix_rank_exact(rows)


def reduced_homology_ranks(faces):
    """Reduced rational homology ranks of a complex.

    `faces` lists every nonempty face once, as a bitmask (closed under
    subsets).  Returns {dimension: rank} with zero ranks omitted; dimension
    -1 appears (with rank 1) exactly for the complex whose only face is the
    empty one.
    """
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    if not by_dim:
        return {-1: 1}
    top = max(by_dim)
    ranks = {0: 1}  # d -> rank of the boundary map C_d -> C_{d-1}
    for d in range(1, top + 1):
        ranks[d] = boundary_rank(sorted(by_dim[d - 1]), sorted(by_dim[d]))
    hom = {}
    for d in range(0, top + 1):
        h = len(by_dim[d]) - ranks[d] - ranks.get(d + 1, 0)
        if h:
            hom[d] = h
    return hom


def faces_from_nonfaces(nvertices, nonfaces):
    """All nonempty faces of the complex on 0..nvertices-1 whose minimal
    nonfaces are the given bitmasks.

    The DFS only adds a vertex above every vertex already in the face, so
    a nonface can block vertex v only when v is its top vertex; each
    nonface is indexed there, without v.  A one-vertex nonface drops v,
    two-vertex nonfaces fold into one mask per vertex, and larger ones
    stay a list of masks."""
    pair = [0] * nvertices
    rests = [[] for _ in range(nvertices)]
    banned = 0
    for nf in nonfaces:
        if not nf:
            continue
        top = nf.bit_length() - 1
        rest = nf ^ (1 << top)
        if not rest:
            banned |= 1 << top
        elif rest & (rest - 1):
            rests[top].append(rest)
        else:
            pair[top] |= rest
    verts = [
        (1 << v, pair[v], rests[v])
        for v in range(nvertices)
        if not banned >> v & 1
    ]
    k = len(verts)
    # Depth first in lexicographic order: a face is listed when popped, and
    # its extensions by each vertex i >= start, taken from down[:k - start],
    # are pushed last vertex first with start i + 1.
    down = [(i + 1, *verts[i]) for i in range(k - 1, -1, -1)]
    stack = [(bit, start) for start, bit, _, _ in down]
    faces = []
    while stack:
        face, start = stack.pop()
        faces.append(face)
        for nxt, bit, pmask, rs in down[:k - start]:
            if face & pmask or rs and any(r & face == r for r in rs):
                continue
            stack.append((face | bit, nxt))
    return faces
