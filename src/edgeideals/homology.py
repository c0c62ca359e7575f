"""Exact rational homology of finite abstract simplicial complexes.

Ranks of integer boundary matrices are computed exactly: a sparse
elimination pass that only ever pivots on +-1 entries (so all updates stay
integral), followed by fraction-free Bareiss elimination on whatever small
dense core remains.  Boundary matrices of small complexes are almost always
consumed entirely by the unit-pivot pass.

Complexes are lists of faces encoded as integer bitmasks over a local
vertex set.  The empty face is implicit: every nonvoid complex contains it,
and the complex whose only face is the empty one has reduced homology rank
1 in dimension -1.
"""

from __future__ import annotations


def _bareiss_rank(matrix):
    """Exact rank of a small dense integer matrix via Bareiss elimination."""
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for i in range(r + 1, rows):
            if not any(m[i][c:]):
                continue
            mic = m[i][c]
            for j in range(c, cols):
                m[i][j] = (m[i][j] * piv - mic * m[r][j]) // prev
        prev = piv
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def matrix_rank_exact(rows):
    """Exact rank over the rationals of a sparse integer matrix.

    `rows` is a list of {column: value} dicts.  The input is consumed
    conceptually; callers should not reuse the dicts.
    """
    work = {i: dict(r) for i, r in enumerate(rows) if r}
    col_rows = {}
    for i, r in work.items():
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    rank = 0
    while work:
        # Pick a +-1 pivot with the smallest Markowitz fill estimate.
        best = None
        best_cost = None
        for i, r in work.items():
            ri = len(r) - 1
            for c, v in r.items():
                if v == 1 or v == -1:
                    cost = ri * (len(col_rows[c]) - 1)
                    if best_cost is None or cost < best_cost:
                        best, best_cost = (i, c), cost
                        if cost == 0:
                            break
            if best_cost == 0:
                break
        if best is None:
            break
        i, c = best
        prow = work.pop(i)
        pval = prow[c]
        for cc in prow:
            col_rows[cc].discard(i)
        for j in list(col_rows.get(c, ())):
            row = work[j]
            factor = row[c] * pval  # pval is +-1, so this is exact division
            for cc, vv in prow.items():
                nv = row.get(cc, 0) - factor * vv
                if nv:
                    if cc not in row:
                        col_rows.setdefault(cc, set()).add(j)
                    row[cc] = nv
                else:
                    if cc in row:
                        del row[cc]
                        col_rows[cc].discard(j)
            if not row:
                del work[j]
        rank += 1
    if work:
        cols = sorted({c for r in work.values() for c in r})
        cindex = {c: k for k, c in enumerate(cols)}
        dense = []
        for r in work.values():
            row = [0] * len(cols)
            for c, v in r.items():
                row[cindex[c]] = v
            dense.append(row)
        rank += _bareiss_rank(dense)
    return rank


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


def _collapse(faces):
    """Elementary collapses: repeatedly delete a free pair (a face
    contained in exactly one other face, together with that face).  Each
    step preserves the homotopy type and leaves a simplicial complex, so
    the rank computations run on a usually much smaller complex.

    Input: nonempty faces as bitmasks, empty face implicit.  Returns
    (remaining nonempty faces, whether the empty face remains).
    """
    S = set(faces)
    S.add(0)
    ground = 0
    for f in faces:
        ground |= f
    cnt = {}
    for f in S:
        rem = ground & ~f
        c = 0
        while rem:
            bit = rem & -rem
            rem ^= bit
            if (f | bit) in S:
                c += 1
        cnt[f] = c
    queue = [f for f, c in cnt.items() if c == 1]
    while queue:
        sigma = queue.pop()
        if sigma not in S or cnt[sigma] != 1:
            continue
        tau = None
        rem = ground & ~sigma
        while rem:
            bit = rem & -rem
            rem ^= bit
            if (sigma | bit) in S:
                tau = sigma | bit
                break
        S.discard(sigma)
        S.discard(tau)
        for gone in (sigma, tau):
            rem = gone
            while rem:
                bit = rem & -rem
                rem ^= bit
                rho = gone & ~bit
                if rho in S and rho != sigma:
                    cnt[rho] -= 1
                    if cnt[rho] == 1:
                        queue.append(rho)
    return [f for f in S if f], 0 in S


def reduced_homology_ranks(faces):
    """Reduced rational homology ranks of a complex.

    `faces` lists every nonempty face as a bitmask (closed under subsets).
    Returns {dimension: rank} with zero ranks omitted; dimension -1 appears
    (with rank 1) exactly for the complex whose only face is the empty one.
    """
    faces, empty_left = _collapse(faces)
    if not empty_left:
        return {}  # collapsed to nothing: the complex was contractible
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    if not by_dim:
        return {-1: 1}
    top = max(by_dim)
    counts = {d: len(fs) for d, fs in by_dim.items()}
    ranks = {}  # d -> rank of boundary map C_d -> C_{d-1}
    ranks[0] = 1  # augmentation onto the empty face
    for d in range(1, top + 1):
        ranks[d] = boundary_rank(sorted(by_dim[d - 1]), sorted(by_dim[d]))
    hom = {}
    h_minus1 = 1 - ranks[0]
    if h_minus1:
        hom[-1] = h_minus1
    for d in range(0, top + 1):
        h = counts.get(d, 0) - ranks.get(d, 0) - ranks.get(d + 1, 0)
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
    faces = []

    def extend(face, start):
        for i in range(start, k):
            bit, pmask, rs = verts[i]
            if face & pmask:
                continue
            if rs and any(r & face == r for r in rs):
                continue
            newf = face | bit
            faces.append(newf)
            extend(newf, i + 1)

    try:
        extend(0, 0)
    finally:
        # `extend` reaches itself through its closure; breaking that cycle
        # frees the faces at once.
        del extend
    return faces
