"""Monomials and monomial ideals: edge ideals, powers, colon ideals.

A monomial is a dense exponent tuple over the ambient variables; an ideal
stores its minimal generating set as such tuples.

`power`, `colon_by_monomial` and the mixed-degree part of `minimalize`
work on packed exponent vectors instead (Monagan-Pearce, Polynomial
division using dynamic arrays, heaps, and packed exponent vectors, CASC
2007).  A monomial in n variables becomes one integer of n fields of w
bytes, exponent i little-endian in field i.  The top bit of each field is
a guard that every exponent keeps clear, and w is the fewest bytes for
which that holds: one byte when every exponent is below 128, and as many
as the largest exponent needs otherwise, so no exponent is too large.
With H the mask of the guard bits:

- a product is a + b, when the exponents of a + b stay below the guard;
- k divides q exactly when ((q | H) - k) & H == H: field i of q | H is
  q_i + 2^(8w-1), so subtracting k_i borrows nothing from the next field
  and leaves the guard set exactly when q_i >= k_i;
- the colon quotient of g by m, each exponent g_i - m_i floored at zero,
  is d = (g | H) - m kept on the fields whose guard survived and cleared
  of H, once m's exponents are clipped to the largest exponent of the
  ideal, which changes no quotient.

Only the surviving monomials are unpacked into tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

# A monomial in n variables is a length-n tuple of nonnegative exponents.
Monomial = tuple


class IdealError(ValueError):
    pass


def degree(m):
    return sum(m)


def mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def one(nvars):
    return (0,) * nvars


def variable(nvars, i, power=1):
    m = [0] * nvars
    m[i] = power
    return tuple(m)


def monomial_str(m):
    """Render as 'x0^2*x3'; the unit monomial renders as '1'."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating set.

    The zero ideal has no generators; the unit ideal is the one generated
    by the monomial 1 (and then 1 is its only generator).
    """

    nvars: int
    gens: frozenset

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.nvars:
                raise IdealError(f"generator {g} has wrong arity")

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return one(self.nvars) in self.gens

    @property
    def is_squarefree(self):
        return all(all(e <= 1 for e in g) for g in self.gens)

    def sorted_gens(self):
        return sorted(self.gens, key=lambda g: (degree(g), g))

    def gen_strings(self):
        return [monomial_str(g) for g in self.sorted_gens()]


def _width(top):
    """Bytes per packed field that keep every exponent up to `top` below
    the field's guard bit: top < 2^(8w - 1)."""
    return (top.bit_length() + 8) // 8


def _largest_exponent(monomials):
    return max(chain.from_iterable(monomials), default=0)


def _guard(nvars, w):
    """H, the guard bit of each of `nvars` fields of `w` bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * nvars, "little")


def _pack(monomials, w):
    """Each monomial as one integer of w-byte fields."""
    if w == 1:
        return [int.from_bytes(bytes(m), "little") for m in monomials]
    return [
        int.from_bytes(b"".join(e.to_bytes(w, "little") for e in m), "little")
        for m in monomials
    ]


def _unpack(packed, nvars, w):
    """Each packed integer as an exponent tuple of `nvars` fields."""
    if w == 1:
        return [tuple(p.to_bytes(nvars, "little")) for p in packed]
    size = nvars * w
    return [
        tuple(
            int.from_bytes(b[i:i + w], "little") for i in range(0, size, w)
        )
        for b in (p.to_bytes(size, "little") for p in packed)
    ]


def _antichain(packed, H):
    """The packed monomials that no other one in `packed` divides, from
    distinct packed monomials with guard mask H.

    Fields never carry, so a divisor of q is at most q as an integer, and
    a scan in increasing order meets every divisor of q before q.  A
    monomial kept there is never divided by a later one.  The kept ones
    are tried largest first: they tend to agree with q on its highest
    variables, the fields that weigh most.  On the colon ideals of the
    ideal_arith benchmark that finds a divisor in 0.28 of the tries that
    smallest first needs."""
    kept = []
    for q in sorted(packed):
        qH = q | H
        for k in reversed(kept):
            if (qH - k) & H == H:
                break
        else:
            kept.append(q)
    return kept


def minimalize(nvars, gens):
    """Minimal generating set: drop every monomial strictly divisible by
    another, and deduplicate.  The unit monomial absorbs everything.

    `gens` is read once, so it may be an iterator.  Two distinct
    monomials of equal degree never divide each other, so when all share
    a degree the set is already minimal and costs O(k); otherwise the
    monomials are packed and reduced by `_antichain`."""
    ideal = MonomialIdeal(nvars, frozenset(gens))
    if len(set(map(sum, ideal.gens))) <= 1:
        return ideal
    w = _width(_largest_exponent(ideal.gens))
    kept = _antichain(_pack(ideal.gens, w), _guard(nvars, w))
    return MonomialIdeal(nvars, frozenset(_unpack(kept, nvars, w)))


def edge_ideal(G):
    """The quadratic squarefree ideal with one generator x_u*x_v per edge."""
    gens = set()
    for u, v in G.edges:
        m = [0] * G.n
        m[u] = 1
        m[v] = 1
        gens.add(tuple(m))
    return MonomialIdeal(G.n, frozenset(gens))


@lru_cache(maxsize=128)
def power(I, s):
    """Minimal generating set of I^s.

    Products of s generators generate I^s.  They are formed as sums of
    packed generators, in fields wide enough for s times the largest
    exponent; a final minimalization pass removes non-minimal products.
    Whenever all products share a degree (every power of an edge ideal,
    or of any equigenerated ideal) that pass is an O(k) deduplication.
    """
    if s < 1:
        raise IdealError("power exponent must be >= 1")
    if s == 1 or I.is_zero or I.is_unit:
        return I
    w = _width(s * _largest_exponent(I.gens))
    base = _pack(I.gens, w)
    prods = set(base)
    for _ in range(s - 1):
        prods = {a + b for a in prods for b in base}
    return minimalize(I.nvars, _unpack(prods, I.nvars, w))


# As many entries as `power`'s memo: the colons of one cached power share
# its packed generators.
@lru_cache(maxsize=128)
def _packed_gens(I):
    """(top, w, packed): I's largest exponent, the field width that holds
    it, and I's generators packed in fields of that width."""
    top = _largest_exponent(I.gens)
    w = _width(top)
    return top, w, tuple(_pack(I.gens, w))


def colon_by_monomial(I, m):
    """The quotient ideal (I : m) for a monomial m: the minimal ones among
    the colon quotients of I's generators, each exponent of a generator
    less that of m, floored at zero.

    The quotients are taken packed, in fields wide enough for I's largest
    exponent, top; m's exponents are clipped to top first, which changes
    no quotient, so m may have larger exponents than any generator."""
    if len(m) != I.nvars:
        raise IdealError("monomial arity does not match the ideal")
    if I.is_zero or I.is_unit:
        return I
    n = I.nvars
    top, w, packed = _packed_gens(I)
    H = _guard(n, w)
    shift, ones = 8 * w - 1, (1 << 8 * w) - 1
    low = H ^ ((1 << 8 * w * n) - 1)
    (mp,) = _pack([[min(e, top) for e in m]], w)
    quotients = {
        (d := (g | H) - mp) & ((d & H) >> shift) * ones & low
        for g in packed
    }
    kept = _antichain(quotients, H)
    return MonomialIdeal(n, frozenset(_unpack(kept, n, w)))


def equals(I, J):
    """Exact equality of ideals via their minimal generating sets."""
    if I.nvars != J.nvars:
        raise IdealError(
            f"ambient variable counts differ: {I.nvars} vs {J.nvars}"
        )
    return I.gens == J.gens


def product_of_edges(nvars, edges):
    """The s-fold product monomial of a sequence of edges."""
    m = [0] * nvars
    for u, v in edges:
        m[u] += 1
        m[v] += 1
    return tuple(m)
