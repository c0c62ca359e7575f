"""Monomials and monomial ideals: edge ideals, powers, colon ideals.

A monomial is a dense exponent tuple over the ambient variables; an ideal
stores its minimal generating set.  All arithmetic is exact integer work on
tuples, which keeps powers of edge ideals with tens of thousands of
generators affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# A monomial in n variables is a length-n tuple of nonnegative exponents.
Monomial = tuple


class IdealError(ValueError):
    pass


def degree(m):
    return sum(m)


def mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def colon_quotient(g, m):
    """The colon contribution of generator g against m: each exponent of
    g less that of m, floored at zero."""
    return tuple(x - y if x > y else 0 for x, y in zip(g, m))


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


def minimalize(nvars, gens):
    """Minimal generating set: drop every monomial strictly divisible by
    another, and deduplicate.  The unit monomial absorbs everything.

    `gens` is read once, so it may be an iterator.  The distinct monomials
    are bucketed by degree.  A monomial can only be divided by one of
    strictly lower degree (two distinct monomials of equal degree never
    divide each other), so a single bucket is already minimal and costs
    O(k).  Otherwise the buckets are visited in increasing degree and each
    monomial is tested against the kept ones of lower degree, rejecting on
    support bitmasks before comparing exponents."""
    unique = set(gens)
    buckets = {}
    for m in unique:
        buckets.setdefault(degree(m), []).append(m)
    if 0 in buckets:
        return MonomialIdeal(nvars, frozenset([one(nvars)]))
    if len(buckets) <= 1:
        return MonomialIdeal(nvars, frozenset(unique))
    kept = []
    for d in sorted(buckets):
        fresh = []
        for m in buckets[d]:
            mmask = 0
            for i, e in enumerate(m):
                if e:
                    mmask |= 1 << i
            for kmask, k in kept:
                if not kmask & ~mmask and divides(k, m):
                    break
            else:
                fresh.append((mmask, m))
        kept.extend(fresh)
    return MonomialIdeal(nvars, frozenset(m for _, m in kept))


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

    Products of s generators generate I^s; a final minimalization pass
    removes non-minimal products.  Whenever all products share a degree
    (every power of an edge ideal, or of any equigenerated ideal) that
    pass is an O(k) deduplication.
    """
    if s < 1:
        raise IdealError("power exponent must be >= 1")
    if s == 1 or I.is_zero or I.is_unit:
        return I
    base = sorted(I.gens)
    prods = set(base)
    for _ in range(s - 1):
        prods = {mul(a, b) for a in prods for b in base}
    return minimalize(I.nvars, prods)


def colon_by_monomial(I, m):
    """The quotient ideal (I : m) for a monomial m: the minimalized colon
    contributions of I's generators."""
    if len(m) != I.nvars:
        raise IdealError("monomial arity does not match the ideal")
    return minimalize(I.nvars, {colon_quotient(g, m) for g in I.gens})


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
