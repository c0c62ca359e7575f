"""Monomial arithmetic and monomial-ideal tests, oracled by brute force."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeideals.graphs import Graph
from edgeideals.monomials import (
    IdealError,
    MonomialIdeal,
    colon_by_monomial,
    degree,
    edge_ideal,
    equals,
    minimalize,
    monomial_str,
    one,
    power,
    product_of_edges,
    quadratic_ideal,
)
from edgeideals.monomials import _packed_power
from edgeideals.generators import cycle_graph, path_graph


def rand_monomial(rng, nvars, maxdeg=3):
    return tuple(rng.randint(0, maxdeg) for _ in range(nvars))


def mul(a, b):
    """Product oracle on exponent tuples: exponents add."""
    return tuple(x + y for x, y in zip(a, b))


def divides(a, b):
    """Divisibility oracle on exponent tuples: a divides b."""
    return all(x <= y for x, y in zip(a, b))


def colon_quotient(g, m):
    """Colon oracle on exponent tuples: each exponent of g less that of
    m, floored at zero."""
    return tuple(x - y if x > y else 0 for x, y in zip(g, m))


def contains(I, m):
    """Membership oracle: m lies in I iff some generator divides it."""
    return any(divides(g, m) for g in I.gens)


class TestMonomialArithmetic:
    def test_basics(self):
        a = (1, 0, 0, 0)
        b = (0, 2, 0, 0)
        assert degree(a) == 1 and degree(b) == 2
        assert mul(a, b) == (1, 2, 0, 0)
        assert one(4) == (0, 0, 0, 0)
        assert divides(a, mul(a, b))
        assert not divides(b, a)
        assert colon_quotient(mul(a, b), b) == a

    def test_colon_quotient_is_division_of_lcm(self):
        rng = random.Random(0)
        for _ in range(200):
            m = rand_monomial(rng, 5)
            d = rand_monomial(rng, 5)
            q = colon_quotient(m, d)
            # m : d = m / gcd(m, d)
            gcd = tuple(min(x, y) for x, y in zip(m, d))
            assert mul(q, gcd) == m

    def test_str_named_variables(self):
        assert monomial_str((2, 1, 0, 1)) == "x0^2*x1*x3"
        assert monomial_str(one(3)) == "1"


class TestIdeals:
    def test_minimalize(self):
        I = minimalize(2, [(1, 0), (1, 1), (2, 0)])
        assert I.sorted_gens() == [(1, 0)]

    def test_minimalize_absorbs_unit(self):
        I = minimalize(3, [(0, 0, 0), (1, 1, 0)])
        assert I.is_unit and I.sorted_gens() == [one(3)]

    def test_zero_and_unit(self):
        assert MonomialIdeal(3, frozenset()).is_zero
        assert minimalize(3, [one(3)]).is_unit

    def test_squarefree_flag(self):
        assert edge_ideal(path_graph(3)).is_squarefree
        assert not minimalize(2, [(2, 0)]).is_squarefree

    def test_quadratic_ideal(self):
        # An edge uv gives x_u*x_v and a square u gives x_u^2.
        I = quadratic_ideal(3, [(0, 1)], [2])
        assert I.sorted_gens() == [(0, 0, 2), (1, 1, 0)]
        assert quadratic_ideal(3, [(0, 1), (1, 2)]) == edge_ideal(path_graph(3))

    def test_membership_oracle(self):
        rng = random.Random(2)
        for _ in range(40):
            gens = [rand_monomial(rng, 4, 2) for _ in range(rng.randint(1, 4))]
            I = minimalize(4, gens)
            for _ in range(10):
                m = rand_monomial(rng, 4, 3)
                expected = any(divides(g, m) for g in gens)
                assert contains(I, m) == expected

    def test_equals_of_minimalized_presentations(self):
        A = minimalize(2, [(1, 0), (1, 1)])
        B = minimalize(2, [(1, 0)])
        assert equals(A, B)

    def test_equals_rejects_arity_mismatch(self):
        with pytest.raises(IdealError):
            equals(minimalize(2, [(1, 0)]), minimalize(3, [(1, 0, 0)]))


def reference_minimal(gens):
    """Brute-force O(k^2) minimal generating set: keep each distinct
    monomial that no other distinct monomial divides."""
    unique = set(gens)
    return frozenset(
        m for m in unique
        if not any(k != m and all(x <= y for x, y in zip(k, m)) for k in unique)
    )


def monomial_lists(nvars, min_size=0):
    return st.lists(
        st.tuples(*[st.integers(0, 4)] * nvars), min_size=min_size, max_size=12
    )


@st.composite
def generating_sets(draw, min_size=0):
    nvars = draw(st.integers(0, 6))
    return nvars, draw(monomial_lists(nvars, min_size))


@st.composite
def equigenerated_sets(draw):
    """Monomials of one common degree: exponent vectors drawn freely, then
    topped up in the last variable to the largest degree drawn."""
    nvars = draw(st.integers(1, 6))
    gens = draw(monomial_lists(nvars, min_size=1))
    d = max(map(degree, gens))
    return nvars, [g[:-1] + (g[-1] + d - degree(g),) for g in gens]


@st.composite
def mixed_degree_sets(draw):
    """At least two degrees: a free draw plus a strict multiple of one of
    its monomials, which must not survive."""
    nvars = draw(st.integers(1, 6))
    gens = draw(monomial_lists(nvars, min_size=1))
    g, i = draw(st.sampled_from(gens)), draw(st.integers(0, nvars - 1))
    return nvars, gens + [g[:i] + (g[i] + 1,) + g[i + 1:]]


class TestMinimalizeProperties:
    """minimalize against the brute-force reference_minimal."""

    @settings(deadline=None)
    @given(mixed_degree_sets())
    def test_mixed_degrees(self, case):
        nvars, gens = case
        assert len({degree(g) for g in gens}) >= 2
        assert minimalize(nvars, gens).gens == reference_minimal(gens)

    @settings(deadline=None)
    @given(generating_sets(min_size=1))
    def test_duplicates(self, case):
        nvars, gens = case
        doubled = gens + gens[::-1] + gens[:1]
        assert minimalize(nvars, doubled).gens == reference_minimal(gens)

    @settings(deadline=None)
    @given(st.integers(0, 6))
    def test_empty(self, nvars):
        I = minimalize(nvars, [])
        assert I.is_zero and I == MonomialIdeal(nvars, frozenset())

    @settings(deadline=None)
    @given(generating_sets(), st.integers(0, 12))
    def test_unit_absorbs(self, case, at):
        nvars, gens = case
        gens = gens[:at] + [one(nvars)] + gens[at:]
        I = minimalize(nvars, gens)
        assert I.is_unit and I.gens == reference_minimal(gens) == {one(nvars)}

    @settings(deadline=None)
    @given(equigenerated_sets())
    def test_single_degree(self, case):
        nvars, gens = case
        assert len({degree(g) for g in gens}) == 1
        assert minimalize(nvars, gens).gens == frozenset(gens)
        assert reference_minimal(gens) == frozenset(gens)

    @settings(deadline=None)
    @given(generating_sets())
    def test_one_shot_iterator(self, case):
        nvars, gens = case
        got = minimalize(nvars, (g for g in gens))
        assert got.gens == reference_minimal(gens)


class TestEdgeIdealsAndPowers:
    def test_edge_ideal_p4(self):
        I = edge_ideal(path_graph(4))
        assert set(I.gen_strings()) == {"x0*x1", "x1*x2", "x2*x3"}

    def test_p4_square_generators(self):
        # I(P4)^2 with a=x0, b=x1, c=x2, d=x3:
        # {a^2 b^2, a b^2 c, a b c d, b^2 c^2, b c^2 d, c^2 d^2}
        I2 = power(edge_ideal(path_graph(4)), 2)
        expected = {
            (2, 2, 0, 0),
            (1, 2, 1, 0),
            (1, 1, 1, 1),
            (0, 2, 2, 0),
            (0, 1, 2, 1),
            (0, 0, 2, 2),
        }
        assert set(I2.sorted_gens()) == expected

    def test_power_membership_oracle(self):
        # m is in I^s iff m is divisible by a product of s generators.
        rng = random.Random(3)
        I = edge_ideal(cycle_graph(4))
        for s in (1, 2, 3):
            Is = power(I, s)
            prods = {
                self._prod(c)
                for c in itertools.combinations_with_replacement(
                    I.sorted_gens(), s
                )
            }
            for _ in range(40):
                m = rand_monomial(rng, 4, 2 * s)
                expected = any(divides(p, m) for p in prods)
                assert contains(Is, m) == expected

    @staticmethod
    def _prod(monoms):
        out = one(len(monoms[0]))
        for m in monoms:
            out = mul(out, m)
        return out

    def test_power_one_and_validation(self):
        I = edge_ideal(path_graph(3))
        assert equals(power(I, 1), I)
        with pytest.raises(IdealError):
            power(I, 0)


class TestColon:
    def test_p4_square_colon_bc(self):
        # (I(P4)^2 : x1 x2) = (x0 x1, x1 x2, x2 x3, x0 x3)
        I2 = power(edge_ideal(path_graph(4)), 2)
        Q = colon_by_monomial(I2, (0, 1, 1, 0))
        assert set(Q.sorted_gens()) == {
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 0, 1, 1),
            (1, 0, 0, 1),
        }

    def test_colon_membership_oracle(self):
        rng = random.Random(4)
        for _ in range(30):
            nv = 4
            gens = [
                rand_monomial(rng, nv, 2) for _ in range(rng.randint(1, 5))
            ]
            I = minimalize(nv, gens)
            f = rand_monomial(rng, nv, 2)
            Q = colon_by_monomial(I, f)
            for _ in range(15):
                m = rand_monomial(rng, nv, 3)
                assert contains(Q, m) == contains(I, mul(m, f))

    def test_product_of_edges(self):
        G = path_graph(3)
        m = product_of_edges(G.n, [(0, 1), (1, 2)])
        assert m == (1, 2, 1)


# Exponents on both sides of each packed-field boundary: a field of w
# bytes holds exponents below 2^(8w - 1), under its guard bit, so 127,
# 32767 and 2^71 - 1 are the largest of one, two and nine bytes.
BOUNDARY_EXPONENTS = (
    126, 127, 128, 129, 32766, 32767, 32768, 32769, 2**64 - 1, 2**64,
    2**64 + 1,
)
exponents = st.one_of(
    st.integers(0, 3), st.sampled_from(BOUNDARY_EXPONENTS)
)


@st.composite
def wide_ideals(draw):
    """(nvars, generators): up to six of them, exponents drawn across the
    field boundaries; no generators is the zero ideal, and about one draw
    in five adds the unit monomial."""
    nvars = draw(st.integers(0, 6))
    gens = draw(st.lists(st.tuples(*[exponents] * nvars), max_size=6))
    if draw(st.integers(0, 4)) == 0:
        gens.append(one(nvars))
    return nvars, gens


def reference_power(gens, s):
    """All products of s generators, minimalized by brute force."""
    return reference_minimal(
        tuple(map(sum, zip(*c)))
        for c in itertools.combinations_with_replacement(gens, s)
    )


class TestPackedKernel:
    """power, colon_by_monomial and minimalize against tuple oracles, on
    exponents that need every packed width."""

    @settings(deadline=None)
    @given(wide_ideals())
    @example((1, [(126,), (127,)]))
    @example((1, [(127,), (128,)]))
    @example((2, [(32767, 1), (32768, 0), (32768, 1)]))
    @example((2, [(2**64, 3), (2**64 - 1, 5), (2**64 + 1, 3)]))
    def test_minimalize(self, case):
        nvars, gens = case
        assert minimalize(nvars, gens).gens == reference_minimal(gens)

    @settings(deadline=None)
    @given(wide_ideals(), st.integers(1, 3))
    # s times the largest exponent is 127, the largest one-byte field,
    # and 128, the first that needs two bytes; then the zero and the unit
    # ideal.
    @example((3, [(1, 0, 0), (0, 1, 1)]), 127)
    @example((2, [(64, 0), (0, 1), (1, 1)]), 2)
    @example((3, []), 3)
    @example((3, [(0, 0, 0), (2**64, 1, 0)]), 3)
    def test_power(self, case, s):
        nvars, gens = case
        I = minimalize(nvars, gens)
        assert power(I, s).gens == reference_power(I.gens, s)

    @settings(deadline=None)
    @given(
        wide_ideals(),
        st.lists(st.one_of(exponents, st.integers(2**64, 2**66)),
                 min_size=6, max_size=6),
    )
    # m beyond every exponent of the ideal, in every variable; then
    # the zero and the unit ideal.
    @example((2, [(2, 1), (0, 3)]), [5, 2**70])
    @example((2, [(127, 1), (128, 0)]), [1, 1])
    @example((3, []), [1, 2**70, 0])
    @example((3, [(0, 0, 0), (1, 0, 0)]), [1, 2**70, 0])
    def test_colon(self, case, exps):
        nvars, gens = case
        I = minimalize(nvars, gens)
        m = tuple(exps[:nvars])
        expected = reference_minimal(colon_quotient(g, m) for g in I.gens)
        assert colon_by_monomial(I, m).gens == expected

    @settings(deadline=None)
    @given(
        wide_ideals(),
        st.integers(1, 3),
        st.lists(st.one_of(exponents, st.integers(2**64, 2**66)),
                 min_size=6, max_size=6),
    )
    # s times the largest exponent is 127, the largest one-byte field,
    # and 128, the first that needs two bytes; a mixed-degree ideal; the
    # zero and the unit ideal; m beyond every exponent of I^s.
    @example((2, [(127, 0), (1, 1)]), 1, [1, 0])
    @example((2, [(64, 0), (1, 1)]), 2, [64, 1])
    @example((3, [(2, 0, 0), (1, 1, 0), (0, 0, 1)]), 3, [1, 0, 0])
    @example((3, []), 2, [1, 2**70, 0])
    @example((3, [(0, 0, 0), (1, 0, 0)]), 3, [1, 2**70, 0])
    @example((2, [(2, 1), (0, 3)]), 3, [7, 2**70])
    def test_colon_of_power(self, case, s, exps):
        nvars, gens = case
        I = minimalize(nvars, gens)
        m = tuple(exps[:nvars])
        expected = reference_minimal(
            colon_quotient(g, m) for g in reference_power(I.gens, s)
        )
        assert colon_by_monomial(I, m, s).gens == expected

    def test_power_and_its_colons_share_one_memo_entry(self):
        I = edge_ideal(cycle_graph(5))
        _packed_power.cache_clear()
        power(I, 3)
        colon_by_monomial(I, (1, 1, 0, 0, 0), 3)
        colon_by_monomial(I, (0, 1, 1, 0, 0), 3)
        info = _packed_power.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_colon_refuses_a_negative_exponent_and_s_below_one(self):
        # Refused before packing, where a negative exponent would raise a
        # ValueError about bytes; the zero ideal, which returns early,
        # is checked as well.
        for I in (minimalize(2, [(1, 1)]), MonomialIdeal(2, frozenset())):
            with pytest.raises(IdealError, match=r"\(-1, 0\)"):
                colon_by_monomial(I, (-1, 0))
            for s in (0, -2):
                with pytest.raises(IdealError, match=f"got {s}"):
                    colon_by_monomial(I, (1, 0), s)

    def test_wrong_arity_is_refused_before_packing(self):
        # Cut to two variables, the longer tuple is a multiple of the
        # shorter one and would be dropped as not minimal, so only an
        # arity check refuses it.
        with pytest.raises(IdealError, match="wrong arity"):
            minimalize(2, [(1, 0), (1, 1, 0)])
