"""Monomial arithmetic and monomial-ideal tests, oracled by brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.graphs import Graph
from edgeideals.monomials import (
    IdealError,
    MonomialIdeal,
    colon_by_monomial,
    colon_quotient,
    degree,
    divides,
    edge_ideal,
    equals,
    gcd,
    lcm,
    minimalize,
    monomial_from_str,
    monomial_str,
    mul,
    one,
    power,
    product_of_edges,
    variable,
)
from edgeideals.generators import cycle_graph, path_graph


def rand_monomial(rng, nvars, maxdeg=3):
    return tuple(rng.randint(0, maxdeg) for _ in range(nvars))


class TestMonomialArithmetic:
    def test_basics(self):
        a = variable(4, 0)
        b = variable(4, 1, 2)
        assert degree(a) == 1 and degree(b) == 2
        assert mul(a, b) == (1, 2, 0, 0)
        assert one(4) == (0, 0, 0, 0)
        assert divides(a, mul(a, b))
        assert not divides(b, a)
        assert lcm(a, b) == (1, 2, 0, 0)
        assert gcd(mul(a, b), b) == (0, 2, 0, 0)
        assert colon_quotient(mul(a, b), b) == a

    def test_colon_quotient_is_division_of_lcm(self):
        rng = random.Random(0)
        for _ in range(200):
            m = rand_monomial(rng, 5)
            d = rand_monomial(rng, 5)
            q = colon_quotient(m, d)
            # m : d = m / gcd(m, d)
            assert mul(q, gcd(m, d)) == m

    def test_str_roundtrip(self):
        rng = random.Random(1)
        for _ in range(100):
            m = rand_monomial(rng, 6)
            assert monomial_from_str(monomial_str(m), 6) == m
        assert monomial_str(one(3)) == "1"
        assert monomial_from_str("1", 3) == one(3)

    def test_str_named_variables(self):
        m = (2, 1, 0, 1)
        s = monomial_str(m)
        assert monomial_from_str(s, 4) == m

    def test_from_str_errors(self):
        with pytest.raises(IdealError):
            monomial_from_str("x0*x9", 3)
        with pytest.raises(IdealError):
            monomial_from_str("garbage!!", 3)


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

    def test_membership_oracle(self):
        rng = random.Random(2)
        for _ in range(40):
            gens = [rand_monomial(rng, 4, 2) for _ in range(rng.randint(1, 4))]
            I = minimalize(4, gens)
            for _ in range(10):
                m = rand_monomial(rng, 4, 3)
                expected = any(divides(g, m) for g in gens)
                assert I.contains_monomial(m) == expected

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
                assert Is.contains_monomial(m) == expected

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
                assert Q.contains_monomial(m) == I.contains_monomial(
                    mul(m, f)
                )

    def test_product_of_edges(self):
        G = path_graph(3)
        m = product_of_edges(G.n, [(0, 1), (1, 2)])
        assert m == (1, 2, 1)
