"""Betti table tests: both engines against paper-level anchors and each
other, plus polarization invariance and capacity behavior."""

import random

import pytest

from edgeideals import betti
from edgeideals.betti import (
    BettiTable,
    CapacityError,
    Caps,
    EngineDisagreement,
    betti_table,
    betti_table_hochster,
    betti_table_lcm,
    lcm_lattice,
    polarize,
    regularity,
)
from edgeideals.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
)
from edgeideals.monomials import MonomialIdeal, edge_ideal, minimalize, power


BOTH = ("lcm", "hochster")


def I_of(G):
    return edge_ideal(G)


class TestAnchors:
    def test_p4(self):
        # I(P4) has the well-known resolution 0 -> R -> R^3 -> I -> 0
        # shifted: beta_{0,2}=3, beta_{1,3}=2, beta_{2,4}=... reg(I)=2.
        T = betti_table(I_of(path_graph(4)))
        assert T.engines == BOTH
        assert T.regularity() == 2
        assert T.entries[(0, 2)] == 3

    def test_principal_power(self):
        # I = (xy): I^s = (x^s y^s) is principal, reg = 2s, single Betti number.
        I = edge_ideal(path_graph(2))
        for s in (1, 2, 3):
            T = betti_table(power(I, s))
            assert T.engines == BOTH
            assert T.entries == {(0, 2 * s): 1}
            assert T.regularity() == 2 * s

    def test_c5_and_square(self):
        for s, reg in ((1, 3), (2, 4)):
            T = betti_table(power(I_of(cycle_graph(5)), s))
            assert T.engines == BOTH
            assert T.regularity() == reg
        assert regularity(power(I_of(cycle_graph(5)), 2)) == 4

    def test_c4_square(self):
        T = betti_table(power(I_of(cycle_graph(4)), 2))
        assert T.engines == BOTH
        assert T.regularity() == 4

    def test_complete_intersection(self):
        # (x0 x1, x2 x3): Koszul complex gives beta_{0,2}=2, beta_{1,4}=1,
        # so reg(I) = max(j - i) = 3 and pd(I) = 1.
        I = minimalize(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
        T = betti_table(I)
        assert T.engines == BOTH
        assert T.entries == {(0, 2): 2, (1, 4): 1}
        assert T.regularity() == 3
        assert T.projective_dimension() == 1

    def test_k4(self):
        # Edge ideals of complete graphs have linear resolutions: reg = 2.
        for n in (3, 4, 5):
            T = betti_table(I_of(complete_graph(n)))
            assert T.engines == BOTH
            assert T.regularity() == 2

    def test_whisker_example(self):
        from edgeideals.generators import corona

        T = betti_table(I_of(corona(cycle_graph(5))))
        assert T.engines == BOTH
        assert T.regularity() == 3

    def test_zero_ideal_rejected(self):
        from edgeideals.monomials import IdealError

        with pytest.raises(IdealError):
            betti_table(MonomialIdeal(3, frozenset()))


class TestStructure:
    def test_beta0_counts_generators_by_degree(self):
        rng = random.Random(11)
        for _ in range(15):
            G = random_graph(rng.randint(2, 6), 0.5, seed=rng.randint(0, 99))
            I = power(I_of(G), rng.randint(1, 2))
            if I.is_zero:
                continue
            T = betti_table(I, ("hochster",))
            degs = {}
            for g in I.sorted_gens():
                d = sum(g)
                degs[d] = degs.get(d, 0) + 1
            got = {
                j: r for (i, j), r in T.entries.items() if i == 0
            }
            assert got == degs

    def test_polarization_preserves_betti_table(self):
        rng = random.Random(12)
        for _ in range(10):
            G = random_graph(rng.randint(3, 5), 0.6, seed=rng.randint(0, 99))
            I = power(I_of(G), 2)
            if I.is_zero:
                continue
            npol, masks = polarize(I)
            Ipol = minimalize(
                npol,
                [
                    tuple(1 if m >> k & 1 else 0 for k in range(npol))
                    for m in masks
                ],
            )
            assert (
                betti_table_hochster(I).entries
                == betti_table_hochster(Ipol).entries
            )

    def test_engines_agree_random(self):
        rng = random.Random(13)
        for _ in range(25):
            G = random_graph(rng.randint(2, 6), 0.5, seed=rng.randint(0, 99))
            I = power(I_of(G), rng.randint(1, 2))
            if I.is_zero:
                continue
            try:
                T = betti_table(I)
            except CapacityError:
                continue  # honest skip on oversized instances
            assert T.engines in (BOTH, ("hochster",))

    def test_lcm_lattice_atoms(self):
        I = I_of(path_graph(4))
        lattice = lcm_lattice(I)
        # the lattice contains every lcm of a subset of generators
        assert len(lattice) >= len(I.gens)

    def test_text_triangle(self):
        T = betti_table(I_of(path_graph(4)), ("lcm",))
        text = T.text_triangle()
        # Macaulay-style triangle: columns 0..pd, rows by j - i.
        assert text.splitlines()[0].split() == ["0", "1"]
        assert text.splitlines()[1].split() == ["2", "3", "2"]


class TestRegularity:
    def test_cross_validate(self, monkeypatch):
        # The default runs both engines; Caps() is not the memoized
        # DEFAULT_CAPS object, so nothing is answered from the cache.
        calls = []
        hochster = betti.betti_table_hochster

        def counted(I, caps):
            calls.append(I)
            return hochster(I, caps)

        monkeypatch.setattr(betti, "betti_table_hochster", counted)
        assert regularity(I_of(cycle_graph(5)), caps=Caps()) == 3
        assert len(calls) == 1

    def test_engine_choices(self):
        I = I_of(path_graph(5))  # reg = nu(P5) + 1 = 3 (forest)
        settings = (("lcm",), ("hochster",), BOTH)
        assert {regularity(I, e) for e in settings} == {3}

    def test_bad_engine(self):
        I = I_of(path_graph(3))
        for bad in (("nope",), "lcm", "auto", "both", ("hochster", "lcm"), ()):
            with pytest.raises(ValueError):
                betti_table(I, bad)
            with pytest.raises(ValueError):
                regularity(I, bad)


class TestEngineRule:
    def test_lcm_over_cap_answers_from_hochster(self):
        # I(K3,6) has 18 generators, over the lcm cap of 16.
        T = betti_table(I_of(complete_bipartite_graph(3, 6)))
        assert T.engines == ("hochster",)
        assert T.regularity() == 2

    def test_one_engine_request_raises_its_own_error(self):
        I = I_of(path_graph(4))
        with pytest.raises(CapacityError, match="^3 generators exceed"):
            betti_table(I, ("lcm",), Caps(lcm_max_generators=2))
        with pytest.raises(CapacityError, match="^4 polarized variables"):
            betti_table(I, ("hochster",), Caps(hochster_max_vars=3))

    def test_both_over_cap(self):
        caps = Caps(lcm_max_generators=2, hochster_max_vars=3)
        with pytest.raises(CapacityError, match="^both engines over capacity"):
            betti_table(I_of(path_graph(4)), caps=caps)

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(
            betti, "betti_table_hochster", lambda I, caps: BettiTable({(0, 2): 9})
        )
        with pytest.raises(EngineDisagreement):
            betti_table(I_of(path_graph(4)))

    def test_equality_ignores_engines(self):
        assert BettiTable({(0, 2): 1}, ("lcm",)) == BettiTable({(0, 2): 1})

    def test_crosscut_face_cap(self, monkeypatch):
        monkeypatch.setattr(betti, "_interval_memo", {})
        with pytest.raises(CapacityError, match="crosscut complex exceeded"):
            betti_table_lcm(I_of(cycle_graph(5)), Caps(lcm_face_cap=1))


class TestMemoKeys:
    """A memoized result from a looser face cap must not leak into a run
    under a tighter one: each memo's key carries the cap it enforces."""

    def test_interval_memo_respects_lcm_face_cap(self, monkeypatch):
        monkeypatch.setattr(betti, "_interval_memo", {})
        I = I_of(cycle_graph(5))
        assert betti_table_lcm(I).regularity() == 3
        with pytest.raises(CapacityError, match="crosscut complex exceeded"):
            betti_table_lcm(I, Caps(lcm_face_cap=1))

    def test_component_memo_respects_homology_face_cap(self, monkeypatch):
        monkeypatch.setattr(betti, "_component_memo", {})
        # The independence complex of the path on 13 vertices: over 12
        # vertices, so the face cap applies to both routes.
        nonfaces = tuple((1 << v) | (1 << (v + 1)) for v in range(12))
        assert betti.component_homology_poly(13, nonfaces) == ()
        with pytest.raises(CapacityError, match="face cap 5"):
            betti.component_homology_poly(
                13, nonfaces, Caps(homology_face_cap=5)
            )


class TestCaps:
    def test_lcm_generator_cap(self):
        caps = Caps(lcm_max_generators=2)
        with pytest.raises(CapacityError):
            betti_table_lcm(I_of(path_graph(4)), caps=caps)

    def test_hochster_var_cap(self):
        caps = Caps(hochster_max_vars=3)
        with pytest.raises(CapacityError):
            betti_table_hochster(I_of(path_graph(4)), caps=caps)

    def test_two_engine_request_falls_back(self):
        caps = Caps(lcm_max_generators=2)
        T = betti_table(I_of(path_graph(4)), caps=caps)
        assert T.engines == ("hochster",)
        assert T.regularity() == 2

    def test_engine_disagreement_repr(self):
        I = I_of(path_graph(3))
        T = betti_table(I, ("lcm",))
        exc = EngineDisagreement(I, T, T)
        assert "disagree" in str(exc).lower() or exc.ideal is I
