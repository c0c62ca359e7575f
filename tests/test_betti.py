"""Betti table tests: both engines against paper-level anchors and each
other, the lcm engine's interval complexes against their definitions, the
side Hochster enumerates a component on against the primal route, its
deletion and link reductions against that enumeration, plus polarization
invariance, the lcm lattice both engines read, and capacity behavior,
decided on the full support."""

import functools
import gc
import itertools
import operator
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgeideals import betti, graphs
from edgeideals.betti import (
    BettiTable,
    CapacityError,
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
    corona,
    cycle_graph,
    enumerate_all_graphs,
    enumerate_vwc_graphs,
    path_graph,
    random_graph,
)
from edgeideals.graphs import Graph, automorphism_generators
from edgeideals.homology import faces_from_nonfaces, reduced_homology_ranks
from edgeideals.monomials import (
    MonomialIdeal,
    colon_by_monomial,
    edge_ideal,
    minimalize,
    power,
    product_of_edges,
)
from edgeideals.verify import derive_k, graph_code
from test_homology import fraction_boundary_rank, ranks_without_collapse


BOTH = ("lcm", "hochster")


def I_of(G):
    return edge_ideal(G)


def slack_relations(I):
    """Each element w of I's lcm lattice with the slack relation of the
    interval below it, as (w, atoms, rows, k)."""
    tables = betti._slack_tables(I)
    for w in lcm_lattice(I):
        yield (w, *betti._slack_relation(w, tables))


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
        assert max(i for i, _ in T.entries) == 1  # pd(I)

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
            npol, masks, _ = polarize(I)
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

    def test_lcm_lattice_is_a_frozenset(self):
        # The memo hands one object to every caller, so none can change it.
        assert isinstance(lcm_lattice(I_of(cycle_graph(5))), frozenset)

    def test_text_triangle(self):
        T = betti_table(I_of(path_graph(4)), ("lcm",))
        text = T.text_triangle()
        # Macaulay-style triangle: columns 0..pd, rows by j - i.
        assert text.splitlines()[0].split() == ["0", "1"]
        assert text.splitlines()[1].split() == ["2", "3", "2"]


def crosscut_oracle(atoms, m):
    """Crosscut complex of the interval below m by definition: the atom
    subsets whose lcm is below m (the nerve of the atoms' slack masks)."""
    return [
        sum(1 << k for k in sub)
        for r in range(1, len(atoms) + 1)
        for sub in itertools.combinations(range(len(atoms)), r)
        if tuple(map(max, zip(*(atoms[k] for k in sub)))) != m
    ]


def koszul_oracle(gens, m):
    """Upper Koszul complex K^m(I) by definition: the subsets F of supp(m)
    with m / x^F in I."""
    supp = [v for v, e in enumerate(m) if e]
    faces = []
    for r in range(1, len(supp) + 1):
        for F in itertools.combinations(supp, r):
            q = tuple(e - (v in F) for v, e in enumerate(m))
            if any(all(a <= b for a, b in zip(g, q)) for g in gens):
                faces.append(sum(1 << v for v in F))
    return faces


# Monomial ideals on at most 6 variables, exponents at most 3, at most 9
# generators before minimalization.
monomial_ideals = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n).filter(any),
        min_size=1,
        max_size=9,
    ).map(lambda gens: minimalize(n, gens))
)


class TestIntervals:
    @settings(max_examples=150, deadline=None)
    @given(monomial_ideals)
    def test_interval_ranks_against_oracles(self, I):
        # The lattice by definition, the lcm of every nonempty generator
        # subset (at most 511), against lcm_lattice's polarized masks: each
        # mask w goes to the lcm of the generators whose masks lie inside
        # it, of degree w.bit_count(), and the map is one to one and onto.
        gens = I.sorted_gens()
        lattice = {
            tuple(map(max, zip(*sub)))
            for r in range(1, len(gens) + 1)
            for sub in itertools.combinations(gens, r)
        }
        masks = polarize(I)[1]
        image = []
        for w, _, rows, k in slack_relations(I):
            under = [g for g, a in zip(gens, masks) if not a & ~w]
            m = tuple(map(max, zip(*under)))
            assert sum(m) == w.bit_count()
            image.append(m)
            # The ranks the engine reads for the element's relation, both
            # routes of the memo, against both complexes built from their
            # definitions.
            ranks = betti._relation_ranks(tuple(sorted(set(rows))), k)
            atoms = tuple(g for g in gens if all(map(int.__le__, g, m)))
            assert ranks == reduced_homology_ranks(crosscut_oracle(atoms, m))
            assert ranks == reduced_homology_ranks(koszul_oracle(gens, m))
        assert len(set(image)) == len(image) and set(image) == lattice
        assert betti_table_lcm(I) == betti_table_hochster(I)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda s: st.tuples(
                st.integers(1, 6).flatmap(
                    lambda n: st.lists(
                        st.tuples(*[st.integers(0, 3)] * n).filter(any),
                        min_size=1,
                        max_size=(6, 4, 3)[s - 1],
                    ).map(lambda gens: minimalize(n, gens))
                ),
                st.just(s),
            )
        )
    )
    # x1 lies in no generator, so it has no polarized copy.
    @example((minimalize(3, [(1, 0, 2), (0, 0, 1)]), 2))
    def test_relations_from_masks_against_divisibility(self, case):
        # Atoms and slack rows read off the polarized masks against their
        # definitions on exponents: the atoms of w are the generators
        # dividing its monomial m, and an atom's row is {v in supp(m) :
        # g_v < m_v}, over supp(m) in variable order.  Powers repeat each
        # generator's variables across many products.
        I = power(*case)
        gens = I.sorted_gens()
        n = I.nvars
        tops = [max(g[v] for g in gens) for v in range(n)]
        offsets = list(itertools.accumulate([0] + tops))
        for w, atoms, rows, k in slack_relations(I):
            m = tuple(
                (w >> offsets[v] & (1 << tops[v]) - 1).bit_count()
                for v in range(n)
            )
            assert w == sum(
                ((1 << e) - 1) << offsets[v] for v, e in enumerate(m)
            )
            divisors = [
                i for i, g in enumerate(gens) if all(map(int.__le__, g, m))
            ]
            assert [i for i in range(len(gens)) if atoms >> i & 1] == divisors
            supp = [v for v in range(n) if m[v]]
            assert k == len(supp)
            assert rows == [
                sum(1 << j for j, v in enumerate(supp) if gens[i][v] < m[v])
                for i in divisors
            ]


def symmetric_ideal(n, gens, perm):
    """The ideal generated by `gens` and all their images under the
    variable permutation `perm` (x_v to x_perm[v]): perm fixes it."""
    closed, frontier = set(gens), list(gens)
    while frontier:
        g = frontier.pop()
        image = [0] * n
        for v, e in enumerate(g):
            image[perm[v]] = e
        image = tuple(image)
        if image not in closed:
            closed.add(image)
            frontier.append(image)
    return minimalize(n, closed)


def unsummed_lcm_table(I):
    """The lcm table read over every lattice element: the engine with its
    symmetry search patched to find nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "_ideal_symmetries", lambda I: ())
        return betti_table_lcm(I)


def lcm_tables_agree(I, G=None):
    """The lcm table summed over the orbits of I's own symmetries against
    the full sweep of both engines, Hochster only where it fits its caps;
    given G, the graph the engine searched must be G itself."""
    searched = []

    def recorded(H):
        searched.append(H)
        return automorphism_generators(H)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "automorphism_generators", recorded)
        table = betti_table_lcm(I)
    if G is not None:
        assert searched == [G]
    assert table == unsummed_lcm_table(I)
    try:
        assert table == betti_table_hochster(I)
    except CapacityError:
        pass


def bit_permutations(perms, tops):
    """The vertex permutations `perms` as permutations of the polarized
    bits of an ideal whose variable v has top exponent tops[v]."""
    offsets = list(itertools.accumulate([0] + list(tops)))
    return tuple(
        [offsets[p[v]] + c for v in range(len(tops)) for c in range(tops[v])]
        for p in perms
    )


class TestOrbitSweep:
    def test_criterion_1_powers(self):
        # Every I(G)^s of criterion 1 under the lcm generator cap; the
        # graph of I(G)^s is G.
        family = [G for m in (1, 2, 3, 4) for G in enumerate_vwc_graphs(m)]
        family += [corona(cycle_graph(5)), corona(cycle_graph(7))]
        checked = 0
        for G in family:
            for s in (1, 2, 3):
                I = power(I_of(G), s)
                if s <= derive_k(G, s) - 2 and (
                    len(I.gens) <= betti.LCM_MAX_GENERATORS
                ):
                    lcm_tables_agree(I, G)
                    checked += 1
        assert checked == 51

    def test_small_graphs(self):
        # I(G) and I(G)^2 of every graph on at most 6 vertices, isolated
        # vertices included: their variables have no copy to move.
        for n in range(1, 7):
            for G in enumerate_all_graphs(n, allow_isolated=True):
                if not G.edges:
                    continue
                for s in (1, 2):
                    I = power(I_of(G), s)
                    if len(I.gens) <= betti.LCM_MAX_GENERATORS:
                        lcm_tables_agree(I, G)

    def test_banerjee_colons(self):
        # The colons I^2 : e of every graph on at most 6 vertices under
        # the lcm cap, the ideals criterion 8 asks: edges and squares,
        # searched by the graph without the squares.
        colons = {
            colon_by_monomial(power(I_of(G), 2), product_of_edges(n, [e]))
            for n in range(2, 7) for G in enumerate_all_graphs(n)
            for e in G.sorted_edges
        }
        colons = [
            J for J in colons if len(J.gens) <= betti.LCM_MAX_GENERATORS
        ]
        for J in colons:
            lcm_tables_agree(J)
        assert len(colons) == 497
        assert sum(bool(betti._ideal_symmetries(J)) for J in colons) == 418

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda e: e[0] < e[1]),
                    min_size=1,
                    max_size=8,
                ),
                st.integers(1, 2),
            )
        )
    )
    def test_random_graphs(self, case):
        n, edges, s = case
        G = Graph(n, frozenset(edges))
        I = power(I_of(G), s)
        assume(len(I.gens) <= betti.LCM_MAX_GENERATORS)
        lcm_tables_agree(I, G)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(*[st.integers(0, 3)] * n).filter(any),
                    min_size=1,
                    max_size=3,
                ),
                st.permutations(range(n)),
            )
        )
    )
    def test_ideals_closed_under_a_permutation(self, case):
        # Top exponents that differ between variables, and generators of
        # every support size, so the graph's automorphisms may or may not
        # fix the ideal.
        n, gens, perm = case
        I = symmetric_ideal(n, gens, perm)
        assume(len(I.gens) <= betti.LCM_MAX_GENERATORS)
        lcm_tables_agree(I)

    @pytest.mark.parametrize("G", [
        cycle_graph(5), complete_graph(4), path_graph(4), corona(cycle_graph(5)),
    ])
    @pytest.mark.parametrize("s", [1, 2])
    def test_orbits_partition_the_lattice(self, G, s):
        I = power(I_of(G), s)
        perms = betti._ideal_symmetries(I)
        lattice = lcm_lattice(I)
        orbits = list(betti._lattice_orbits(lattice, perms))
        assert sum(size for _, size in orbits) == len(lattice)
        members = [
            x for w, _ in orbits
            for x in betti._mask_orbit(w, perms)
        ]
        assert len(members) == len(set(members)) and set(members) == lattice
        assert len(orbits) < len(lattice)

    def test_no_symmetries_walk_no_orbit(self, monkeypatch):
        # An ideal whose graph's automorphisms move no polarized bit (the
        # swap of two isolated vertices) or fix no generator set (the
        # reversal of P3 against x0^2) reads every element.
        def refuse(*args):
            raise AssertionError("walked an orbit")

        J = MonomialIdeal(3, frozenset({(1, 1, 0), (0, 1, 1), (2, 0, 0)}))
        I = I_of(Graph(4, frozenset({(0, 1)})))
        table = betti_table_lcm(I)
        monkeypatch.setattr(betti, "_mask_orbit", refuse)
        assert betti_table_lcm(J) == betti_table_hochster(J)
        monkeypatch.setattr(
            betti, "automorphism_generators", lambda H: ((0, 1, 3, 2),)
        )
        assert betti._ideal_symmetries(I) == ()
        assert betti_table_lcm(I) == table

    def test_a_generator_off_the_ideal_is_dropped(self, monkeypatch):
        # In (x0x1, x1x2, x0x3x4) the graph is P3 plus two isolated
        # vertices: (0 2) sends x0x3x4 outside the ideal, (3 4) fixes it.
        I = MonomialIdeal(5, frozenset({
            (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 0, 1, 1),
        }))
        swap = bit_permutations([(0, 1, 2, 4, 3)], [1] * 5)
        assert betti._ideal_symmetries(I) == swap
        lcm_tables_agree(I)
        # In (x0x1, x1x2, x0^2), (0 2) moves x0, of top exponent 2, to x2,
        # of top exponent 1.
        J = MonomialIdeal(3, frozenset({(1, 1, 0), (0, 1, 1), (2, 0, 0)}))
        assert betti._ideal_symmetries(J) == ()

        def offer(*perms):
            monkeypatch.setattr(
                betti, "automorphism_generators", lambda H: perms
            )

        # Whatever the search returns, only what fixes the ideal is kept,
        # and the table does not change.
        offer((2, 1, 0, 4, 3), (2, 1, 0, 3, 4), (0, 1, 2, 3, 4),
              (0, 1, 2, 4, 3))
        assert betti._ideal_symmetries(I) == swap
        assert betti_table_lcm(I) == betti_table_hochster(I)
        # Swapping the ends of P3's first edge sends x1*x2 to x0*x2; x0^2
        # and x1 have top exponents 2 and 1; the reversal of P3 fixes
        # I(P3), and the identity is left out.
        P3 = I_of(path_graph(3))
        offer((1, 0, 2))
        assert betti._ideal_symmetries(P3) == ()
        offer((1, 0))
        K = MonomialIdeal(2, frozenset({(2, 0), (0, 1)}))
        assert betti._ideal_symmetries(K) == ()
        assert betti_table_lcm(K) == betti_table_hochster(K)
        offer((2, 1, 0), (0, 1, 2))
        assert betti._ideal_symmetries(P3) == ([2, 1, 0],)
        assert betti_table_lcm(P3) == betti_table_hochster(P3)

    def test_no_search_over_the_lcm_cap(self, monkeypatch):
        # I(C5)^2 has 15 generators and gets Aut(C5)'s, copy c of x_v to
        # copy c of its image; I(P30) has 29, over the lcm generator cap,
        # and its graph is never searched.
        G = cycle_graph(5)
        I = power(I_of(G), 2)
        assert betti._ideal_symmetries(I) == bit_permutations(
            automorphism_generators(G), [2] * 5
        )

        def refuse(n, edges):
            raise AssertionError("searched the graph")

        graphs._canonical_memo.cache_clear()
        monkeypatch.setattr(graphs, "_canonical_search", refuse)
        with pytest.raises(CapacityError, match="lcm generator cap"):
            betti_table_lcm(I_of(path_graph(30)))
        # Nor is the graph of an ideal over the lattice cap.
        betti.lcm_lattice.cache_clear()
        monkeypatch.setattr(betti, "LATTICE_CAP", 100)
        with pytest.raises(CapacityError, match="lcm lattice exceeded"):
            betti_table_lcm(I)

    @pytest.mark.parametrize("G, s", [
        (corona(cycle_graph(5)), 1), (cycle_graph(5), 2),
    ])
    def test_a_power_costs_no_new_search(self, G, s, monkeypatch):
        # Once graph_code(G) has run, the orbit sum of I(G)^s reads
        # Aut(G) from the canonical-key memo: no graph is searched.
        graph_code(G)

        def refuse(n, edges):
            raise AssertionError("searched a graph")

        reads = []
        relation = betti._slack_relation

        def counted(w, tables):
            reads.append(w)
            return relation(w, tables)

        monkeypatch.setattr(graphs, "_canonical_search", refuse)
        monkeypatch.setattr(betti, "_slack_relation", counted)
        I = power(I_of(G), s)
        betti_table_lcm(I)
        assert 0 < len(reads) < len(lcm_lattice(I))

    def test_regularity_is_memoized_on_the_ideal(self, monkeypatch):
        G = cycle_graph(5)
        I = power(I_of(G), 2)
        calls = []
        lcm = betti.betti_table_lcm

        def counted(I):
            calls.append(I)
            return lcm(I)

        monkeypatch.setattr(betti, "betti_table_lcm", counted)
        regularity.cache_clear()
        assert regularity(I) == 4
        assert regularity(I) == 4
        assert regularity.cache_info().hits == 1 and calls == [I]


# Relations of 1-8 rows over 1-10 columns, as row masks.
relations = st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8),
    )
)


def nerve_of(rows):
    """The rows' nerve by definition: row sets whose masks share a column."""
    return [
        sum(1 << k for k in sub)
        for r in range(1, len(rows) + 1)
        for sub in itertools.combinations(range(len(rows)), r)
        if functools.reduce(operator.and_, (rows[k] for k in sub))
    ]


def submasks_of(rows, ncols):
    """The column sets inside some row, by definition (K^m for slack rows)."""
    return [
        f for f in range(1, 1 << ncols) if any(f & r == f for r in rows)
    ]


class TestDowkerCore:
    @settings(max_examples=200, deadline=None)
    @given(relations)
    @example((3, [0b011, 0b110, 0b101]))  # a circle on either side
    @example((2, [0, 0]))  # {empty face} on either side
    def test_core_against_the_relation(self, relation):
        ncols, rows = relation
        nerve = nerve_of(rows)
        expected = ranks_without_collapse(nerve, fraction_boundary_rank)
        assert reduced_homology_ranks(nerve) == expected
        assert reduced_homology_ranks(submasks_of(rows, ncols)) == expected
        core, cols = betti._dowker_core(rows, ncols)
        assert reduced_homology_ranks(nerve_of(core)) == expected
        assert reduced_homology_ranks(submasks_of(core, len(cols))) == expected
        # No row or column of the core lies inside another, or equals it,
        # so a second reduction changes nothing.
        for side in (core, cols):
            for a, b in itertools.permutations(side, 2):
                assert a & b != a
        again, again_cols = betti._dowker_core(core, len(cols))
        assert (sorted(again), len(again_cols)) == (sorted(core), len(cols))

    @settings(max_examples=200, deadline=None)
    @given(relations)
    @example((3, [0b011, 0b110, 0b101]))
    @example((2, [0, 0]))  # no column survives: both sides {empty face}
    def test_nerve_is_the_submask_complex_of_the_columns(self, relation):
        # A set of rows lies in the nerve exactly when some column holds
        # all of them, so one enumerator builds both complexes of a core.
        ncols, rows = relation
        core, cols = betti._dowker_core(rows, ncols)
        assert cols == betti._transpose(core, len(cols))
        assert set(betti._submask_faces(cols)) == set(nerve_of(core))

    def test_builds_the_side_with_fewer_vertices(self, monkeypatch):
        # Each mask handed to the enumerator is a vertex set of the complex
        # built, over the other side's vertices, so that complex has no
        # more vertices than there are masks, nor than the generator cap.
        seen = []
        submask_faces = betti._submask_faces

        def record(masks):
            seen.append(masks)
            return submask_faces(masks)

        monkeypatch.setattr(betti, "_submask_faces", record)
        # The memos leave 15 distinct cores for these ideals, so every
        # element's core is also built past them.
        betti._relation_ranks.cache_clear()
        betti._core_ranks.cache_clear()
        for I in (power(I_of(cycle_graph(5)), 2),
                  power(I_of(path_graph(6)), 2), I_of(complete_graph(4))):
            betti_table_lcm(I)
            for _, _, rows, k in slack_relations(I):
                core, cols = betti._dowker_core(rows, k)
                betti._core_ranks.__wrapped__(tuple(sorted(core)), len(cols))
        assert len(seen) > 100
        for masks in seen:
            width = functools.reduce(operator.or_, masks).bit_length()
            assert width <= min(len(masks), betti.LCM_MAX_GENERATORS)

    def test_examples(self):
        # Each column of the circle is in two rows; nothing is dominated.
        assert sorted(betti._dowker_core([0b011, 0b110, 0b101], 3)[0]) == [
            0b011, 0b101, 0b110
        ]
        # A row inside another goes, then the columns it separated merge.
        assert betti._dowker_core([0b011, 0b001], 2) == ([0b1], [0b1])
        assert betti._dowker_core([0, 0], 3) == ([0], [0])

    @settings(max_examples=200, deadline=None)
    @given(relations, st.data())
    def test_relation_memo_ignores_row_order_and_column_labels(
        self, relation, data
    ):
        # The memo's key is the relation, not where it came from: the same
        # relation with its rows permuted, or its columns relabelled, gets
        # the ranks of both of its Dowker complexes.
        ncols, rows = relation
        perm = data.draw(st.permutations(rows), label="rows")
        labels = data.draw(st.permutations(range(ncols)), label="cols")
        relabelled = [
            sum(1 << labels[c] for c in range(ncols) if r >> c & 1)
            for r in perm
        ]
        for rel in (rows, perm, relabelled):
            ranks = betti._relation_ranks(tuple(sorted(set(rel))), ncols)
            assert ranks == reduced_homology_ranks(nerve_of(rel))
            assert ranks == reduced_homology_ranks(submasks_of(rel, ncols))


def minimal_masks(masks):
    return [m for m in masks if not any(o != m and o & m == o for o in masks)]


def minimal_oracle(masks):
    """The inclusion-minimal masks among `masks`, one copy of each, by
    size: the minimalization that `betti._link` replaces."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


# Antichains of nonfaces relabelled onto the 1-10 vertices they cover.
covering_antichains = st.integers(1, 10).flatmap(
    lambda n: st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=8)
).map(lambda masks: betti._localize(minimal_masks(masks)))

SPHERE = (4, (0b1111,))  # dual {empty face}: the boundary of a 3-simplex
DUAL_WINS = (5, (0b01111, 0b11110))  # dual: two points
PRIMAL_WINS = (4, (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100))
# Dual and primal both have 2^(c-1) - 1 = 7 nonempty faces.
BOUNDARY = (4, (0b0011, 0b0101, 0b1001, 0b1110))


class TestComponentSides:
    @settings(max_examples=300, deadline=None)
    @given(covering_antichains)
    @example(SPHERE)
    @example(DUAL_WINS)
    @example(PRIMAL_WINS)
    @example(BOUNDARY)
    def test_against_the_primal_route(self, case):
        c, nonfaces = case
        got = betti._enumerated_component_poly(c, nonfaces)
        assert got == betti._ranks_to_poly(
            reduced_homology_ranks(faces_from_nonfaces(c, nonfaces))
        )

    def test_small_dual_never_enumerates_the_primal(self, monkeypatch):
        calls = []
        enumerate_primal = betti.faces_from_nonfaces

        def record(nvertices, nonfaces):
            calls.append((nvertices, nonfaces))
            return enumerate_primal(nvertices, nonfaces)

        monkeypatch.setattr(betti, "faces_from_nonfaces", record)
        poly = betti._enumerated_component_poly
        for c in range(1, 11):  # one nonface on every vertex: S^(c-2)
            assert poly(c, ((1 << c) - 1,)) == (0,) * (c - 1) + (1,)
        assert poly(*DUAL_WINS) == (0, 0, 0, 1)
        assert poly(*BOUNDARY) == (0, 1, 1)
        assert calls == []
        assert poly(*PRIMAL_WINS) == (0, 3)  # four points
        assert calls == [PRIMAL_WINS]

    def test_small_complex_never_enumerates_the_dual(self, monkeypatch):
        # The independence complex of a dense graph on 20 vertices: no
        # deletion or link reduces it, and its 260 faces are listed
        # without building any of the dual's more than 2^19.
        G = random_graph(20, 0.6, seed=5)
        case = (20, tuple(sorted(1 << u | 1 << v for u, v in G.edges)))
        assert betti._reduce_by_vertex(*case) is None
        calls = record_calls(monkeypatch, "_submask_faces")
        assert betti._enumerated_component_poly(*case) == primal_route(*case)
        assert calls == []


# Independence complex of the path 0-1-2-3: the path 2-0-3-1.  Rule 2
# at vertex 1 (vertex 0 lies in no nonface avoiding 1) leaves lk(1), a
# cone on 3.
CONE = (4, (0b0011, 0b0110, 0b1100))
# Independence complex of the 4-cycle 0-1-3-2: two disjoint edges.  No
# deletion is a cone, but lk(0), with nonfaces {1} and {2}, is a cone on 3
# (Rule 1).
LINK_CONE = (4, (0b0011, 0b0101, 0b1010, 0b1100))


def sphere(c):
    """One nonface on all c vertices: the boundary of a simplex, S^(c-2)."""
    return c, ((1 << c) - 1,)


class TestReductions:
    @settings(max_examples=300, deadline=None)
    @given(covering_antichains)
    @example(CONE)
    @example(LINK_CONE)
    @example(PRIMAL_WINS)
    @example(sphere(6))
    def test_against_enumeration(self, case):
        c, nonfaces = case
        expected = betti._enumerated_component_poly(c, nonfaces)
        assert betti.component_homology_poly.__wrapped__(c, nonfaces) == expected
        reduced = betti._reduce_by_vertex(c, nonfaces)
        assert reduced is None or reduced == expected

    def test_explicit_cases(self):
        poly = betti.component_homology_poly.__wrapped__
        # Rule 2 (suspension): two points, then every simplex boundary.
        assert poly(2, (0b11,)) == (0, 1)
        for c in range(2, 11):
            assert poly(*sphere(c)) == (0,) * (c - 1) + (1,)
        assert poly(*CONE) == ()
        assert poly(*LINK_CONE) == (0, 1)
        # A vertex whose only nonface is itself: {empty face}.
        assert poly(1, (0b1,)) == (1,)
        # What deletions and links leave: {empty face}, a singleton
        # nonface dropping its vertex, and a cone apex.
        reduced = betti._reduced_complex_poly
        assert reduced(0, []) == (1,)
        assert reduced(0b110, [0b010, 0b100]) == (1,)
        assert reduced(0b111, [0b001, 0b110]) == (0, 1)
        assert reduced(0b111, [0b011]) == ()
        # The link keeps only minimal nonfaces: {0}, left of {0, 2} at
        # vertex 2, absorbs {0, 1}, while {1, 3} stays.
        assert betti._link([0b0011, 0b0101, 0b1010], 0b0100) == [
            0b0001,
            0b1010,
        ]

    def test_reduced_components_enumerate_no_faces(self, monkeypatch):
        calls = []

        def recorder(fn):
            def record(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return record

        for name in ("faces_from_nonfaces", "_submask_faces"):
            monkeypatch.setattr(betti, name, recorder(getattr(betti, name)))
        betti.component_homology_poly.cache_clear()
        for case in (CONE, LINK_CONE, (2, (0b11,))) + tuple(
            sphere(c) for c in range(2, 11)
        ):
            betti.component_homology_poly(*case)
        assert calls == []
        # No vertex qualifies, and the complex is the smaller side.
        betti.component_homology_poly(*PRIMAL_WINS)
        assert calls == ["faces_from_nonfaces"]


# Antichains of nonfaces on at most 14 vertices, empty included.
antichains = st.integers(1, 14).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(1, (1 << n) - 1), max_size=10).map(
            lambda masks: tuple(minimal_masks(masks))
        ),
    )
)


class TestLink:
    @settings(max_examples=300, deadline=None)
    @given(antichains)
    @example((3, (0b001, 0b110)))  # a one-vertex nonface: lk(0) is void
    def test_against_minimalizing_every_vertex(self, case):
        n, nonfaces = case
        for v in range(n):
            link = betti._link(nonfaces, 1 << v)
            assert len(set(link)) == len(link)
            assert set(link) == set(
                minimal_oracle([nf & ~(1 << v) for nf in nonfaces])
            )


class TestFaceCount:
    @settings(max_examples=300, deadline=None)
    @given(antichains, st.data())
    @example((14, ()), None)  # the full simplex
    @example((3, (0b001,)), None)  # a one-vertex nonface
    def test_against_enumeration(self, case, data):
        n, nonfaces = case
        total = len(faces_from_nonfaces(n, nonfaces)) + 1
        assert betti._face_count(n, nonfaces, total) == total
        caps = [total - 1, total + 1]
        if data is not None:
            caps.append(data.draw(st.integers(0, total)))
        for cap in caps:
            assert betti._face_count(n, nonfaces, cap) == min(total, cap + 1)


def path_component(n):
    """The independence complex of the path on n vertices, as a component:
    one nonface per edge."""
    return n, tuple((1 << v) | (1 << (v + 1)) for v in range(n - 1))


def ideal_of(case):
    """The squarefree ideal generated by a component's nonfaces, which
    polarizes to the component itself."""
    c, nonfaces = case
    return MonomialIdeal(
        c,
        frozenset(tuple(nf >> v & 1 for v in range(c)) for nf in nonfaces),
    )


# The Alexander dual of this component is the cycle C13 as a graph, so its
# nerve is small (26 faces) while the complex has over 8,000 faces.
CYCLE_DUAL = (
    13,
    tuple(((1 << 13) - 1) ^ (1 << v | 1 << (v + 1) % 13) for v in range(13)),
)
CYCLE_DUAL_POLY = (0,) * 10 + (1,)  # the dual is a circle


def primal_route(c, nonfaces):
    return betti._ranks_to_poly(
        reduced_homology_ranks(faces_from_nonfaces(c, nonfaces))
    )


def record_calls(monkeypatch, *names):
    calls = []
    for name in names:
        fn = getattr(betti, name)

        def record(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(betti, name, record)
    return calls


def alexander_dual_route(c, nonfaces):
    """The primal's homology polynomial by Alexander duality, from every
    nonempty submask of the nonface complements: H~_d(complex) =
    H~_(c-d-3)(dual)."""
    full = (1 << c) - 1
    faces = set()
    for nf in nonfaces:
        facet = full ^ nf
        sub = facet
        while sub:
            faces.add(sub)
            sub = (sub - 1) & facet
    ranks = reduced_homology_ranks(list(faces))
    return betti._ranks_to_poly({c - 3 - d: r for d, r in ranks.items()})


def graph_side(n):
    """Edge sets on n vertices, each pair kept or not: independence
    complexes with few faces, where the face count decides."""
    pairs = list(itertools.combinations(range(n), 2))
    keeps = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    return keeps.map(
        lambda keep: [1 << u | 1 << v for (u, v), k in zip(pairs, keep) if k]
    )


def dual_side(n):
    """Complements of at most 12 sets of at most 5 vertices: complexes
    with a small Alexander dual, where the nerve simplex decides."""
    full = (1 << n) - 1
    return st.lists(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
    ).map(lambda facets: [full ^ sum(1 << v for v in f) for f in facets])


# Antichains relabelled onto the vertices they cover, drawn on 15-18.
large_antichains = (
    st.integers(15, 18)
    .flatmap(lambda n: st.one_of(graph_side(n), dual_side(n)))
    .map(lambda masks: betti._localize(minimal_masks(sorted(set(masks)))))
)


class TestCappedRoutes:
    """HOMOLOGY_FACE_CAP as a certified test on the full support:
    `betti_table_hochster` raises CapacityError exactly when both the
    nerve of the dual's facets and the complex are certified over the cap,
    decided before any deletion, link or enumeration runs."""

    # The path on 14 vertices: vertex 0 is avoided by 12 nonfaces, so the
    # nerve has at least 2^12 - 1 = 4095 faces, while the complex has 986
    # (the Fibonacci number F(16), less the empty face); it is S^4, which
    # is beta_{8,14} of I(P14).
    P14 = path_component(14)
    P14_POLY = (0, 0, 0, 0, 0, 1)

    def test_certified_nerve_leaves_the_primal(self, monkeypatch):
        # The nerve is certified over the cap, so the face count decides.
        primal = faces_from_nonfaces(*self.P14)
        assert len(primal) == 986
        assert primal_route(*self.P14) == self.P14_POLY
        I = ideal_of(self.P14)
        monkeypatch.setattr(betti, "HOMOLOGY_FACE_CAP", len(primal))
        assert betti_table_hochster(I).rank(8, 14) == 1
        # One face fewer: both routes are certified over, and the ideal
        # raises before anything is enumerated.
        calls = record_calls(
            monkeypatch, "faces_from_nonfaces", "_submask_faces"
        )
        monkeypatch.setattr(betti, "HOMOLOGY_FACE_CAP", len(primal) - 1)
        with pytest.raises(CapacityError, match="face cap 985"):
            betti_table_hochster(I)
        assert calls == []

    def test_nerve_bound_is_tight(self, monkeypatch):
        # Every vertex of CYCLE_DUAL is avoided by two nonfaces and its
        # complex has 8,164 faces: the nerve simplex of 2^2 - 1 = 3 faces
        # lets it through at cap 3, and at cap 2 both are over.  Its
        # circle is beta_{2,13} of the ideal.
        I = ideal_of(CYCLE_DUAL)
        monkeypatch.setattr(betti, "HOMOLOGY_FACE_CAP", 3)
        assert betti_table_hochster(I).rank(2, 13) == 1
        monkeypatch.setattr(betti, "HOMOLOGY_FACE_CAP", 2)
        with pytest.raises(CapacityError, match="13 vertices .* face cap 2 "):
            betti_table_hochster(I)

    def test_small_nerve_answers(self, monkeypatch):
        assert primal_route(*CYCLE_DUAL) == CYCLE_DUAL_POLY
        calls = record_calls(monkeypatch, "faces_from_nonfaces")
        betti.component_homology_poly.cache_clear()
        monkeypatch.setattr(betti, "HOMOLOGY_FACE_CAP", 100)
        assert betti_table_hochster(ideal_of(CYCLE_DUAL)).rank(2, 13) == 1
        assert calls == []

    def test_small_components_are_tested_too(self, monkeypatch):
        # The 2-skeleton of the simplex on 8 vertices: each vertex is
        # avoided by 35 of its nonfaces, the 4-sets, and the complex has
        # 92 nonempty faces, both over a cap that its 255 possible faces
        # exceed.
        skeleton = (
            8,
            tuple(
                sum(1 << v for v in four)
                for four in itertools.combinations(range(8), 4)
            ),
        )
        monkeypatch.setattr(betti, "HOMOLOGY_FACE_CAP", 80)
        with pytest.raises(CapacityError, match="8 vertices .* face cap 80 "):
            betti_table_hochster(ideal_of(skeleton))

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_long_paths_reduce_without_enumeration(self, monkeypatch, n):
        calls = record_calls(
            monkeypatch, "faces_from_nonfaces", "_submask_faces"
        )
        betti.component_homology_poly.cache_clear()
        got = betti.component_homology_poly.__wrapped__(*path_component(n))
        assert calls == []
        assert got == primal_route(*path_component(n))

    @settings(max_examples=200, deadline=None)
    @given(large_antichains, st.data())
    def test_pieces_of_a_passing_component_never_raise(self, case, data):
        # Both certified counts only shrink under deletion, link and
        # splitting, so no piece the reductions reach from a component
        # under the cap is over it, and the answer is the primal's.  This
        # lets `betti_table_hochster` test the full support alone.
        c, nonfaces = case
        assume(c >= 15)
        busiest = max(
            sum(not nf >> v & 1 for nf in nonfaces) for v in range(c)
        )
        # Exact: the count saturates only past 2^c (TestFaceCount).
        nfaces = betti._face_count(c, nonfaces, 1 << c) - 1
        cap = data.draw(
            st.sampled_from(
                [nfaces, nfaces - 1, (1 << busiest) - 1, (1 << busiest) - 2]
            ).filter(lambda cap: cap >= 1)
            | st.integers(1, 3000),
            label="cap",
        )
        over = betti._over_face_cap(c, nonfaces, cap)
        assert over == ((1 << busiest) - 1 > cap and nfaces > cap)
        if over:
            return
        memo = betti.component_homology_poly
        pieces_over = []

        def spy(*args):
            if betti._over_face_cap(*args, cap):
                pieces_over.append(args)
            return memo(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(betti, "component_homology_poly", spy)
            memo.cache_clear()
            try:
                got = memo.__wrapped__(c, nonfaces)
            finally:
                memo.cache_clear()
        assert pieces_over == []
        if nfaces <= 4000:
            assert got == primal_route(c, nonfaces)
        else:
            assert got == alexander_dual_route(c, nonfaces)


class TestHochsterSweep:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=12)
        ),
        st.data(),
    )
    def test_union_closure_against_bruteforce(self, masks, data):
        # Duplicates are allowed; the cap counts every distinct union,
        # the masks themselves included.
        oracle = {
            functools.reduce(operator.or_, sub)
            for r in range(1, len(masks) + 1)
            for sub in itertools.combinations(masks, r)
        }
        cap = data.draw(st.integers(0, len(oracle) + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(betti, "LATTICE_CAP", cap)
            if len(oracle) > cap:
                msg = f"^lcm lattice exceeded the cap {cap}$"
                with pytest.raises(CapacityError, match=msg):
                    betti._union_closure(masks)
            else:
                assert betti._union_closure(masks) == oracle

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(
                st.integers(1, (1 << n) - 1), max_size=10, unique=True
            )
        )
    )
    def test_split_components_against_vertex_sharing(self, masks):
        # A partition, ordered by first mask and each part in input order,
        # where no two parts share a vertex and no part falls into two
        # groups that share none.
        comps = betti._split_components(masks)
        assert sorted(m for comp in comps for m in comp) == sorted(masks)
        firsts = [masks.index(comp[0]) for comp in comps]
        assert firsts == sorted(firsts)
        covers = [functools.reduce(operator.or_, comp) for comp in comps]
        for a, b in itertools.combinations(covers, 2):
            assert not a & b
        for comp, cover in zip(comps, covers):
            assert comp == [m for m in masks if m & cover]
            for r in range(1, len(comp)):
                for part in itertools.combinations(comp, r):
                    inside = functools.reduce(operator.or_, part)
                    assert any(m & inside for m in comp if m not in part)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(st.integers(1, (1 << n) - 1), max_size=10)
        )
    )
    def test_localize_against_relabel_by_vertex(self, masks):
        # Reference: list the covered vertices, map each bit to its rank.
        verts = [v for v in range(40) if any(m >> v & 1 for m in masks)]
        pos = {v: i for i, v in enumerate(verts)}
        local = tuple(sorted(
            sum(1 << pos[v] for v in verts if m >> v & 1) for m in masks
        ))
        assert betti._localize(masks) == (len(verts), local)

    def test_only_connected_pieces_are_reduced_or_enumerated(
        self, monkeypatch
    ):
        # The memo is keyed on whole restrictions, connected or not, but
        # splits a disconnected one before anything else: every nonface
        # list reduced or enumerated is connected, so the face certificate
        # of the full support's components covers it.  A restriction that
        # spans two full-support components, such as the whole support,
        # is answered as the join of its components, and every table the
        # lcm engine answers equals its.
        pieces, joins = [], {}
        memo = betti.component_homology_poly

        def record_piece(fn):
            def record(nvertices, nonfaces):
                pieces.append(nonfaces)
                return fn(nvertices, nonfaces)

            return record

        def record_join(nvertices, nonfaces):
            poly = memo(nvertices, nonfaces)
            if len(betti._split_components(nonfaces)) > 1:
                joins[nvertices, nonfaces] = poly
            return poly

        for name in ("_reduce_by_vertex", "_enumerated_component_poly"):
            piece = record_piece(getattr(betti, name))
            monkeypatch.setattr(betti, name, piece)
        monkeypatch.setattr(betti, "component_homology_poly", record_join)

        def disjoint_sum(I, J):
            pad_i, pad_j = (0,) * J.nvars, (0,) * I.nvars
            return minimalize(
                I.nvars + J.nvars,
                [g + pad_i for g in I.gens] + [pad_j + h for h in J.gens],
            )

        def random_power(n, p):
            G = random_graph(n, p, seed=rng.randint(0, 99))
            return power(I_of(G), rng.randint(1, 2))

        rng = random.Random(22)
        # (x0 x1, x2 x3): its Koszul syzygy beta_{1,4} is the join of two
        # one-nonface components.
        ideals = [minimalize(4, [(1, 1, 0, 0), (0, 0, 1, 1)])]
        for _ in range(12):
            ideals.append(random_power(5, 0.5))
            ideals.append(
                disjoint_sum(random_power(3, 0.9), random_power(4, 0.7))
            )
        spanning = 0
        for I in ideals:
            if I.is_zero:
                continue
            masks = polarize(I)[1]
            full = betti._split_components(masks)
            memo.cache_clear()
            pieces.clear()
            joins.clear()
            table = betti_table_hochster(I)
            if len(I.gens) <= betti.LCM_MAX_GENERATORS:
                assert table == betti_table_lcm(I)
            assert pieces
            for nonfaces in pieces:
                assert len(betti._split_components(nonfaces)) == 1
            if len(full) > 1:
                product = functools.reduce(
                    betti._poly_mul,
                    (memo(*betti._localize(comp)) for comp in full),
                )
                assert joins[betti._localize(masks)] == product
                spanning += 1
        assert spanning >= 10

    def test_cap_trip_names_the_full_support(self):
        # corona(C5)^2 polarizes to 20 variables in one component, over
        # the face cap; the full support trips first under any labels.
        G = corona(cycle_graph(5))
        perms = [list(range(G.n))]
        for seed in range(3):
            perm = list(range(G.n))
            random.Random(seed).shuffle(perm)
            perms.append(perm)
        for perm in perms:
            H = Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges])
            with pytest.raises(CapacityError, match="on 20 vertices"):
                betti_table_hochster(power(I_of(H), 2))

    def test_capacity_error_keeps_no_abandoned_route(self, monkeypatch):
        # The 20-vertex component of corona(C5)^2 is certified over the
        # cap on both routes, so neither the lattice nor any component
        # homology nor either enumerator starts, no face list is left
        # behind, and no overflow is chained to the error.
        def overflowed():
            return sum(
                1
                for o in gc.get_objects()
                if isinstance(o, list) and len(o) == betti.HOMOLOGY_FACE_CAP + 1
            )

        calls = record_calls(
            monkeypatch,
            "lcm_lattice",
            "component_homology_poly",
            "_submask_faces",
            "faces_from_nonfaces",
        )
        with pytest.raises(CapacityError, match="on 20 vertices") as exc:
            betti_table_hochster(power(I_of(corona(cycle_graph(5))), 2))
        assert exc.value.__context__ is None
        assert calls == []
        assert overflowed() == 0

    def test_face_cap_reported_before_the_union_cap(self, monkeypatch):
        # corona(C5)^2 is over the face cap; with the lattice cap patched
        # below its lattice it is over both, and the full support, tested
        # before the lattice is read, names the face cap.  The cap is read
        # when a lattice is built, so the memo is cleared first.
        monkeypatch.setattr(betti, "LATTICE_CAP", 1)
        lcm_lattice.cache_clear()
        with pytest.raises(CapacityError, match="face cap"):
            betti_table_hochster(power(I_of(corona(cycle_graph(5))), 2))
        with pytest.raises(CapacityError, match="lcm lattice exceeded"):
            betti_table_hochster(I_of(cycle_graph(5)))

    def test_capacity_is_decided_on_the_full_support(self, monkeypatch):
        # The certificate runs on each localized component of the full
        # support in turn, before the lattice is read, and on nothing
        # after it; a raise stops at the first component over the cap,
        # with no lattice read.
        calls = []
        over, closure = betti._over_face_cap, betti.lcm_lattice

        def record_over(c, nonfaces, cap):
            calls.append((c, nonfaces))
            return over(c, nonfaces, cap)

        def record_closure(*args):
            calls.append("closure")
            return closure(*args)

        monkeypatch.setattr(betti, "_over_face_cap", record_over)
        monkeypatch.setattr(betti, "lcm_lattice", record_closure)
        cap = betti.HOMOLOGY_FACE_CAP
        rng = random.Random(14)
        raised = answered = 0
        for _ in range(10):
            G = random_graph(rng.randint(2, 7), 0.5, seed=rng.randint(0, 99))
            I = power(I_of(G), rng.randint(1, 3))
            if I.is_zero:
                continue
            calls.clear()
            comps = [
                betti._localize(comp)
                for comp in betti._split_components(polarize(I)[1])
            ]
            try:
                betti_table_hochster(I)
            except CapacityError:
                raised += 1
                assert calls == comps[: len(calls)]
                assert [over(*comp, cap) for comp in calls] == [False] * (
                    len(calls) - 1
                ) + [True]
            else:
                answered += 1
                assert calls == comps + ["closure"]
        assert raised and answered


class TestRegularity:
    def test_cross_validate(self, monkeypatch):
        # The default runs both engines; the cleared memo answers nothing.
        calls = []
        hochster = betti.betti_table_hochster

        def counted(I):
            calls.append(I)
            return hochster(I)

        monkeypatch.setattr(betti, "betti_table_hochster", counted)
        regularity.cache_clear()
        assert regularity(I_of(cycle_graph(5))) == 3
        assert len(calls) == 1

    def test_engine_choices(self):
        I = I_of(path_graph(5))  # reg = nu(P5) + 1 = 3 (forest)
        settings = (("lcm",), ("hochster",), BOTH)
        assert {betti_table(I, e).regularity() for e in settings} == {3}

    def test_bad_engine(self):
        I = I_of(path_graph(3))
        for bad in (("nope",), "lcm", "auto", "both", ("hochster", "lcm"), ()):
            with pytest.raises(ValueError):
                betti_table(I, bad)


class TestEngineRule:
    def test_lcm_over_cap_answers_from_hochster(self):
        # I(K3,6) has 18 generators, over the lcm cap of 16.
        T = betti_table(I_of(complete_bipartite_graph(3, 6)))
        assert T.engines == ("hochster",)
        assert T.regularity() == 2

    def test_one_engine_request_raises_its_own_error(self):
        with pytest.raises(CapacityError, match="^18 generators exceed"):
            betti_table(I_of(complete_bipartite_graph(3, 6)), ("lcm",))
        with pytest.raises(
            CapacityError, match="^25 polarized variables exceed the cap 24$"
        ):
            betti_table(I_of(path_graph(25)), ("hochster",))

    def test_both_over_cap(self):
        # I(P26): 25 generators, over the lcm cap, and one path component
        # on 26 vertices, over the variable cap.
        with pytest.raises(CapacityError, match="^both engines over capacity"):
            betti_table(I_of(path_graph(26)))

    def test_hochster_answers_on_26_polarized_variables(self):
        # I(13 K2): each Hochster component is one edge, on 2 of the 26
        # variables, and the lcm lattice, 2^13 - 1 elements, fits the one
        # lattice cap, so both engines answer its 13 generators.
        G = Graph.from_edges(26, [(2 * i, 2 * i + 1) for i in range(13)])
        T = betti_table(I_of(G))
        assert T.engines == BOTH
        assert T.regularity() == 14  # nu + 1

    def test_hochster_answers_past_an_uncertified_overflow(self):
        # I(G)^2 polarizes to one component on 16 vertices whose nerve
        # (30,719 faces) and complex (30,001) are both over the face cap,
        # yet the nerve simplex bound, 2^14 - 1, is not: the component
        # passes the capacity test and reduces, so both engines answer.
        G = Graph.from_edges(8, [(0, 1), (2, 3), (4, 6), (5, 7), (6, 7)])
        T = betti_table(power(I_of(G), 2))
        assert T.engines == BOTH
        assert T.regularity() == 6

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(
            betti, "betti_table_hochster", lambda I: BettiTable({(0, 2): 9})
        )
        with pytest.raises(EngineDisagreement):
            betti_table(I_of(path_graph(4)))

    def test_equality_ignores_engines(self):
        assert BettiTable({(0, 2): 1}, ("lcm",)) == BettiTable({(0, 2): 1})


class TestMemos:
    def test_memos_are_bounded_and_count_hits(self):
        for memo in (
            betti.component_homology_poly,
            betti._relation_ranks,
            betti._core_ranks,
            betti.polarize,
            lcm_lattice,
            regularity,
        ):
            assert memo.cache_info().maxsize is not None
        I = I_of(cycle_graph(5))
        regularity.cache_clear()
        regularity(I)
        regularity(I)
        assert regularity.cache_info().hits == 1

    def test_two_engines_build_one_lattice(self):
        # The lcm engine builds the lattice of I(C5)^2, and Hochster reads
        # the same build.
        lcm_lattice.cache_clear()
        assert betti_table(power(I_of(cycle_graph(5)), 2)).engines == BOTH
        info = lcm_lattice.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_hochster_reads_no_interval_memo(self):
        # The engines stay independent: Hochster never reaches the lcm
        # engine's relation or core memo.
        betti._relation_ranks.cache_clear()
        betti._core_ranks.cache_clear()
        betti_table_hochster(power(I_of(cycle_graph(5)), 2))
        for memo in (betti._relation_ranks, betti._core_ranks):
            info = memo.cache_info()
            assert (info.hits, info.misses) == (0, 0)

    def test_tables_do_not_depend_on_memo_order(self):
        # Every lcm table of a criterion-8 corpus (I, I^2 and each (I^2 :
        # e) of every graph on at most 6 vertices), computed again in
        # reverse order from cleared memos.
        ideals = []
        for n in range(2, 7):
            for G in enumerate_all_graphs(n):
                I = I_of(G)
                I2 = power(I, 2)
                ideals += [I, I2]
                ideals += [colon_by_monomial(I2, e) for e in I.sorted_gens()]

        def tables(order):
            out = {}
            for I in order:
                try:
                    out[I] = betti_table_lcm(I).rows()
                except CapacityError as exc:
                    out[I] = str(exc)
            return out

        forward = tables(ideals)
        betti._relation_ranks.cache_clear()
        betti._core_ranks.cache_clear()
        assert tables(reversed(ideals)) == forward


class TestCaps:
    def test_lcm_generator_cap(self):
        # I(K3,6) has 18 generators, over the lcm cap of 16.
        msg = "^18 generators exceed the lcm generator cap 16$"
        with pytest.raises(CapacityError, match=msg):
            betti_table_lcm(I_of(complete_bipartite_graph(3, 6)))

    def test_lcm_engine_never_reaches_the_lattice_cap(self):
        # n generators have at most 2^n - 1 distinct lcms, so the generator
        # cap refuses every ideal whose lattice could pass the lattice cap.
        assert (1 << betti.LCM_MAX_GENERATORS) - 1 <= betti.LATTICE_CAP

    def test_lcm_lattice_cap(self, monkeypatch):
        # I(C5) has 5 generators and a lattice of 16 elements, over the
        # patched cap.  Both engines read that one lattice, so each refuses
        # it, and a two-engine request names the cap for both.  The cap is
        # read when a lattice is built, so the memo is cleared first.
        I = I_of(cycle_graph(5))
        monkeypatch.setattr(betti, "LATTICE_CAP", 5)
        lcm_lattice.cache_clear()
        msg = "lcm lattice exceeded the cap 5"
        for engines in (("lcm",), ("hochster",)):
            with pytest.raises(CapacityError, match=f"^{msg}$"):
                betti_table(I, engines)
        both = f"^both engines over capacity: {msg}; {msg}$"
        with pytest.raises(CapacityError, match=both):
            betti_table(I)

    def test_hochster_var_cap(self, monkeypatch):
        # The cap is on each component of the full support: I(P25) is one
        # component on 25 variables, I(13 K2) is 13 components on 2.
        msg = "^25 polarized variables exceed the cap 24$"
        with pytest.raises(CapacityError, match=msg):
            betti_table_hochster(I_of(path_graph(25)))
        # It bounds the recursion depth, one level per vertex: I(P1200),
        # whose face count would recurse 1,200 levels deep, raises before
        # any face is counted.
        calls = record_calls(
            monkeypatch,
            "_face_count",
            "lcm_lattice",
            "component_homology_poly",
        )
        with pytest.raises(CapacityError, match="^1200 polarized variables"):
            betti_table_hochster(I_of(path_graph(1200)))
        with pytest.raises(CapacityError, match="^both engines over"):
            betti_table(I_of(path_graph(1200)))
        assert calls == []

    def test_deep_principal_power_is_answered_by_lcm(self):
        # (xy)^200 polarizes to one nonface on 400 variables, which the
        # face test passes and each reduction would strip one vertex of;
        # Hochster refuses it and the lcm engine answers.
        I = power(I_of(complete_graph(2)), 200)
        T = betti_table(I)
        assert T.engines == ("lcm",)
        assert T.rows() == [(0, 400, 1)]

    def test_homology_face_cap(self, monkeypatch):
        # The independence complex of the path on 13 vertices: its
        # 2^13 - 1 possible faces exceed the patched cap, and both the
        # nerve simplex and the face count are over it.
        monkeypatch.setattr(betti, "HOMOLOGY_FACE_CAP", 5)
        with pytest.raises(CapacityError, match="13 vertices .* face cap 5 "):
            betti_table_hochster(I_of(path_graph(13)))

    def test_engine_disagreement_repr(self):
        I = I_of(path_graph(3))
        T = betti_table(I, ("lcm",))
        exc = EngineDisagreement(I, T, BettiTable({(0, 2): 9}))
        assert str(exc) == (
            "Betti engines disagree on ['x1*x2', 'x0*x1']: "
            "lcm=[(0, 2, 2), (1, 3, 1)] hochster=[(0, 2, 9)]"
        )
