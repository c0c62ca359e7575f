"""Generator tests: exhaustive enumeration counts, very-well-covered
block augmentation cross-checked against filtering and a brute force,
determinism."""

import functools
import hashlib
import itertools
import json
import math

import pytest

from edgeideals import generators
from edgeideals.generators import (
    FamilySpec,
    GenerationError,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    enumerate_all_graphs,
    enumerate_vwc_graphs,
    named_graph,
    path_graph,
    random_graph,
    random_vwc_graph,
)
from edgeideals import graphs
from edgeideals.graphs import (
    Graph,
    GraphError,
    _mask_orbit,
    are_isomorphic,
    canonical_key,
    certificate_conditions_hold,
    is_very_well_covered,
    odd_girth,
)


def enumerate_by_keying_every_extension(n, allow_isolated):
    """The exhaustive enumeration with no orbit skipping: every extension
    mask of every parent is keyed, and the first one of each class kept."""
    reps = {canonical_key(Graph(1, frozenset())): frozenset()}
    for level in range(2, n + 1):
        new = {}
        v = level - 1
        for edges in reps.values():
            for mask in range(1 << v):
                ext = set(edges)
                rem = mask
                while rem:
                    bit = rem & -rem
                    ext.add((bit.bit_length() - 1, v))
                    rem ^= bit
                fext = frozenset(ext)
                key = canonical_key(Graph(level, fext))
                if key not in new:
                    new[key] = fext
        reps = new
    graphs = [Graph(n, e) for e in reps.values()]
    if not allow_isolated:
        covered = lambda G: all(G.adj[v] for v in range(G.n))
        graphs = [G for G in graphs if covered(G)]
    graphs.sort(key=lambda G: (len(G.edges), G.sorted_edges))
    return graphs


@functools.cache
def certifying_assignments(m):
    """Every assignment of patterns to the pairs of blocks (i, t), taken
    in order of t, then i, kept when the whole matching certifies; each
    as an edge frozenset grown from the matching, then the cross edges."""
    matching = [(2 * i, 2 * i + 1) for i in range(m)]
    pairs = [(i, t) for t in range(m) for i in range(t)]
    out = []
    for patterns in itertools.product(
        generators._BLOCK_PATTERNS, repeat=len(pairs)
    ):
        edges = list(matching)
        for (i, t), pattern in zip(pairs, patterns):
            edges += [(2 * i + a, 2 * t + b) for a, b in pattern]
        adj = [0] * (2 * m)
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if certificate_conditions_hold(adj, matching):
            out.append(frozenset(edges))
    return tuple(out)


def matching_relabelings(m):
    """The 2^m * m! vertex permutations of 2m vertices that map the
    matching {(2i, 2i+1)} onto itself: permute the blocks, and swap the
    two ends of any subset of them."""
    out = []
    for order in itertools.permutations(range(m)):
        for swaps in range(1 << m):
            perm = [0] * (2 * m)
            for i, j in enumerate(order):
                s = swaps >> i & 1
                perm[2 * i] = 2 * j + s
                perm[2 * i + 1] = 2 * j + 1 - s
            out.append(tuple(perm))
    return out


class TestBasicFamilies:
    def test_shapes(self):
        assert path_graph(1).n == 1 and not path_graph(1).edges
        assert len(path_graph(5).edges) == 4
        assert len(cycle_graph(5).edges) == 5
        assert len(complete_graph(5).edges) == 10
        assert len(complete_bipartite_graph(2, 3).edges) == 6

    def test_validation(self):
        with pytest.raises(GraphError):
            cycle_graph(2)
        with pytest.raises(GraphError):
            path_graph(0)

    def test_corona(self):
        H = corona(cycle_graph(5))
        assert H.n == 10 and len(H.edges) == 10
        assert is_very_well_covered(H)
        # pendant structure: vertices 5..9 have degree 1
        assert all(len(H.adj[5 + i]) == 1 for i in range(5))

    def test_named_graph(self):
        assert named_graph("P4") == path_graph(4)
        assert named_graph("C5") == cycle_graph(5)
        assert named_graph("K4") == complete_graph(4)
        assert named_graph("K2,3") == complete_bipartite_graph(2, 3)
        assert named_graph("corona(C5)") == corona(cycle_graph(5))
        assert named_graph(" corona(corona(P2)) ").n == 8

    def test_named_graph_errors(self):
        for bad in ("Q5", "K", "P4,2", "corona(", "corona(Q1)", ""):
            with pytest.raises(GraphError):
                named_graph(bad)

    def test_random_graph_deterministic(self):
        assert random_graph(7, 0.4, seed=3) == random_graph(7, 0.4, seed=3)
        # extreme densities
        assert not random_graph(5, 0.0, seed=0).edges
        assert len(random_graph(5, 1.0, seed=0).edges) == 10


class TestExhaustiveEnumeration:
    def test_counts_without_isolated(self):
        # connected-or-not graphs with no isolated vertex, up to isomorphism
        expected = {1: 0, 2: 1, 3: 2, 4: 7, 5: 23, 6: 122}
        for n, count in expected.items():
            assert len(enumerate_all_graphs(n)) == count

    def test_counts_with_isolated(self):
        # all graphs up to isomorphism (OEIS A000088): 1, 2, 4, 11, 34
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
        for n, count in expected.items():
            assert len(enumerate_all_graphs(n, allow_isolated=True)) == count

    def test_no_duplicates(self):
        graphs = enumerate_all_graphs(5)
        keys = {canonical_key(G) for G in graphs}
        assert len(keys) == len(graphs)

    def test_deterministic_order(self):
        assert enumerate_all_graphs(5) == enumerate_all_graphs(5)

    @pytest.mark.parametrize("allow_isolated", [False, True])
    def test_orbit_skipping_keeps_every_representative(self, allow_isolated):
        for n in range(1, 8):
            expected = enumerate_by_keying_every_extension(n, allow_isolated)
            got = enumerate_all_graphs(n, allow_isolated)
            # Equal lists, and each edge set iterates in the same order.
            assert [list(G.edges) for G in got] == [
                list(G.edges) for G in expected
            ]

    def test_enumeration_leaves_the_key_memo_empty(self):
        # Each extension is keyed once, so enumeration keeps its keys out
        # of the memo that sweeps read repeated instances from.
        graphs._canonical_memo.cache_clear()
        enumerate_all_graphs(6)
        assert graphs._canonical_memo.cache_info().currsize == 0

    def test_range_validation(self):
        with pytest.raises(GraphError):
            enumerate_all_graphs(0)
        with pytest.raises(GraphError):
            enumerate_all_graphs(9)



class TestVwcEnumeration:
    def test_counts(self):
        assert [len(enumerate_vwc_graphs(m)) for m in (1, 2, 3, 4)] == [
            1,
            3,
            8,
            31,
        ]

    def test_m2_classes(self):
        got = enumerate_vwc_graphs(2)
        expected = [
            Graph.from_edges(4, [(0, 1), (2, 3)]),
            path_graph(4),
            cycle_graph(4),
        ]
        assert len(got) == 3
        for H in expected:
            assert any(are_isomorphic(G, H) for G in got)

    def test_all_outputs_are_vwc(self):
        for m in (1, 2, 3):
            for G in enumerate_vwc_graphs(m):
                assert G.n == 2 * m
                assert is_very_well_covered(G)

    def test_cross_check_against_filtering(self):
        # independent route: filter every graph on 2m vertices
        for m in (1, 2, 3):
            filtered = [
                G
                for G in enumerate_all_graphs(2 * m)
                if is_very_well_covered(G)
            ]
            direct = enumerate_vwc_graphs(m)
            assert len(filtered) == len(direct)
            for G in filtered:
                assert any(are_isomorphic(G, H) for H in direct)

    def test_odd_girth_filter(self):
        # corona(C5) has m = 5.  At m = 3 one class has a triangle and
        # the seven others have no odd cycle; corona(P3) is among them.
        got = [G for G in enumerate_vwc_graphs(3) if odd_girth(G) >= 5]
        assert len(got) == 7
        assert any(are_isomorphic(G, corona(path_graph(3))) for G in got)
        spec = FamilySpec(kind="exhaustive-vwc", m=3, odd_girth_min=5)
        assert spec.instances() == got

    def test_one_canonical_key_per_class(self, monkeypatch):
        # Keying every labelled output costs 3,129 calls at m = 4.
        calls = []

        def counting(G):
            calls.append(G)
            return canonical_key(G)

        monkeypatch.setattr(generators, "canonical_key", counting)
        assert len(enumerate_vwc_graphs(4)) == 31
        assert len(calls) == 31

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_relabelings_keep_the_matching(self, m):
        # The explicit relabelings keep the matching, and so do the three
        # generators that stand for them in `enumerate_vwc_graphs`.
        n = 2 * m
        perms = matching_relabelings(m)
        assert len(perms) == len(set(perms)) == 2**m * math.factorial(m)
        matching = {frozenset((2 * i, 2 * i + 1)) for i in range(m)}
        for perm in perms:
            assert sorted(perm) == list(range(n))
            assert {frozenset(perm[v] for v in e) for e in matching} == matching
        slots = [u * n + v for u, v in itertools.combinations(range(n), 2)]
        matching_mask = sum(1 << (2 * i * n + 2 * i + 1) for i in range(m))
        for slot_map in generators._matching_slot_maps(m):
            assert sorted(slot_map[slot] for slot in slots) == slots
            assert _mask_orbit(matching_mask, [slot_map]) == [matching_mask]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_mask_orbits_are_the_explicit_images(self, m):
        # Every certifying assignment for m <= 3, and every 31st at m = 4:
        # the orbit under the generators is the set of images under all
        # 2^m * m! relabelings.
        n = 2 * m
        perms = matching_relabelings(m)
        slot_maps = generators._matching_slot_maps(m)
        outputs = certifying_assignments(m)[:: 31 if m == 4 else 1]
        for edges in outputs:
            mask = sum(1 << (u * n + v) for u, v in edges)
            images = set()
            for perm in perms:
                image = 0
                for u, v in edges:
                    a, b = sorted((perm[u], perm[v]))
                    image |= 1 << (a * n + b)
                images.add(image)
            orbit = _mask_orbit(mask, slot_maps)
            assert orbit[0] == mask
            assert len(orbit) == len(set(orbit))
            assert set(orbit) == images

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_search_against_brute_force(self, m):
        # Reference: key every certifying assignment; the first of each
        # class represents it.  The same edge sets, in the same order,
        # each iterating in the same order.
        reps = {}
        for edges in certifying_assignments(m):
            G = Graph(2 * m, edges)
            reps.setdefault(canonical_key(G), G)
        order = lambda G: (len(G.edges), G.sorted_edges)
        expected = [list(G.edges) for G in sorted(reps.values(), key=order)]
        assert [list(G.edges) for G in enumerate_vwc_graphs(m)] == expected

    def test_m5_digest(self):
        # The 151 classes at m = 5, edge iteration order included, as the
        # filtered depth-first search over every certifying assignment
        # gave them.
        dump = json.dumps(
            [[list(e) for e in G.edges] for G in enumerate_vwc_graphs(5)]
        )
        assert hashlib.sha256(dump.encode()).hexdigest() == (
            "9dfef1c14a64a97693f13b6b55d60eb42a7b1dd66dbf5e17282e7c6873eefb96"
        )

    def test_random_vwc(self):
        for seed in range(5):
            G = random_vwc_graph(3, 0.3, seed)
            assert is_very_well_covered(G)
            assert G == random_vwc_graph(3, 0.3, seed)


class TestFamilySpec:
    def test_json_roundtrip(self):
        spec = FamilySpec(kind="exhaustive-vwc", m=2, odd_girth_min=3, cap=5)
        assert FamilySpec.from_json_obj(spec.to_json_obj()) == spec

    def test_named_instances(self):
        spec = FamilySpec(kind="named", names=("P4", "C5"))
        gs = spec.instances()
        assert gs == [path_graph(4), cycle_graph(5)]

    def test_exhaustive_instances_capped(self):
        spec = FamilySpec(kind="exhaustive-all", n=4, cap=3)
        assert len(spec.instances()) == 3

    def test_random_vwc_instances(self):
        spec = FamilySpec(kind="random-vwc", m=2, seed=7, cap=4)
        gs = spec.instances()
        assert len(gs) == 4 and all(is_very_well_covered(G) for G in gs)
        assert gs == FamilySpec(kind="random-vwc", m=2, seed=7, cap=4).instances()

    def test_random_vwc_skips_exhausted_seeds(self):
        # Seeds 0, 1 and 2 exhaust their attempt budget; seed 3 does not.
        with pytest.raises(GenerationError):
            random_vwc_graph(4, 0.6, 0)
        spec = FamilySpec(kind="random-vwc", m=4, density=0.6, seed=0, cap=1)
        assert spec.instances() == [random_vwc_graph(4, 0.6, 3)]

    def test_random_vwc_no_seed_gives_a_graph(self):
        # Density 1 proposes every cross edge, so condition (i) always fails.
        spec = FamilySpec(kind="random-vwc", m=2, density=1.0, seed=0, cap=1)
        with pytest.raises(GenerationError, match="any seed in 0..19"):
            spec.instances()

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "exhaustive-vwc", "m": 3},
            {"kind": "exhaustive-all", "n": 4, "cap": 3},
            {"kind": "named", "names": ["P4", "C5"], "odd_girth_min": 5},
            {"kind": "random-vwc", "m": 2, "density": 1.0, "cap": 1},
            {"kind": "random-vwc", "m": 4, "density": 0.6, "seed": 3},
        ],
    )
    def test_configs_in_use_load(self, obj):
        # The family configs of README.md and the tests, and round trips.
        spec = FamilySpec.from_json_obj(obj)
        assert FamilySpec.from_json_obj(spec.to_json_obj()) == spec

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "named", "names": ["P4"], "m": 4}, "does not read m"),
            ({"kind": "exhaustive-vwc", "m": 2, "n": 4}, "does not read n"),
            ({"kind": "exhaustive-all", "n": 4, "names": ["P4"]},
             "does not read names"),
            ({"kind": "exhaustive-all", "n": 4, "density": 0.5},
             "does not read density"),
            ({"kind": "named", "names": ["P4"], "seed": 1},
             "does not read seed"),
            ({"kind": "exhaustive-vwc", "m": 2, "sead": 1},
             "unknown family key.*sead"),
            ({"m": 2}, "needs a JSON object with a 'kind'"),
            (["exhaustive-vwc"], "needs a JSON object with a 'kind'"),
            ({"kind": "bogus"}, "unknown family kind"),
            ({"kind": "exhaustive-vwc", "m": "4"}, "m has the wrong type"),
            ({"kind": "exhaustive-all", "n": True}, "n has the wrong type"),
            ({"kind": "named", "names": "C5"}, "names has the wrong type"),
            ({"kind": "named", "names": ["C5", 7]}, "names has the wrong"),
            ({"kind": "random-vwc", "m": 2, "density": "0.3"},
             "density has the wrong type"),
            ({"kind": "exhaustive-vwc", "m": 2, "cap": None},
             "cap has the wrong type"),
        ],
    )
    def test_config_keys_are_all_read(self, obj, message):
        with pytest.raises(ValueError, match=message):
            FamilySpec.from_json_obj(obj)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "named", "names": ("P4",), "m": 4, "density": 0.9},
             "a named family does not read density, m"),
            # A value equal to a default is still given.
            ({"kind": "exhaustive-vwc", "m": 2, "seed": 0},
             "does not read seed"),
            ({"kind": "exhaustive-all", "n": 4, "names": ()},
             "does not read names"),
        ],
    )
    def test_constructor_rejects_unread_fields(self, fields, message):
        with pytest.raises(ValueError, match=message):
            FamilySpec(**fields)

    def test_random_vwc_defaults(self):
        # An unset density or seed is the default, in the report too.
        spec = FamilySpec(kind="random-vwc", m=2)
        given = FamilySpec(kind="random-vwc", m=2, density=0.3, seed=0)
        assert spec == given and hash(spec) == hash(given)
        assert spec.to_json_obj() == {
            "kind": "random-vwc", "m": 2, "density": 0.3, "seed": 0
        }
        assert FamilySpec.from_json_obj(spec.to_json_obj()) == spec
        assert spec != FamilySpec(kind="random-vwc", m=2, seed=1)
        assert spec.instances() == given.instances()

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(kind="bogus")
        with pytest.raises(ValueError):
            FamilySpec(kind="exhaustive-all")
        with pytest.raises(ValueError):
            FamilySpec(kind="exhaustive-vwc")
        with pytest.raises(ValueError):
            FamilySpec(kind="named")
        with pytest.raises(ValueError):
            FamilySpec(kind="exhaustive-all", n=4, cap=0)
