"""Workload corpora for the edgeideals benchmark.

Each instance is one unit of work: one call to a harness check in
`edgeideals.verify`, or one colon or power computation, returning
(verdict, answer).  Verdicts are "pass", "fail" or "skipped" (a capacity
skip); an exception escapes to the caller, which records an error.

The seed draws the random graphs and edge products of ideal_arith.  The
two harness workloads run a fixed corpus in the order of the acceptance
criterion they mirror, whatever the seed.  Their instances share memoized
work, so an instance's latency depends on what ran before it: a seeded
order moved the p50 and p90 latency and the peak memory by 6-26% between
seeds, and a seeded sample moved the pass time by 10-20%.  Graphs keep
their generators' labels for the same reason: one capacity-skipped check
took 0.02 s under one labelling and 17.9 s under another.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("banerjee_small", "vwc_main_theorem", "ideal_arith")


@dataclass
class Instance:
    id: str
    kind: str
    run: object  # () -> (verdict, answer dict)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _check_instance(inst_id, check, *args):
    """An instance running one verify.check_* function.  The function is
    looked up on the module at call time, so a traced run sees it."""
    from edgeideals import verify

    def run():
        res = getattr(verify, check)(*args)
        answer = {k: v for k, v in res.values.items() if k != "reason"}
        return res.verdict, answer

    return Instance(inst_id, check, run)


# ---------------------------------------------------------------------------
# The harness workloads run a subset of a pool, chosen from the time each
# pool instance takes alone, as recorded in reference.json.
# ---------------------------------------------------------------------------


def banerjee_pool():
    """check_banerjee_recursion(G, 1) on every graph without isolated
    vertices on 2 <= n <= 6, in the order of acceptance criterion 8."""
    from edgeideals import generators, verify

    return [
        _check_instance(f"g={verify.graph_code(G)} s=1",
                        "check_banerjee_recursion", G, 1)
        for n in range(2, 7) for G in generators.enumerate_all_graphs(n)
    ]


def vwc_pool():
    """check_main_theorem(G, derive_k(G, s), s) on every instance of
    acceptance criterion 1, in its order: very well-covered graphs with
    m <= 4 matched pairs plus corona(C5) and corona(C7), s in {1, 2, 3}
    with s <= k - 2."""
    from edgeideals import generators, verify

    graphs = [G for m in (1, 2, 3, 4) for G in generators.enumerate_vwc_graphs(m)]
    graphs += [generators.corona(generators.cycle_graph(c)) for c in (5, 7)]
    out = []
    for G in graphs:
        for s in (1, 2, 3):
            k = verify.derive_k(G, s)
            if s <= k - 2:
                out.append(_check_instance(
                    f"g={verify.graph_code(G)} k={k} s={s}",
                    "check_main_theorem", G, k, s))
    return out


POOLS = {"banerjee_small": banerjee_pool, "vwc_main_theorem": vwc_pool}

# banerjee_small: every graph on n <= 5, and every BANERJEE_STRIDE-th of
# the n = 6 graphs whose check takes at most BANERJEE_MAX_S alone, in
# order of that time (a subset spanning all cost levels).  The slowest
# n = 6 graphs take 15-43 s alone, longer than a whole run.
BANERJEE_MAX_S = 1.0
BANERJEE_STRIDE = 5

# vwc_main_theorem: every instance whose check takes at most VWC_CHEAP_S
# alone, and the VWC_SLOW fastest of the others.
VWC_CHEAP_S = 1.0
VWC_SLOW = 1


def banerjee_corpus(rng, reference):
    seconds = reference["banerjee_small"]["seconds"]
    pool = banerjee_pool()
    six = sorted(
        (i.id for i in pool
         if i.id.startswith("g=6:") and seconds[i.id] <= BANERJEE_MAX_S),
        key=lambda i: (seconds[i], i))
    chosen = set(six[::BANERJEE_STRIDE])
    return [i for i in pool if not i.id.startswith("g=6:") or i.id in chosen]


def vwc_corpus(rng, reference):
    seconds = reference["vwc_main_theorem"]["seconds"]
    pool = vwc_pool()
    slow = sorted((i.id for i in pool if seconds[i.id] > VWC_CHEAP_S),
                  key=lambda i: (seconds[i], i))
    chosen = set(slow[:VWC_SLOW])
    return [i for i in pool if seconds[i.id] <= VWC_CHEAP_S or i.id in chosen]


# ---------------------------------------------------------------------------
# ideal_arith: colon ideals by even-connection search against plain ideal
# arithmetic (criteria 3 and 5), plus large powers.  No homology at all.
# ---------------------------------------------------------------------------

# For every n in 5..10 and s in 1..3, ARITH_GRAPHS random graphs on n
# vertices, each with ARITH_PRODUCTS edge products of size s (the power
# I^{s+1} they share is cached after the first).  Each graph has the most
# edges m for which I^{s+1} has at most ARITH_MAX_PRODUCTS products of
# generators, C(m+s, s+1): dense enough that minimalize does real work,
# bounded so that no single draw dominates a pass.
ARITH_GRAPHS = 8
ARITH_PRODUCTS = 3
ARITH_MAX_PRODUCTS = 1000
ARITH_POWERS = (("corona(C7)", 4), ("corona(C9)", 4))


def random_graph_exact(rng, n, m):
    """A graph on n vertices with exactly m edges, drawn from rng."""
    from edgeideals.graphs import Graph

    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, frozenset(rng.sample(slots, m)))


def _colon_instance(G, product):
    from edgeideals import evenconn, monomials

    inst_id = (
        f"colon n={G.n} E={','.join(f'{u}-{v}' for u, v in sorted(G.edges))}"
        f" m={';'.join(f'{u}-{v}' for u, v in product)}"
    )

    def run():
        combinatorial = evenconn.colon_graph(G, product).as_ideal()
        algebraic = evenconn.colon_ideal_by_algebra(G, product)
        ok = monomials.equals(combinatorial, algebraic)
        return ("pass" if ok else "fail"), {"gens": len(algebraic.gens)}

    return Instance(inst_id, "colon", run)


def _power_instance(name, G, s):
    from edgeideals import monomials

    def run():
        P = monomials.power(monomials.edge_ideal(G), s)
        return "pass", {"gens": len(P.gens)}

    return Instance(f"power {name}^{s}", "power", run)


def arith_corpus(rng, reference):
    from edgeideals import generators

    out = []
    for n, s in itertools.product(range(5, 11), (1, 2, 3)):
        m = max(m for m in range(1, n * (n - 1) // 2 + 1)
                if math.comb(m + s, s + 1) <= ARITH_MAX_PRODUCTS)
        for _ in range(ARITH_GRAPHS):
            G = random_graph_exact(rng, n, m)
            edges = sorted(G.edges)
            for _ in range(ARITH_PRODUCTS):
                product = sorted(rng.choice(edges) for _ in range(s))
                out.append(_colon_instance(G, product))
    for name, s in ARITH_POWERS:
        out.append(_power_instance(name, generators.named_graph(name), s))
    rng.shuffle(out)
    return out


BUILDERS = {
    "banerjee_small": banerjee_corpus,
    "vwc_main_theorem": vwc_corpus,
    "ideal_arith": arith_corpus,
}


def build_corpus(workload, seed, reference, limit=None):
    """The instances of one workload for one seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    corpus = BUILDERS[workload](rng, reference)
    return corpus if limit is None else corpus[:limit]
