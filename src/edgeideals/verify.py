"""The theorem harness: every statement the library is built around
becomes a checkable predicate over a concrete graph instance, and sweeps
aggregate the evidence.

Checks are hypothesis-gated: an instance that fails a statement's
hypotheses yields verdict "skipped" (with the unmet hypothesis named),
never a vacuous "pass".  A "fail" is a counterexample to a published
theorem and carries both measured sides.  Capacity overruns skip.

Regularities computed here use both Betti engines: each one within caps
runs, and when both do their tables must agree entrywise.  A mismatch is
verdict "error", carrying both tables, and the sweep goes on.  The lcm
engine sums over the orbits of each ideal's own symmetries: for I(G)^s
those of Aut(G), read from the memo `graph_code(G)` fills.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import time
from dataclasses import dataclass, field

from . import __version__
from . import monomials as mon
from .betti import CapacityError, EngineDisagreement, regularity
from .evenconn import colon_graph
from .graphs import (
    INFINITE,
    _orbits,
    automorphism_generators,
    canonical_key,
    induced_matching_number,
    is_very_well_covered,
    odd_girth,
)

VERDICTS = ("pass", "fail", "skipped", "observation", "error")


@dataclass
class CheckResult:
    check: str
    instance: str
    verdict: str
    values: dict = field(default_factory=dict)
    elapsed: float | None = None

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        needs_reason = self.verdict in ("skipped", "error")
        if needs_reason and "reason" not in self.values:
            raise ValueError(f"{self.verdict} verdicts must name a reason")

    def to_json_obj(self, timings=False):
        obj = {
            "check": self.check,
            "instance": self.instance,
            "verdict": self.verdict,
            "values": self.values,
        }
        if timings and self.elapsed is not None:
            obj["elapsed"] = round(self.elapsed, 6)
        return obj


def graph_code(G):
    """A label-independent instance identifier for a graph."""
    n, edges = canonical_key(G)
    return f"{n}:" + ",".join(f"{u}-{v}" for u, v in sorted(edges))


def _instance_id(G, **params):
    parts = [f"g={graph_code(G)}"]
    for key in sorted(params):
        val = params[key]
        if key == "m":
            val = ";".join(f"{u}-{v}" for u, v in val)
        parts.append(f"{key}={val}")
    return " ".join(parts)


def odd_girth_json(og):
    """An odd-girth as a JSON value: "inf" for a bipartite graph."""
    return "inf" if og == INFINITE else og


def derive_k(G, s):
    """The strongest valid k for a graph: floor((odd_girth - 1)/2), with
    bipartite graphs capped at s + 2 (the least k admitting power s)."""
    og = odd_girth(G)
    if og == INFINITE:
        return s + 2
    return (og - 1) // 2


# ---------------------------------------------------------------------------
# Individual checks.
# ---------------------------------------------------------------------------


def _skipped(name, inst, reason):
    return CheckResult(name, inst, "skipped", {"reason": reason})


def _unanswered(name, inst, exc):
    """The verdict when the engines give no regularity: a capacity skip,
    or, when they disagree, an error carrying both tables."""
    if isinstance(exc, CapacityError):
        return _skipped(name, inst, str(exc))
    return CheckResult(name, inst, "error", {
        "reason": "Betti engines disagree",
        "ideal": exc.ideal.gen_strings(),
        "lcm": exc.table_lcm.rows(),
        "hochster": exc.table_hochster.rows(),
    })


def _odd_girth_below(G, bound):
    """The skip reason when G's odd-girth is below `bound`, else None."""
    og = odd_girth(G)
    return f"odd-girth {og} < {bound}" if og < bound else None


def check_katzman(G):
    """reg(I(G)) >= nu(G) + 1 on any graph with an edge."""
    inst = _instance_id(G)
    if not G.edges:
        return _skipped("katzman", inst, "no edges")
    nu = induced_matching_number(G)
    I = mon.edge_ideal(G)
    try:
        reg = regularity(I)
    except (CapacityError, EngineDisagreement) as exc:
        return _unanswered("katzman", inst, exc)
    verdict = "pass" if reg >= nu + 1 else "fail"
    return CheckResult("katzman", inst, verdict, {"reg": reg, "nu": nu})


def check_bht_lower_bound(G, s):
    """reg(I(G)^s) >= 2s + nu(G) - 1."""
    inst = _instance_id(G, s=s)
    if not G.edges:
        return _skipped("bht", inst, "no edges")
    if s < 1:
        raise ValueError("s must be positive")
    nu = induced_matching_number(G)
    I = mon.power(mon.edge_ideal(G), s)
    try:
        reg = regularity(I)
    except (CapacityError, EngineDisagreement) as exc:
        return _unanswered("bht", inst, exc)
    bound = 2 * s + nu - 1
    verdict = "pass" if reg >= bound else "fail"
    return CheckResult("bht", inst, verdict, {"reg": reg, "bound": bound})


def check_main_theorem(G, k, s):
    """reg(I(G)^s) == 2s + nu(G) - 1 for very well-covered G with
    odd-girth >= 2k+1, k >= 3, 1 <= s <= k-2."""
    return _main_theorem("main_theorem", _instance_id(G, k=k, s=s), G, s, k)


def check_main_theorem_hunter(G, s):
    """Hypothesis-relaxed observation: does the equality hold for this
    very well-covered graph and power anyway?  Never a failure: whether
    the equality extends beyond s <= k-2 is an open question."""
    return _main_theorem("main_theorem_hunter", _instance_id(G, s=s), G, s)


def _main_theorem(name, inst, G, s, k=None):
    """The body of both main-theorem checks.  Given k, every hypothesis
    is gated and the verdict is pass or fail; without k, only very
    well-coveredness is gated and the verdict is an observation."""
    if k is not None and k < 3:
        return _skipped(name, inst, "k < 3")
    if k is not None and not 1 <= s <= k - 2:
        return _skipped(name, inst, "s outside 1..k-2")
    if not is_very_well_covered(G):
        return _skipped(name, inst, "not very well-covered")
    reason = k is not None and _odd_girth_below(G, 2 * k + 1)
    if reason:
        return _skipped(name, inst, reason)
    nu = induced_matching_number(G)
    I = mon.power(mon.edge_ideal(G), s)
    try:
        reg = regularity(I)
    except (CapacityError, EngineDisagreement) as exc:
        return _unanswered(name, inst, exc)
    expected = 2 * s + nu - 1
    if k is None:
        return CheckResult(
            name, inst, "observation",
            {"reg": reg, "expected": expected, "equal": reg == expected},
        )
    verdict = "pass" if reg == expected else "fail"
    return CheckResult(name, inst, verdict, {"reg": reg, "expected": expected})


def check_colon_squarefree_and_oddgirth(G, m, k):
    """On odd-girth >= 2k+1 and s = |m| <= k-1: the colon ideal
    (I^{s+1} : m) is squarefree and its graph has odd-girth
    >= 2(k-s)+1."""
    s = len(m)
    inst = _instance_id(G, m=m, k=k)
    name = "colon_squarefree_oddgirth"
    reason = _odd_girth_below(G, 2 * k + 1)
    if reason:
        return _skipped(name, inst, reason)
    if s > k - 1:
        return _skipped(name, inst, "s > k-1")
    cg = colon_graph(G, m)
    og = odd_girth(cg.edge_graph())
    bound = 2 * (k - s) + 1
    ok = cg.is_squarefree and og >= bound
    return CheckResult(
        name, inst, "pass" if ok else "fail",
        {
            "squarefree": cg.is_squarefree,
            "colon_odd_girth": odd_girth_json(og),
            "bound": bound,
        },
    )


def check_lemma_colon_iteration(G, m, i):
    """(I^{s+1} : e_1...e_s) == ((I^2 : e_i)^s : prod_{j != i} e_j),
    both sides by plain ideal arithmetic, under odd-girth >= 2s+3
    (i.e. s <= k-1 for some k >= 2)."""
    s = len(m)
    inst = _instance_id(G, m=m, i=i)
    name = "lemma_colon_iteration"
    reason = _odd_girth_below(G, 2 * s + 3)
    if reason:
        return _skipped(name, inst, reason)
    I = mon.edge_ideal(G)
    lhs = mon.colon_by_monomial(
        mon.power(I, s + 1), mon.product_of_edges(G.n, m)
    )
    e_i = m[i]
    base = mon.colon_by_monomial(
        mon.power(I, 2), mon.product_of_edges(G.n, [e_i])
    )
    rest = [e for j, e in enumerate(m) if j != i]
    rhs = mon.power(base, s)
    if rest:
        rhs = mon.colon_by_monomial(rhs, mon.product_of_edges(G.n, rest))
    ok = mon.equals(lhs, rhs)
    return CheckResult(
        name, inst, "pass" if ok else "fail",
        {"lhs_gens": len(lhs.gens), "rhs_gens": len(rhs.gens)},
    )


def check_vwc_preservation(G, m, k):
    """For very well-covered G with odd-girth >= 2k+1 (k >= 3) and
    s = |m| <= k-2: the colon graph is very well-covered, and its induced
    matching number does not grow."""
    s = len(m)
    inst = _instance_id(G, m=m, k=k)
    name = "vwc_preservation"
    if k < 3:
        return _skipped(name, inst, "k < 3")
    if not is_very_well_covered(G):
        return _skipped(name, inst, "not very well-covered")
    reason = _odd_girth_below(G, 2 * k + 1)
    if reason:
        return _skipped(name, inst, reason)
    if s > k - 2:
        return _skipped(name, inst, "s > k-2")
    cg = colon_graph(G, m)
    Gp = cg.edge_graph()
    vwc = cg.is_squarefree and is_very_well_covered(Gp)
    nu, nu_p = induced_matching_number(G), induced_matching_number(Gp)
    ok = vwc and nu_p <= nu
    return CheckResult(
        name, inst, "pass" if ok else "fail",
        {"colon_vwc": vwc, "nu": nu, "nu_colon": nu_p},
    )


def _orbit_representatives(gens, perms):
    """The first member, in `gens` order, of each orbit of the monomials
    `gens` under the group the vertex permutations `perms` generate,
    where p sends x_v to x_p[v]; ValueError when a permutation maps a
    member outside `gens`."""
    index = {g: i for i, g in enumerate(gens)}
    index_perms = []
    for p in perms:
        inverse = [0] * len(p)
        for v, w in enumerate(p):
            inverse[w] = v
        image = [index.get(tuple([g[v] for v in inverse])) for g in gens]
        if None in image:
            raise ValueError(f"{p} maps a generator outside the ideal")
        index_perms.append(image)
    reps, seen = [], set()
    for i, g in enumerate(gens):
        if i not in seen:
            reps.append(g)
            seen |= _orbits((i,), index_perms)
    return reps


def check_banerjee_recursion(G, s):
    """reg(I^{s+1}) <= max( max_l reg((I^{s+1}:m_l)) + 2s, reg(I^s) )
    over the minimal generators m_l of I^s.

    An automorphism sigma of G permutes the variables and fixes I, so
    sigma(I^{s+1} : m) = I^{s+1} : sigma(m): the colons by one
    Aut(G)-orbit of generators are isomorphic, so the engines give them
    one regularity or raise alike on all of them.  One colon per orbit
    is computed, by its first member in `sorted_gens()` order, in that
    order; the maximum, and the first colon that raises, are those of
    the loop over every generator."""
    inst = _instance_id(G, s=s)
    name = "banerjee"
    if not G.edges:
        return _skipped(name, inst, "no edges")
    I = mon.edge_ideal(G)
    Is = mon.power(I, s)
    Is1 = mon.power(I, s + 1)
    try:
        lhs = regularity(Is1)
        rhs = regularity(Is)
        gens = Is.sorted_gens()
        for m_l in _orbit_representatives(gens, automorphism_generators(G)):
            colon = mon.colon_by_monomial(Is1, m_l)
            rhs = max(rhs, regularity(colon) + 2 * s)
    except (CapacityError, EngineDisagreement) as exc:
        return _unanswered(name, inst, exc)
    verdict = "pass" if lhs <= rhs else "fail"
    return CheckResult(name, inst, verdict, {"lhs": lhs, "rhs": rhs})


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

# Each check's calls on one graph G, as (function, args) pairs, given the
# powers S to try and multisets(s), the edge multisets of size s.
CHECKS = {
    "katzman": lambda G, S, multisets: [(check_katzman, (G,))],
    "bht": lambda G, S, multisets: [
        (check_bht_lower_bound, (G, s)) for s in S
    ],
    "main_theorem": lambda G, S, multisets: [
        (check_main_theorem, (G, derive_k(G, s), s)) for s in S
    ],
    "main_theorem_hunter": lambda G, S, multisets: [
        (check_main_theorem_hunter, (G, s)) for s in S
    ],
    "colon_squarefree_oddgirth": lambda G, S, multisets: [
        (check_colon_squarefree_and_oddgirth, (G, m, k))
        for s in S for k in [derive_k(G, s + 1)] for m in multisets(s)
    ],
    "lemma_colon_iteration": lambda G, S, multisets: [
        (check_lemma_colon_iteration, (G, m, i))
        for s in S for m in multisets(s)
        for i in sorted(set(m.index(e) for e in m))
    ],
    "vwc_preservation": lambda G, S, multisets: [
        (check_vwc_preservation, (G, m, k))
        for s in S for k in [derive_k(G, s + 2)] for m in multisets(s)
    ],
    "banerjee": lambda G, S, multisets: [
        (check_banerjee_recursion, (G, s)) for s in S
    ],
}

CHECK_NAMES = tuple(CHECKS)

# Edge multisets of size s <= 2 are taken exhaustively up to this many
# edges, and sampled beyond it.
MULTISET_EXHAUSTIVE_EDGE_LIMIT = 10


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class SweepParams:
    """How a sweep quantifies its checks; ValueError for a value of the
    wrong type or out of range, and for a power s listed twice."""

    s_values: tuple = (1, 2)
    seed: int = 0
    multiset_sample: int = 50
    jobs: int = 1
    timings: bool = False

    def __post_init__(self):
        s_values = self.s_values
        if not (
            isinstance(s_values, (list, tuple))
            and s_values
            and all(map(_is_int, s_values))
        ):
            raise ValueError(
                f"s_values must be a nonempty list of integers, "
                f"not {s_values!r}"
            )
        if min(s_values) < 1:
            raise ValueError(f"s must be positive, not {min(s_values)}")
        if len(set(s_values)) < len(s_values):
            raise ValueError(f"s_values must not repeat a power: {s_values!r}")
        self.s_values = tuple(s_values)
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, not {self.seed!r}")
        if not _is_int(self.multiset_sample) or self.multiset_sample < 1:
            raise ValueError(
                f"multiset_sample must be an integer of at least 1, "
                f"not {self.multiset_sample!r}"
            )
        if not _is_int(self.jobs) or self.jobs < 0:
            raise ValueError(
                f"jobs must be an integer of at least 0, not {self.jobs!r}"
            )
        if not isinstance(self.timings, bool):
            raise ValueError(
                f"timings must be true or false, not {self.timings!r}"
            )


def _edge_multisets(G, s, params, instance_index):
    """Deterministic multiset quantification: exhaustive for s <= 2 on
    small edge sets, otherwise a seeded sample; none without edges."""
    edges = list(G.sorted_edges)
    if not edges or (s <= 2 and len(edges) <= MULTISET_EXHAUSTIVE_EDGE_LIMIT):
        return list(itertools.combinations_with_replacement(edges, s))
    rng = random.Random(f"{params.seed}:{instance_index}:{s}")
    seen = set()
    for _ in range(params.multiset_sample * 4):
        m = tuple(sorted(rng.choice(edges) for _ in range(s)))
        seen.add(m)
        if len(seen) >= params.multiset_sample:
            break
    return sorted(seen)


def _run_checks_on_instance(args):
    G, idx, checks, params = args
    results = []
    for check in checks:
        calls = CHECKS[check](
            G, params.s_values, lambda s: _edge_multisets(G, s, params, idx)
        )
        for fn, fn_args in calls:
            t0 = time.perf_counter()
            res = fn(*fn_args)
            res.elapsed = time.perf_counter() - t0
            results.append(res)
    return results


@dataclass
class SweepReport:
    spec: dict  # the JSON object describing the graph stream
    checks: tuple
    params: SweepParams
    results: list

    @property
    def summary(self):
        out = {}
        for res in self.results:
            tally = out.setdefault(
                res.check,
                {"pass": 0, "fail": 0, "skipped": 0, "observation": 0},
            )
            # "error" is tallied only where one occurred, so reports
            # without errors keep their bytes.
            tally[res.verdict] = tally.get(res.verdict, 0) + 1
        return dict(sorted(out.items()))

    @property
    def fail_count(self):
        return sum(1 for r in self.results if r.verdict == "fail")

    def failures(self):
        return [r for r in self.results if r.verdict == "fail"]

    def errors(self):
        return [r for r in self.results if r.verdict == "error"]

    def to_json_obj(self):
        return {
            "spec": self.spec,
            "checks": list(self.checks),
            "field": "QQ",
            "version": __version__,
            "seed": self.params.seed,
            "s_values": list(self.params.s_values),
            "results": [
                r.to_json_obj(timings=self.params.timings)
                for r in self.results
            ],
            "summary": self.summary,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "instance", "verdict", "values"])
        for r in self.results:
            writer.writerow(
                [r.check, r.instance, r.verdict,
                 json.dumps(r.values, sort_keys=True)]
            )
        return buf.getvalue()


def run_sweep(spec, checks, params=None):
    """Apply each named check to every instance of the FamilySpec."""
    return sweep_graphs(spec.to_json_obj(), spec.instances(), checks, params)


def sweep_graphs(spec, graphs, checks, params=None):
    """Apply each named check to every graph in `graphs`, recording
    `spec`, a JSON object, as the stream's description.  Failures
    are collected, never raised; the report is deterministic for a fixed
    stream, checks, params, and version."""
    params = params or SweepParams()
    if not checks:
        raise ValueError(
            f"checks must name at least one check; available: "
            f"{', '.join(CHECK_NAMES)}"
        )
    for check in checks:
        if check not in CHECKS:
            raise ValueError(
                f"unknown check {check!r}; available: {', '.join(CHECK_NAMES)}"
            )
    tasks = [(G, i, tuple(checks), params) for i, G in enumerate(graphs)]
    if params.jobs > 1 and len(tasks) > 1:
        # Imported here, not at the top: `concurrent.futures` and the
        # `multiprocessing` it loads take about 16 ms of every import of
        # the package (`python -X importtime`, 2-core host).
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=params.jobs) as pool:
            chunks = list(pool.map(_run_checks_on_instance, tasks))
    else:
        chunks = [_run_checks_on_instance(t) for t in tasks]
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.check, r.instance))
    return SweepReport(spec, tuple(checks), params, results)
