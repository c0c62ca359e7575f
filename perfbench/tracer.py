"""Outside-in span tracer for the edgeideals layers.

Nothing in `src/` is modified: `install` rebinds each traced function at
the module attribute through which its callers look it up at call time,
and `uninstall` puts every original object back.  Spans are kept in
memory as flat records and turned into per-layer metrics (self time and
exact counts) after the traced pass.

A span's self time is its duration minus the time its child spans cover.
Traced calls are synchronous and single-threaded, so children of one span
never overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name).  Each entry rebinds `module.attribute`:
# the name the callers of that function resolve at call time.
#   verify  calls the check functions' helpers by the names it imported:
#           regularity, colon_graph and the graph predicates;
#   betti   calls faces_from_nonfaces and reduced_homology_ranks by the
#           names it imported from homology, and its own engines, lattice
#           and component homology through its module globals;
#   homology calls matrix_rank_exact through its module globals;
#   monomials is reached as `mon.power` / `mon.colon_by_monomial` from
#           verify, evenconn and betti, and calls minimalize internally;
#   the benchmark calls the check_* functions and both colon routes
#           through their module attributes.
REBINDINGS = (
    ("edgeideals.verify", "check_banerjee_recursion", "verify.check"),
    ("edgeideals.verify", "check_main_theorem", "verify.check"),
    ("edgeideals.verify", "canonical_key", "graphs"),
    ("edgeideals.verify", "is_very_well_covered", "graphs"),
    ("edgeideals.verify", "induced_matching_number", "graphs"),
    ("edgeideals.verify", "odd_girth", "graphs"),
    ("edgeideals.verify", "regularity", "betti.regularity"),
    ("edgeideals.verify", "colon_graph", "evenconn.colon_graph"),
    ("edgeideals.evenconn", "colon_graph", "evenconn.colon_graph"),
    ("edgeideals.evenconn", "colon_ideal_by_algebra",
     "evenconn.colon_ideal_by_algebra"),
    ("edgeideals.monomials", "power", "monomials.power"),
    ("edgeideals.monomials", "minimalize", "monomials.minimalize"),
    ("edgeideals.monomials", "colon_by_monomial",
     "monomials.colon_by_monomial"),
    ("edgeideals.betti", "betti_table_lcm", "betti.lcm"),
    ("edgeideals.betti", "lcm_lattice", "betti.lcm_lattice"),
    ("edgeideals.betti", "betti_table_hochster", "betti.hochster"),
    ("edgeideals.betti", "component_homology_poly",
     "betti.component_homology_poly"),
    ("edgeideals.betti", "faces_from_nonfaces",
     "homology.faces_from_nonfaces"),
    ("edgeideals.betti", "reduced_homology_ranks",
     "homology.reduced_homology_ranks"),
    ("edgeideals.homology", "matrix_rank_exact",
     "homology.matrix_rank_exact"),
)


# The count recorded on a span, per span name: from the positional
# arguments, taken before the call, or from the result, taken after it
# returns.
ARG_COUNTS = {
    "monomials.power": lambda args: args[1],  # s
    "monomials.minimalize": lambda args: len(args[1]),  # gens_in
    "homology.reduced_homology_ranks": lambda args: len(args[0]),  # faces_in
    "homology.matrix_rank_exact": lambda args: sum(map(len, args[0])),  # nnz_in
}
RESULT_COUNTS = {
    "homology.faces_from_nonfaces": len,  # faces_out
    "betti.lcm_lattice": len,  # elements
}

# Fields of one span record.
NAME, PARENT, START, END, COUNT, ERROR = range(6)


class Tracer:
    """Records one span per call of every rebound function."""

    def __init__(self, rebindings=REBINDINGS, clock=time.perf_counter):
        self.rebindings = rebindings
        self.clock = clock
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, self.clock
        arg_count = ARG_COUNTS.get(name)
        result_count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            if arg_count is not None:
                rec[COUNT] = arg_count(args)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[END] = clock()
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if result_count is not None:
                rec[COUNT] = result_count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every listed function; a target the code no longer has
        is recorded in `missing` and left untraced."""
        for modname, attr, name in self.rebindings:
            module = importlib.import_module(modname)
            if not hasattr(module, attr):
                self.missing.append(f"{modname}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self):
        """Restore every original function, in reverse order."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Self time of every span: duration minus its children's durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def has_children(spans):
    flags = [False] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            flags[s[PARENT]] = True
    return flags


def _engine_of(spans):
    """For each span, the Betti engine span (lcm or hochster) it runs
    under, or None.  Parents precede children in the record list."""
    engine = [None] * len(spans)
    for i, s in enumerate(spans):
        if s[NAME] in ("betti.lcm", "betti.hochster"):
            engine[i] = s[NAME]
        elif s[PARENT] >= 0:
            engine[i] = engine[s[PARENT]]
    return engine


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric names, in report order.  `.self_s` metrics are times;
# every other metric is an exact count or a ratio of exact counts.
LAYER_METRICS = (
    "monomials.power.self_s",
    "monomials.power.calls",
    "monomials.power.cache_hit_ratio",
    "monomials.minimalize.self_s",
    "monomials.minimalize.gens_in",
    "monomials.colon_by_monomial.self_s",
    "monomials.colon_by_monomial.calls",
    "betti.regularity.calls",
    "betti.regularity.cache_hit_ratio",
    "betti.lcm.self_s",
    "betti.lcm.calls",
    "betti.lcm.capacity_errors",
    "betti.lcm_lattice.self_s",
    "betti.lcm_lattice.elements",
    "betti.lcm.interval_hit_ratio",
    "betti.hochster.self_s",
    "betti.hochster.calls",
    "betti.hochster.capacity_errors",
    "betti.component_homology_poly.self_s",
    "betti.component_homology_poly.calls",
    "betti.component_homology_poly.memo_hit_ratio",
    "homology.faces_from_nonfaces.self_s",
    "homology.faces_from_nonfaces.calls",
    "homology.faces_from_nonfaces.faces_out",
    "homology.reduced_homology_ranks.self_s",
    "homology.reduced_homology_ranks.calls",
    "homology.reduced_homology_ranks.faces_in",
    "homology.matrix_rank_exact.self_s",
    "homology.matrix_rank_exact.calls",
    "homology.matrix_rank_exact.nnz_in",
    "evenconn.colon_graph.self_s",
    "evenconn.colon_graph.calls",
    "evenconn.colon_ideal_by_algebra.self_s",
    "graphs.self_s",
    "verify.check.self_s",
)


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    own = self_times(spans)
    parent_of = has_children(spans)
    engine = _engine_of(spans)
    self_s, calls, counts, errors = {}, {}, {}, {}
    power_multi = power_hits = 0
    reg_hits = comp_hits = lcm_homology_calls = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if s[COUNT] is not None:
            counts[name] = counts.get(name, 0) + s[COUNT]
        if s[ERROR] == "CapacityError":
            errors[name] = errors.get(name, 0) + 1
        if name == "monomials.power" and s[COUNT] > 1:
            power_multi += 1
            power_hits += not parent_of[i]
        elif name == "betti.regularity":
            reg_hits += not parent_of[i]
        elif name == "betti.component_homology_poly":
            comp_hits += not parent_of[i]
        elif (name == "homology.reduced_homology_ranks"
              and engine[i] == "betti.lcm"):
            lcm_homology_calls += 1

    out = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif field == "calls":
            out[metric] = calls.get(layer, 0)
        elif field == "capacity_errors":
            out[metric] = errors.get(layer, 0)
        elif field in ("gens_in", "faces_out", "faces_in", "nnz_in",
                       "elements"):
            out[metric] = counts.get(layer, 0)
    out["monomials.power.cache_hit_ratio"] = _ratio(power_hits, power_multi)
    out["betti.regularity.cache_hit_ratio"] = _ratio(
        reg_hits, calls.get("betti.regularity", 0))
    out["betti.component_homology_poly.memo_hit_ratio"] = _ratio(
        comp_hits, calls.get("betti.component_homology_poly", 0))
    elements = counts.get("betti.lcm_lattice", 0)
    out["betti.lcm.interval_hit_ratio"] = (
        1.0 - lcm_homology_calls / elements if elements else 0.0)
    return out


def write_spans(spans, path):
    """Write one traced pass as tab-separated span records."""
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index\tparent\tname\tstart_s\tduration_s\tcount\terror\n")
        for i, s in enumerate(spans):
            count = "" if s[COUNT] is None else s[COUNT]
            fh.write(
                f"{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START] - t0:.9f}\t"
                f"{s[END] - s[START]:.9f}\t{count}\t{s[ERROR] or ''}\n"
            )
