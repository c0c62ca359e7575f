"""Command-line front door.

Thin adapters only: every computation lives behind the library modules.
Exit codes: 0 success / no failures, 1 verification failures or engine
errors found, 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import monomials as mon
from .betti import CapacityError, EngineDisagreement, betti_table
from .evenconn import EvenConnectionError, colon_graph, colon_ideal_by_algebra
from .generators import FAMILY_KINDS, FamilySpec, GenerationError
from .graphs import (
    EdgeListParseError,
    GraphError,
    find_vwc_certificate,
    from_edge_list,
    induced_matching_number,
    is_unmixed,
    is_very_well_covered,
    odd_girth,
    to_edge_list,
)
from .verify import (
    CHECK_NAMES,
    SweepParams,
    odd_girth_json,
    run_sweep,
    sweep_graphs,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


class CliError(Exception):
    """Bad input or configuration; maps to exit code 2."""


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return from_edge_list(text)
    except EdgeListParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_edges(text):
    """Parse '--edges 1-2,2-3' into a list of vertex pairs."""
    out = []
    for part in text.split(","):
        part = part.strip()
        bits = part.split("-")
        if len(bits) != 2:
            raise CliError(f"bad edge {part!r}; expected 'u-v'")
        try:
            out.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise CliError(f"bad edge {part!r}: {exc}") from exc
    if not out:
        raise CliError("--edges needs at least one edge")
    return out


def _emit(obj, fmt, render_text):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(render_text(obj))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    G = _load_graph(args.graph)
    if not G.edges:
        raise CliError("the graph has no edges")
    cert = find_vwc_certificate(G)
    obj = {
        "n": G.n,
        "edges": [list(e) for e in G.sorted_edges],
        "edge_count": len(G.edges),
        "odd_girth": odd_girth_json(odd_girth(G)),
        "induced_matching_number": induced_matching_number(G),
        "unmixed": is_unmixed(G),
        "very_well_covered": is_very_well_covered(G),
        "certificate": [list(e) for e in cert] if cert else None,
    }

    def text(o):
        lines = [
            f"n = {o['n']}, |E| = {o['edge_count']}",
            f"odd-girth = {o['odd_girth']}",
            f"induced matching number = {o['induced_matching_number']}",
            f"unmixed = {o['unmixed']}",
            f"very well-covered = {o['very_well_covered']}",
        ]
        if o["certificate"]:
            pairs = " ".join(f"{u}-{v}" for u, v in o["certificate"])
            lines.append(f"matching certificate: {pairs}")
        return "\n".join(lines)

    _emit(obj, args.format, text)
    return EXIT_OK


def cmd_regularity(args):
    G = _load_graph(args.graph)
    if not G.edges:
        raise CliError("the graph has no edges")
    if args.power < 1:
        raise CliError("--power must be >= 1")
    I = mon.power(mon.edge_ideal(G), args.power)
    engines = ("lcm", "hochster") if args.engine == "both" else (args.engine,)
    try:
        table = betti_table(I, engines)
    except CapacityError as exc:
        raise CliError(f"capacity exceeded: {exc}") from exc
    obj = {
        "power": args.power,
        "engines": list(table.engines),
        "generators": len(I.gens),
        "regularity": table.regularity(),
        "betti": table.to_json_obj(),
    }

    def text(o):
        return (
            f"reg(I(G)^{o['power']}) = {o['regularity']}  "
            f"[answered by {'+'.join(o['engines'])}, "
            f"{o['generators']} generators]\n"
            + table.text_triangle()
        )

    _emit(obj, args.format, text)
    return EXIT_OK


def cmd_colon(args):
    G = _load_graph(args.graph)
    edges = _parse_edges(args.edges)
    try:
        cg = colon_graph(G, edges)
    except EvenConnectionError as exc:
        raise CliError(str(exc)) from exc
    oracle = colon_ideal_by_algebra(G, edges)
    agree = mon.equals(cg.as_ideal(), oracle)
    if args.format == "dot":
        print(cg.to_dot(G))
        return EXIT_OK if agree else EXIT_FAIL
    obj = {
        "product": [list(e) for e in sorted(tuple(sorted(e)) for e in edges)],
        "new_edges": [list(e) for e in cg.new_edges(G)],
        "squares": sorted(cg.squares),
        "squarefree": cg.is_squarefree,
        "colon_odd_girth": odd_girth_json(odd_girth(cg.edge_graph())),
        "oracle_agrees": agree,
    }

    def text(o):
        lines = [
            "new edges: "
            + (" ".join(f"{u}-{v}" for u, v in o["new_edges"]) or "(none)"),
            "squares: "
            + (" ".join(str(v) for v in o["squares"]) or "(none)"),
            f"squarefree = {o['squarefree']}",
            f"colon graph odd-girth = {o['colon_odd_girth']}",
            f"oracle agrees = {o['oracle_agrees']}",
        ]
        return "\n".join(lines)

    _emit(obj, args.format, text)
    return EXIT_OK if agree else EXIT_FAIL


_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(SweepParams))
_SWEEP_KEYS = ("family", "checks") + _PARAM_KEYS


def _params_from_args(args, config=None):
    """Sweep parameters from the flags merged over the config's; CliError
    for a value that SweepParams rejects."""
    given = {k: v for k, v in (config or {}).items() if k in _PARAM_KEYS}
    for key in ("s_values", "seed", "jobs"):
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    if args.timings:
        given["timings"] = True
    try:
        return SweepParams(**given)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_verify(args):
    G = _load_graph(args.graph)
    spec = {
        "kind": "inline",
        "n": G.n,
        "edges": [list(e) for e in G.sorted_edges],
    }
    checks = CHECK_NAMES if args.checks is None else args.checks
    try:
        report = sweep_graphs(spec, [G], checks, _params_from_args(args))
    except ValueError as exc:  # no check, an unknown one, or a bad power
        raise CliError(str(exc)) from exc
    _emit(
        report.to_json_obj(),
        args.format,
        lambda o: _render_report_text(report),
    )
    return _exit_code(report)


def _exit_code(report):
    return EXIT_FAIL if report.fail_count or report.errors() else EXIT_OK


def _render_report_text(report):
    lines = []
    for check, tally in report.summary.items():
        lines.append(
            f"{check}: pass={tally['pass']} fail={tally['fail']} "
            f"skipped={tally['skipped']} observation={tally['observation']}"
        )
    for r in report.failures():
        lines.append(f"FAIL {r.check} {r.instance} {r.values}")
    for r in report.errors():
        lines.append(f"ERROR {r.check} {r.instance} {r.values}")
    lines.append(f"total failures: {report.fail_count}")
    return "\n".join(lines)


def cmd_sweep(args):
    if not args.config:
        raise CliError("sweep needs --config FILE")
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.config}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError("bad sweep config: not a JSON object")
    unknown = sorted(set(config) - set(_SWEEP_KEYS))
    if unknown:
        raise CliError(f"unknown sweep config key(s): {', '.join(unknown)}")
    try:
        spec = FamilySpec.from_json_obj(config["family"])
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad sweep config: {exc}") from exc
    checks = config.get("checks", list(CHECK_NAMES))
    if not (
        isinstance(checks, list) and all(isinstance(c, str) for c in checks)
    ):
        raise CliError(f"checks must be a list of check names, not {checks!r}")
    params = _params_from_args(args, config)
    try:
        report = run_sweep(spec, checks, params)
    except ValueError as exc:  # no check, an unknown one, or a bad power
        raise CliError(str(exc)) from exc
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        json_path = os.path.join(args.out, "report.json")
        csv_path = os.path.join(args.out, "report.csv")
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"wrote {json_path} and {csv_path}")
        print(_render_report_text(report))
    elif args.format == "csv":
        print(report.to_csv(), end="")
    elif args.format == "json":
        print(report.to_json(), end="")
    else:
        print(_render_report_text(report))
    return _exit_code(report)


# The `generate` flags that describe a family: one per `FamilySpec` field,
# each named as its config key.
_FAMILY_FLAGS = tuple(f.name for f in dataclasses.fields(FamilySpec))


def cmd_generate(args):
    given = {
        key: getattr(args, key)
        for key in _FAMILY_FLAGS
        if getattr(args, key) is not None
    }
    if args.config:
        if given:
            flags = ", ".join("--" + key.replace("_", "-") for key in given)
            raise CliError(
                f"--config describes the whole family; drop {flags}"
            )
        try:
            with open(args.config, encoding="utf-8") as fh:
                spec = FamilySpec.from_json_obj(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise CliError(f"bad family config: {exc}") from exc
    else:
        if not args.kind:
            raise CliError("generate needs --kind or --config")
        try:
            spec = FamilySpec.from_json_obj(given)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    graphs = spec.instances()
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"n": G.n, "edges": [list(e) for e in G.sorted_edges]}
                    for G in graphs
                ],
                sort_keys=True,
                indent=2,
            )
        )
    else:
        docs = [to_edge_list(G) for G in graphs]
        print("\n".join(docs), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgeideals",
        description=(
            "Exact computations on edge ideals of graphs: regularity of "
            "powers, colon-ideal graphs by even-connection, very "
            "well-covered graph families, and theorem verification sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=False, formats=("json", "text")):
        p.add_argument("--format", choices=formats, default="text")
        if graph:
            p.add_argument("--graph", required=True,
                           help="edge-list file ('n <count>' header, one edge per line)")

    p = sub.add_parser("analyze", help="graph invariants and vwc certificate")
    common(p, graph=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("regularity", help="reg(I(G)^s) and the Betti table")
    common(p, graph=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--engine", choices=("lcm", "hochster", "both"),
                   default="both")
    p.set_defaults(fn=cmd_regularity)

    p = sub.add_parser("colon", help="colon graph of (I^{s+1} : e_1...e_s)")
    common(p, graph=True, formats=("json", "text", "dot"))
    p.add_argument("--edges", required=True, help="edge product, e.g. '1-2,2-3'")
    p.set_defaults(fn=cmd_colon)

    p = sub.add_parser("verify", help="run theorem checks on one graph")
    common(p, graph=True)
    p.add_argument("--checks", nargs="*", metavar="CHECK")
    p.add_argument("--s-values", dest="s_values", type=int, nargs="+")
    p.add_argument("--seed", type=int)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="run a verification sweep from a config")
    common(p, formats=("json", "text", "csv"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="directory for report.json / report.csv")
    p.add_argument("--s-values", dest="s_values", type=int, nargs="+")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=_nonnegative_int)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("generate", help="emit graph families as edge lists")
    common(p)
    p.add_argument("--config")
    p.add_argument("--kind", choices=FAMILY_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--density", type=float,
                   help="random-vwc cross-edge density (default 0.3)")
    p.add_argument("--seed", type=int)
    p.add_argument("--odd-girth-min", dest="odd_girth_min", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--names", nargs="*", help="e.g. C5 P4 'corona(C7)'")
    p.set_defaults(fn=cmd_generate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except (
        CliError,
        GraphError,
        GenerationError,
        mon.IdealError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except EngineDisagreement as exc:  # a fault in an engine, not the input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # The reader stopped reading (e.g. `| head`).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
