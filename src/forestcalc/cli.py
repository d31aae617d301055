"""Command-line front end: edge-list files in, deterministic JSON out.

Matrices are serialized as row-major arrays with 1-based vertex semantics;
floats carry 17 significant digits so doubles round-trip exactly.  Exit
codes: 0 success, 1 domain error (with an error JSON document), 2 usage
error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .accessibility import (
    check_condition,
    in_accessibility,
    out_accessibility,
    small_tau_monotonicity_probe,
)
from .calculus import finite_tau, forest_stack, max_forest_matrix, forest_dimension
from .digraph import Digraph, load_digraph, source_knots
from .markov import cesaro_limit, dissemination_estimate, inverse_corresponding_chain, verify_tree_theorem
from .ranking import daniels_scores_strong, generalized_borda, mean_score, rank_order
from .structure import reachability_from_parametric, top_reachability
from .verification import verify_suite

LABELING = "row-major, 1-based vertex labels"


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            raise ValueError("a result is NaN, which has no JSON form")
        if math.isinf(value):
            return '"inf"'
        return f"{value:.17g}"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, dict):
        items = ", ".join(f"{_format(str(k))}: {_format(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, np.ndarray):
        return _format(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit(document: dict) -> None:
    sys.stdout.write(_format(document) + "\n")


def _envelope(command: str, parameters: dict) -> dict:
    return {
        "tool": "forestcalc",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "labeling": LABELING,
    }


def _load(path: str) -> Digraph:
    return load_digraph(Path(path).read_text())


def _exact_mode() -> bool:
    return os.environ.get("FOREST_CALC_EXACT", "") == "1"


def _matrix(values) -> list:
    return np.asarray(values, dtype=float).tolist()


def _cmd_forests(args) -> dict:
    g = _load(args.input)
    exact = _exact_mode()
    stack = forest_stack(g, exact=exact)
    doc = _envelope("forests", {"input": args.input, "exact": exact})
    doc.update(
        {
            "n": g.n,
            "sigmas": [float(s) for s in stack.sigmas],
            "d_prime": forest_dimension(stack, g),
            "jbar": _matrix(max_forest_matrix(stack).entries),
        }
    )
    return doc


def _cmd_structure(args) -> dict:
    g = _load(args.input)
    tau = finite_tau(args.tau)
    sk = forest_stack(g).knots
    doc = _envelope(args.command, {"input": args.input, "tau": tau})
    doc.update(
        {
            "knots": [sorted(knot) for knot in sk.knots],
            "d_prime": sk.d_prime,
            "reachability": reachability_from_parametric(g, tau).tolist(),
            "top_reachability": top_reachability(max_forest_matrix(forest_stack(g))).entries.tolist(),
        }
    )
    return doc


def _parse_tau(text: str) -> float:
    tau = float(text)
    return tau if tau == math.inf else finite_tau(tau)


def _cmd_access(args) -> dict:
    g = _load(args.input)
    tau = _parse_tau(args.tau)
    params = {
        "input": args.input,
        "tau": tau,
        "direction": args.direction,
        "mode": args.mode,
    }
    if args.check:
        name, _, variant = args.check.partition(":")
        params["check"] = args.check
        if name == "addition-to-monotonicity":
            # experimental small-tau observation; runs at its own parameter
            params["tau"] = 1e-3
            report = small_tau_monotonicity_probe(g, tau=1e-3, direction=args.direction)
        else:
            report = check_condition(
                g, name, direction=args.direction, tau=tau,
                variant=variant or None, mode=args.mode,
            )
        doc = _envelope("access", params)
        doc["report"] = report.as_dict()
        return doc
    measure = out_accessibility(g, tau) if args.direction == "out" else in_accessibility(g, tau)
    doc = _envelope("access", params)
    doc["proximity"] = _matrix(measure.entries)
    return doc


def _cmd_rank(args) -> dict:
    g = _load(args.input)
    params = {
        "input": args.input,
        "method": args.method,
        "tau": finite_tau(args.tau),
        "degrees": args.degrees,
    }
    if args.method == "mean-jbar":
        scores = mean_score(g)
    elif args.method == "daniels":
        scores = daniels_scores_strong(g)
    else:
        scores = generalized_borda(g, args.tau, args.degrees)
    doc = _envelope("rank", params)
    doc.update(
        {
            "scores": scores.values.tolist(),
            "ranking": rank_order(scores),
            "d_prime": source_knots(g).d_prime,
        }
    )
    return doc


def _cmd_markov(args) -> dict:
    g = _load(args.input)
    chain = inverse_corresponding_chain(g, args.alpha)
    limit = cesaro_limit(chain, tol=args.tol, t_max=args.tmax)
    ok, deviation = verify_tree_theorem(g, chain, limit)
    doc = _envelope(
        "markov",
        {"input": args.input, "alpha": chain.alpha, "tol": args.tol, "tmax": args.tmax},
    )
    doc.update(
        {
            "transition": _matrix(chain.transition),
            "cesaro": _matrix(limit.matrix),
            "iterations": limit.iterations,
            "residual": limit.residual,
            "matches_forest_projection": ok,
            "max_deviation": deviation,
        }
    )
    return doc


def _cmd_simulate(args) -> dict:
    g = _load(args.input)
    estimate = dissemination_estimate(g, args.trials, args.seed)
    doc = _envelope("simulate", {"input": args.input, "trials": args.trials, "seed": args.seed})
    doc.update(
        {
            "estimate": _matrix(estimate.estimate),
            "trials": estimate.trials,
            "successes": estimate.successes,
        }
    )
    return doc


def _cmd_verify(args) -> dict:
    g = _load(args.input)
    result = verify_suite(g)
    doc = _envelope("verify", {"input": args.input})
    doc.update(result)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestcalc",
        description="Spanning-forest matrix analysis of weighted digraphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="edge-list file")
        p.set_defaults(func=func)
        return p

    add("forests", _cmd_forests, "forest weights, dimension, and the projection matrix")
    for name in ("reach", "knots"):
        p = add(name, _cmd_structure, "reachability and source-knot report")
        p.add_argument("--tau", type=float, default=1.0)
    p = add("access", _cmd_access, "accessibility measures and condition checks")
    p.add_argument("--tau", default="1", help="positive real or 'inf'")
    p.add_argument("--direction", choices=("out", "in"), default="out")
    p.add_argument("--check", default=None, help="condition[:variant]")
    p.add_argument("--mode", choices=("strict", "nonstrict"), default="strict")
    p = add("rank", _cmd_rank, "score vectors and rankings")
    p.add_argument("--method", choices=("mean-jbar", "borda", "daniels"), default="mean-jbar")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--degrees", choices=("weighted", "count"), default="weighted")
    p = add("markov", _cmd_markov, "inversely corresponding chain and its Cesaro limit")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--tmax", type=int, default=2**40)
    p = add("simulate", _cmd_simulate, "Monte-Carlo dissemination estimate")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    add("verify", _cmd_verify, "cross-check every identity against enumeration")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = args.func(args)
        text = _format(document)
    except (ValueError, ArithmeticError, OSError) as err:
        emit(
            {
                "tool": "forestcalc",
                "version": __version__,
                "command": args.command,
                "error": {"type": type(err).__name__, "message": str(err)},
            }
        )
        return 1
    sys.stdout.write(text + "\n")
    if args.command == "verify" and not document.get("all_pass", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
