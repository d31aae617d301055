"""The benchmark's calls into forestcalc, one function per operation kind.

Imported by worker.py only when a round needs the program in-process, so
that a worker driving CLI processes stays small (a child's peak-memory
figure starts from its parent's).  Each operation calls the program
through ``t.call(layer, fn, ...)`` and returns a function that converts the
results to plain data; the conversion runs after the operation's timing.
Producers are called before their consumers (forest_stack before the
matrix consumers, enumerate_out_forests before verify_suite), so that each
consumer's span holds its own work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

from forestcalc import (
    Digraph,
    cesaro_limit,
    check_condition,
    cli,
    column_laplacian,
    daniels_scores_strong,
    dissemination_estimate,
    enumerate_out_forests,
    forest_stack,
    generalized_borda,
    in_accessibility,
    inverse_corresponding_chain,
    load_digraph,
    max_forest_matrix,
    mean_score,
    out_accessibility,
    parametric_matrices,
    rank_order,
    reachability_from_parametric,
    reverse,
    score_basis,
    source_knots,
    source_knots_from_matrix,
    top_reachability,
    top_reachability_by_threshold,
    verify_suite,
    verify_tree_theorem,
)
from forestcalc.calculus import forest_dimension

CONDITIONS = ("nonnegativity", "reachability-condition", "self-accessibility",
              "triangle-inequality", "transit-property", "monotonicity", "convexity")
PARTITIONED = {"self-accessibility", "triangle-inequality", "transit-property",
               "monotonicity", "convexity"}


def cache_counts() -> tuple[int, int, int, int]:
    fs, en = forest_stack.cache_info(), enumerate_out_forests.cache_info()
    return fs.hits, fs.misses, en.hits, en.misses


def cache_entries() -> tuple[int, int]:
    return forest_stack.cache_info().currsize, enumerate_out_forests.cache_info().currsize


def clear_caches() -> None:
    forest_stack.cache_clear()
    enumerate_out_forests.cache_clear()


def _knot_lists(sk) -> tuple:
    return tuple(sk.knots), tuple(sk.exclusive_reach)


def _forest_total(fs) -> int:
    return sum(len(f) for f in fs.by_arc_count.values())


def op_analyse(t, item):
    g = t.call("digraph.load_digraph", load_digraph, item["text"])
    rev = t.call("digraph.reverse", reverse, g)
    stack = t.call("calculus.forest_stack", forest_stack, g)
    rstack = t.call("calculus.forest_stack", forest_stack, rev)
    lap = t.call("laplacian.column_laplacian", column_laplacian, g)
    jbar = t.call("calculus.max_forest_matrix", max_forest_matrix, stack)
    d = t.call("calculus.forest_dimension", forest_dimension, stack, g)
    pm = t.call("calculus.parametric_matrices", parametric_matrices, stack, lap, 1.0)
    sk = t.call("digraph.source_knots", source_knots, g)
    reach = t.call("structure.reachability_from_parametric", reachability_from_parametric, g, 1.0)
    skm = t.call("structure.source_knots_from_matrix", source_knots_from_matrix, jbar)
    top = t.call("structure.top_reachability", top_reachability, jbar)
    out1 = t.call("accessibility.out_accessibility", out_accessibility, g, 1.0)
    outinf = t.call("accessibility.out_accessibility", out_accessibility, g, math.inf)
    in1 = t.call("accessibility.in_accessibility", in_accessibility, g, 1.0)
    ininf = t.call("accessibility.in_accessibility", in_accessibility, g, math.inf)
    mean = t.call("ranking.mean_score", mean_score, g)
    rank_mean = t.call("ranking.rank_order", rank_order, mean)
    borda = t.call("ranking.generalized_borda", generalized_borda, g, 1.0)
    rank_borda = t.call("ranking.rank_order", rank_order, borda)
    chain = t.call("markov.inverse_corresponding_chain", inverse_corresponding_chain, g)
    limit = t.call("markov.cesaro_limit", cesaro_limit, chain)
    tree_ok, _ = t.call("markov.verify_tree_theorem", verify_tree_theorem, g, chain, limit)

    def plain():
        knots, exclusive = _knot_lists(sk)
        knots_m, exclusive_m = _knot_lists(skm)
        return {
            "n": g.n, "arcs": tuple(tuple(a) for a in g.arcs),
            "m": stack.m, "rstack_m": rstack.m, "d_prime": d,
            "lap": lap.entries, "jbar": jbar.entries, "jtau": pm.j_tau,
            "knots": knots, "exclusive": exclusive,
            "knots_matrix": knots_m, "exclusive_matrix": exclusive_m,
            "reach": reach, "top": top.entries,
            "out1": out1.entries, "outinf": outinf.entries,
            "in1": in1.entries, "ininf": ininf.entries,
            "mean": mean.values, "rank_mean": rank_mean,
            "borda": borda.values, "rank_borda": rank_borda,
            "transition": chain.transition, "alpha": chain.alpha,
            "cesaro": limit.matrix, "iterations": limit.iterations, "tree_ok": bool(tree_ok),
        }
    return plain


def op_conditions(t, item):
    g = item["g"]
    rev = t.call("digraph.reverse", reverse, g)
    stack = t.call("calculus.forest_stack", forest_stack, g)
    rstack = t.call("calculus.forest_stack", forest_stack, rev)
    reports = []
    for condition in CONDITIONS:
        layer = "accessibility.monotonicity" if condition == "monotonicity" else "accessibility.check_condition"
        for direction, half in (("out", "A"), ("in", "B")):
            variant = half if condition in PARTITIONED else None
            report = t.call(layer, check_condition, g, condition, direction=direction,
                            tau=1.0, variant=variant, mode="strict")
            reports.append((condition, direction, variant, report.verdict))
    return lambda: {"reports": reports, "m": stack.m, "rstack_m": rstack.m}


def op_verify(t, item):
    g = item["g"]
    rev = t.call("digraph.reverse", reverse, g)
    fs = t.call("oracle.enumerate_out_forests", enumerate_out_forests, g)
    fsr = t.call("oracle.enumerate_out_forests", enumerate_out_forests, rev)
    t.call("calculus.forest_stack", forest_stack, g)
    result = t.call("verification.verify_suite", verify_suite, g)

    def plain():
        return {
            "all_pass": result["all_pass"], "checks": result["checks"],
            "forest_sigmas": {"g": {k: fs.sigma(k) for k in fs.by_arc_count},
                              "reverse": {k: fsr.sigma(k) for k in fsr.by_arc_count}},
            "forest_counts": {"g": {k: len(v) for k, v in fs.by_arc_count.items()},
                              "reverse": {k: len(v) for k, v in fsr.by_arc_count.items()}},
            "forests": _forest_total(fs) + _forest_total(fsr),
        }
    return plain


def op_dissemination(t, item):
    g = item["g"]
    fs = t.call("oracle.enumerate_out_forests", enumerate_out_forests, g)
    est = t.call("markov.dissemination_estimate", dissemination_estimate, g, item["trials"], item["seed"])
    return lambda: {"estimate": est.estimate, "successes": est.successes, "forests": _forest_total(fs)}


def op_score_basis(t, item):
    g = item["g"]
    t.call("calculus.forest_stack", forest_stack, g)
    basis = t.call("ranking.score_basis", score_basis, g)
    return lambda: {"columns": basis.columns, "knots": basis.knots, "reps": basis.representatives}


def op_exact_stack(t, item):
    stack = t.call("calculus.exact_stack", forest_stack, item["g"], exact=True)
    return lambda: {"sigmas": list(stack.sigmas), "m": stack.m,
                    "jbar": [list(row) for row in stack.j_matrices[-1]]}


def op_threshold(t, item):
    top = t.call("structure.top_reachability_by_threshold", top_reachability_by_threshold, item["g"])
    return lambda: {"top": top.entries}


def op_daniels(t, item):
    g = item["g"]
    t.call("calculus.forest_stack", forest_stack, g)
    fs = t.call("oracle.enumerate_out_forests", enumerate_out_forests, g)
    scores = t.call("ranking.daniels_scores_strong", daniels_scores_strong, g)
    return lambda: {"values": scores.values, "forests": _forest_total(fs)}


def cli_in_process(t, item) -> dict:
    """The same command through cli.main(argv) in this process, stdout captured.

    The caches are emptied first, as a fresh process would have them.
    """
    clear_caches()
    t.call("digraph.load_digraph", load_digraph, item["text"])
    buffer = io.StringIO()
    saved = os.environ.get("FOREST_CALC_EXACT")
    os.environ["FOREST_CALC_EXACT"] = "1" if item["exact"] else ""
    try:
        with contextlib.redirect_stdout(buffer):
            code = t.call("cli.main", cli.main, item["argv"][3:])
    except SystemExit as exit_:  # argparse rejects the arguments
        code = exit_.code
    finally:
        if saved is None:
            del os.environ["FOREST_CALC_EXACT"]
        else:
            os.environ["FOREST_CALC_EXACT"] = saved
    stdout = buffer.getvalue()
    return {"command": item["command"], "exact": item["exact"], "returncode": code,
            "stdout": stdout, "stderr": "", "bytes_out": len(stdout.encode())}


OPERATIONS = {
    "analyse": op_analyse,
    "conditions": op_conditions,
    "verify": op_verify,
    "dissemination": op_dissemination,
    "score_basis": op_score_basis,
    "exact_stack": op_exact_stack,
    "threshold": op_threshold,
    "daniels": op_daniels,
}


def with_digraph(item: dict) -> dict:
    """Untimed set-up: the Digraph object an operation receives."""
    return dict(item, g=Digraph.build(item["n"], item["arcs"]))


def self_test_outputs(inputs: dict, tracer) -> dict:
    """Plain outputs of the program on the self-test cases."""
    out = {}
    for name, (workload, item) in inputs.items():
        op = OPERATIONS[item.get("kind", workload)]
        out[name] = op(tracer, with_digraph(item))()
    return out
