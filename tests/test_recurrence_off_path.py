"""Consumers of J(tau) and Jbar never run the sigma_k / Q_k recurrence.

The recurrence is replaced by a function that raises; every consumer of the
forest matrices, library and CLI, must still return.  Only the readers of
the layers themselves (sigma_k, Q_k, J_k) may run it.
"""

import json
import math
from pathlib import Path

import pytest

from forestcalc import (
    calculus,
    check_condition,
    cli,
    daniels_scores_strong,
    forest_stack,
    generalized_borda,
    in_accessibility,
    load_digraph,
    max_forest_matrix,
    mean_score,
    out_accessibility,
    parametric_matrices,
    rank_order,
    reachability_from_parametric,
    score_basis,
    source_knots_from_matrix,
    top_reachability,
    uniform_start_distribution,
)
from forestcalc.accessibility import CONDITIONS
from forestcalc.markov import cesaro_limit, inverse_corresponding_chain, verify_tree_theorem

from conftest import WRONG_FROM_N8

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


@pytest.fixture
def no_recurrence(monkeypatch):
    def refuse(lap, m):
        raise AssertionError("the forest recurrence ran")

    forest_stack.cache_clear()
    monkeypatch.setattr(calculus, "_recurrence", refuse)
    yield
    forest_stack.cache_clear()


@pytest.fixture
def digraphs():
    return [load_digraph((SAMPLES / "weighted.txt").read_text()), load_digraph(WRONG_FROM_N8)]


def test_recurrence_is_really_disabled(no_recurrence, p3):
    with pytest.raises(AssertionError):
        forest_stack(p3).sigmas


def test_library_consumers(no_recurrence, digraphs, cycle2):
    for g in digraphs:
        stack = forest_stack(g)
        jbar = max_forest_matrix(stack)
        parametric_matrices(stack, stack.lap, 1.0)
        reachability_from_parametric(g, 0.5)
        top_reachability(jbar)
        source_knots_from_matrix(jbar)
        for tau in (1.0, math.inf):
            out_accessibility(g, tau)
            in_accessibility(g, tau)
        rank_order(mean_score(g))
        score_basis(g)
        generalized_borda(g, 1.0)
        chain = inverse_corresponding_chain(g)
        verify_tree_theorem(g, chain, cesaro_limit(chain))
        uniform_start_distribution(g)
    daniels_scores_strong(cycle2)


def test_all_conditions(no_recurrence, digraphs):
    g = digraphs[0]
    for condition in CONDITIONS:
        for direction in ("out", "in"):
            check_condition(g, condition, direction=direction, tau=1.0)
            check_condition(g, condition, direction=direction, tau=math.inf, mode="nonstrict")


@pytest.mark.parametrize(
    "args",
    [
        ("reach",),
        ("knots", "--tau", "0.5"),
        ("access", "--tau", "inf"),
        ("access", "--direction", "in"),
        ("access", "--check", "monotonicity:A"),
        ("rank",),
        ("rank", "--method", "borda"),
        ("markov",),
    ],
)
def test_cli_commands(no_recurrence, capsys, args):
    for sample in ("weighted.txt", "two_sources.txt"):
        assert cli.main([*args, "--input", str(SAMPLES / sample)]) == 0
        json.loads(capsys.readouterr().out)
