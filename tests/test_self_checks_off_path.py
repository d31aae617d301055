"""The library does not check itself: forest enumeration and the Cesaro limit
stay off every consumer's path.

Both are replaced, in every forestcalc module that holds them, by functions
that raise.  The score, Markov and dense-matrix consumers and the CLI `rank`
command must still return on a strongly connected 8-vertex digraph with 24
arcs, where enumerating the forests of the knot means 2^24 arc subsets.
Only `verify_suite`, the `markov` command and `dissemination_estimate` may
run them.
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from forestcalc import (
    Digraph,
    cli,
    daniels_scores_strong,
    dense_forest_matrix,
    forest_stack,
    max_forest_matrix,
    mean_score,
    score_basis,
    uniform_start_distribution,
    verify_suite,
)
from forestcalc import markov, oracle

# cycle 1 -> 2 -> ... -> 8 -> 1 with chords i -> i+2 and i -> i+3 (mod 8)
STRONG_N8_24_ARCS = Digraph.build(
    8,
    [(i, (i + step - 1) % 8 + 1, weight)
     for i in range(1, 9)
     for step, weight in ((1, Fraction(1)), (2, Fraction(1, 2)), (3, Fraction(2)))],
)


@pytest.fixture
def no_self_checks(monkeypatch):
    originals = {oracle.enumerate_out_forests, markov.cesaro_limit}

    def refuse(*args, **kwargs):
        raise AssertionError("a self-check ran")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "forestcalc"]
    for module in modules:
        for name, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, name, refuse)
    forest_stack.cache_clear()
    yield
    forest_stack.cache_clear()


def test_the_digraph_is_strong_with_24_arcs():
    assert len(STRONG_N8_24_ARCS.arcs) == 24
    knots = forest_stack(STRONG_N8_24_ARCS).knots.knots
    assert knots == (frozenset(range(1, 9)),)


def test_self_checks_are_really_disabled(no_self_checks, p3):
    with pytest.raises(AssertionError):
        verify_suite(p3)


def test_library_consumers(no_self_checks):
    g = STRONG_N8_24_ARCS
    stack = forest_stack(g)
    jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
    (column,) = score_basis(g).columns
    assert np.array_equal(column, jbar[:, 0])
    assert np.array_equal(daniels_scores_strong(g).values, column)
    # a strong digraph's Jbar has equal columns, so the mean is any column
    assert np.abs(mean_score(g).values - column).max() < 1e-15
    assert np.array_equal(uniform_start_distribution(g), mean_score(g).values)
    alpha = 0.5 * float(stack.rhos[-1])
    dense = dense_forest_matrix(max_forest_matrix(stack), alpha, stack)
    assert np.abs(dense @ (np.eye(8) + alpha * jbar) - np.eye(8)).max() < 1e-12


@pytest.mark.parametrize("method", ["mean-jbar", "borda", "daniels"])
def test_cli_rank(no_self_checks, tmp_path, method):
    path = tmp_path / "strong8.txt"
    path.write_text("8\n" + "".join(f"{a.tail} {a.head} {a.weight}\n" for a in STRONG_N8_24_ARCS.arcs))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["rank", "--method", method, "--input", str(path)])
    doc = json.loads(out.getvalue())
    assert code == 0, doc
    assert len(doc["scores"]) == 8
    if method != "borda":
        assert math.isclose(sum(doc["scores"]), 1.0, rel_tol=1e-12)
