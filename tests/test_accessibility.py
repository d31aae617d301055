import math

import numpy as np
import pytest

from forestcalc import (
    check_condition,
    convexity_path,
    forest_stack,
    in_accessibility,
    max_forest_matrix,
    out_accessibility,
    reverse,
)
from forestcalc.accessibility import small_tau_monotonicity_probe


class TestMeasures:
    def test_out_p3_at_one(self, p3):
        pm = out_accessibility(p3, 1.0)
        assert np.allclose(pm.entries, np.array([[4, 2, 1], [0, 2, 1], [0, 0, 2]]) / 4)
        assert pm.direction == "out" and pm.tau == 1.0

    def test_out_limit_is_projection(self, p3):
        pm = out_accessibility(p3, math.inf)
        assert np.allclose(pm.entries, [[1, 1, 1], [0, 0, 0], [0, 0, 0]])

    def test_edgeless_identity(self, edgeless4):
        assert np.allclose(out_accessibility(edgeless4, 5.0).entries, np.eye(4))
        assert np.allclose(in_accessibility(edgeless4, 5.0).entries, np.eye(4))

    def test_out_columns_in_rows_stochastic(self, corpus):
        for g in corpus[:30]:
            for tau in (0.1, 1.0, 10.0):
                assert np.allclose(out_accessibility(g, tau).entries.sum(axis=0), 1.0, atol=1e-9)
                assert np.allclose(in_accessibility(g, tau).entries.sum(axis=1), 1.0, atol=1e-9)

    def test_symmetric_digraph_self_dual(self, cycle2):
        for tau in (0.1, 1.0, 10.0):
            p_out = out_accessibility(cycle2, tau).entries
            p_in = in_accessibility(cycle2, tau).entries
            assert np.allclose(p_out, p_out.T)
            assert np.allclose(p_in, p_out)

    def test_duality(self, corpus):
        for g in corpus[:30]:
            for tau in (0.1, 1.0, 10.0, math.inf):
                p_in = in_accessibility(g, tau).entries
                dual = out_accessibility(reverse(g), tau).entries
                assert np.array_equal(p_in, dual.T)

    def test_limit_is_read_only(self, p3):
        # the limiting measure is the memoised Jbar itself
        before = out_accessibility(p3, math.inf).entries.copy()
        with pytest.raises(ValueError):
            out_accessibility(p3, math.inf).entries[0, 0] = 7.0
        assert np.array_equal(out_accessibility(p3, math.inf).entries, before)
        assert np.array_equal(max_forest_matrix(forest_stack(p3)).entries, before)

    def test_rejects_bad_tau(self, p3):
        with pytest.raises(ValueError):
            out_accessibility(p3, 0.0)

    @pytest.mark.parametrize("tau", [math.nan, -math.inf])
    def test_rejects_nan_and_negative_infinity(self, p3, tau):
        with pytest.raises(ValueError):
            out_accessibility(p3, tau)
        with pytest.raises(ValueError):
            in_accessibility(p3, tau)


class TestConditionReports:
    def test_monotonicity_on_perturbation_that_broke_the_recurrence(self, recurrence_failures):
        g = recurrence_failures["monotonicity-n6"]
        report = check_condition(g, "monotonicity", direction="out", variant="A")
        assert report.passed, report.witness

    def test_unknown_condition(self, p3):
        with pytest.raises(ValueError):
            check_condition(p3, "positivity")

    def test_bad_variant(self, p3):
        with pytest.raises(ValueError):
            check_condition(p3, "transit-property", variant="C")

    def test_nonnegativity_passes(self, p3):
        assert check_condition(p3, "nonnegativity").passed

    def test_transit_p3_values(self, p3):
        # mediation of 2 between 1 and 3: p_12 = 1/2 > p_13 = 1/4
        report = check_condition(p3, "transit-property", tau=1.0, variant="A")
        assert report.passed
        p = out_accessibility(p3, 1.0).entries
        assert p[0, 1] == pytest.approx(0.5) and p[0, 2] == pytest.approx(0.25)

    def test_failure_witness_reproduces(self, p3):
        report = check_condition(p3, "self-accessibility", tau=math.inf, variant="A")
        assert not report.passed
        w = report.witness
        p = out_accessibility(p3, math.inf).entries
        assert p[w["vertices"]["i"] - 1, w["vertices"]["i"] - 1] == pytest.approx(
            w["values"]["p_ii"]
        )
        assert w["values"]["p_ii"] <= w["values"]["other"] + 1e-10


class TestLimitingMeasureOnP3:
    """The two-arc path digraph witnesses every strict-form failure of the
    limiting measures while the nonstrict forms survive."""

    def test_reachability_forward_fails(self, p3):
        report = check_condition(p3, "reachability-condition", tau=math.inf, variant="forward")
        assert not report.passed
        # the pair (2, 3) is a genuine violation: zero entry, yet reachable
        p = out_accessibility(p3, math.inf).entries
        assert p[1, 2] == 0.0

    def test_reachability_backward_passes(self, p3):
        assert check_condition(p3, "reachability-condition", tau=math.inf, variant="backward").passed

    @pytest.mark.parametrize(
        "condition", ["self-accessibility", "transit-property", "monotonicity", "convexity"]
    )
    def test_strict_fails_nonstrict_passes(self, p3, condition):
        strict = check_condition(p3, condition, tau=math.inf, variant="A", mode="strict")
        nonstrict = check_condition(p3, condition, tau=math.inf, variant="A", mode="nonstrict")
        assert not strict.passed
        assert nonstrict.passed

    def test_triangle_holds_as_stated(self, p3):
        assert check_condition(p3, "triangle-inequality", tau=math.inf, variant="A").passed


class TestConvexityPath:
    def test_p3_greedy_path(self, p3):
        p = out_accessibility(p3, 1.0).entries
        assert convexity_path(p3, p, "A", 1, 3, 2) == (1, 2)

    def test_differences_decrease_along_p3_path(self, p3):
        # along 1 -> 2 -> 3 the row-1 minus row-3 differences fall strictly
        p = out_accessibility(p3, 1.0).entries
        diffs = [p[0, j - 1] - p[2, j - 1] for j in (1, 2, 3)]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_precondition_enforced(self, p3):
        p = out_accessibility(p3, 1.0).entries
        with pytest.raises(ValueError):
            convexity_path(p3, p, "A", 1, 3, 3)  # p_13 < p_33: hypothesis fails
        with pytest.raises(ValueError):
            convexity_path(p3, p, "A", 1, 3, 1)  # i == k

    def test_strong_digraph_has_paths(self, cycle2):
        p = out_accessibility(cycle2, 1.0).entries
        for k, t, i in ((1, 2, 2), (2, 1, 1)):
            if p[k - 1, i - 1] - p[t - 1, i - 1] > 1e-10:
                path = convexity_path(cycle2, p, "A", k, t, i)
                assert path is not None and path[0] == k and path[-1] == i

    def test_limiting_measure_needs_nonstrict(self, p3):
        p = out_accessibility(p3, math.inf).entries
        assert convexity_path(p3, p, "A", 1, 2, 2, mode="strict") is None
        path = convexity_path(p3, p, "A", 1, 2, 2, mode="nonstrict")
        assert path == (1, 2)

    def test_variant_b_runs_on_reversal(self, p3):
        p = in_accessibility(p3, 1.0).entries
        # in-measure rows: i's ancestry; hypothesis p_ik > p_it
        for i in (2, 3):
            for k in p3.vertices:
                for t in p3.vertices:
                    if k != i and p[i - 1, k - 1] - p[i - 1, t - 1] > 1e-10:
                        path = convexity_path(p3, p, "B", k, t, i)
                        assert path is not None and path[0] == i and path[-1] == k


class TestStrictSuiteAtFiniteTau:
    @pytest.mark.parametrize("condition", [
        "nonnegativity",
        "reachability-condition",
        "self-accessibility",
        "triangle-inequality",
        "transit-property",
        "convexity",
    ])
    def test_out_measure_passes_a_forms(self, p3, two_sources, condition):
        for g in (p3, two_sources):
            variant = None if condition in ("nonnegativity", "reachability-condition") else "A"
            assert check_condition(g, condition, tau=1.0, variant=variant).passed

    def test_monotonicity_out_a(self, p3):
        assert check_condition(p3, "monotonicity", tau=1.0, variant="A").passed

    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_monotonicity_caches_only_the_measured_digraph(self, recurrence_failures, direction):
        forest_stack.cache_clear()
        for tau in (1.0, math.inf):
            check_condition(recurrence_failures["monotonicity-n6"], "monotonicity",
                            direction=direction, tau=tau, variant="both", mode="nonstrict")
        assert forest_stack.cache_info().currsize == 1

    def test_in_measure_passes_b_forms(self, p3):
        for condition in ("self-accessibility", "triangle-inequality", "transit-property", "convexity"):
            assert check_condition(p3, condition, direction="in", tau=1.0, variant="B").passed


def test_small_tau_probe_reports(p3):
    report = small_tau_monotonicity_probe(p3)
    assert report.condition == "addition-to-monotonicity"
    assert report.verdict in ("pass", "fail")
