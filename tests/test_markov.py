from fractions import Fraction

import numpy as np
import pytest

from forestcalc import (
    Digraph,
    cesaro_limit,
    dissemination_estimate,
    enumerate_out_forests,
    inverse_corresponding_chain,
    uniform_start_distribution,
    verify_tree_theorem,
)
from forestcalc.markov import CesaroConvergenceError
from forestcalc.oracle import normalized_forest_matrix


class TestInverseCorrespondence:
    def test_p3_alpha_one_is_absorbing(self, p3):
        chain = inverse_corresponding_chain(p3, 1.0)
        assert chain.transition.tolist() == [[1, 0, 0], [1, 0, 0], [0, 1, 0]]

    def test_edgeless_gives_identity(self, edgeless4):
        for alpha in (0.5, 1.0, 7.0):
            chain = inverse_corresponding_chain(edgeless4, alpha)
            assert np.array_equal(chain.transition, np.eye(4))

    def test_cycle2_default_alpha(self, cycle2):
        chain = inverse_corresponding_chain(cycle2)
        assert chain.alpha == pytest.approx(0.5)
        assert np.allclose(chain.transition, np.full((2, 2), 0.5))

    def test_rows_sum_to_one_and_entries_nonnegative(self, corpus):
        for g in corpus[:40]:
            chain = inverse_corresponding_chain(g)
            assert np.abs(chain.transition.sum(axis=1) - 1.0).max() < 1e-12
            assert (chain.transition >= 0).all()

    def test_alpha_bounds(self, p3):
        with pytest.raises(ValueError):
            inverse_corresponding_chain(p3, 0.0)
        with pytest.raises(ValueError):
            inverse_corresponding_chain(p3, 1.5)  # max diagonal is 1

    def test_default_alpha_keeps_diagonal_positive(self, corpus):
        for g in corpus[:40]:
            chain = inverse_corresponding_chain(g)
            assert (np.diag(chain.transition) > 0).all()


class TestCesaroLimit:
    def test_absorbing_chain(self, p3):
        chain = inverse_corresponding_chain(p3, 1.0)
        limit = cesaro_limit(chain)
        assert np.allclose(limit.matrix, [[1, 0, 0], [1, 0, 0], [1, 0, 0]], atol=1e-6)
        assert limit.residual < 1e-8

    def test_doubly_stochastic_cycle(self, cycle2):
        limit = cesaro_limit(inverse_corresponding_chain(cycle2))
        assert np.allclose(limit.matrix, np.full((2, 2), 0.5), atol=1e-6)

    def test_identity_chain(self, edgeless4):
        limit = cesaro_limit(inverse_corresponding_chain(edgeless4, 1.0))
        assert np.array_equal(limit.matrix, np.eye(4))

    def test_rows_remain_stochastic(self, corpus):
        for g in corpus[:20]:
            limit = cesaro_limit(inverse_corresponding_chain(g))
            assert np.abs(limit.matrix.sum(axis=1) - 1.0).max() < 1e-9

    def test_nonconvergence_reports_residual(self, p3):
        chain = inverse_corresponding_chain(p3, 1.0)
        with pytest.raises(CesaroConvergenceError):
            cesaro_limit(chain, tol=1e-30, t_max=4)
        assert issubclass(CesaroConvergenceError, ArithmeticError)

    def test_parameter_validation(self, p3):
        chain = inverse_corresponding_chain(p3)
        with pytest.raises(ValueError):
            cesaro_limit(chain, tol=0.0)
        with pytest.raises(ValueError):
            cesaro_limit(chain, tol=float("nan"))
        with pytest.raises(ValueError):
            cesaro_limit(chain, t_max=1)


class TestTreeTheorem:
    def test_p3(self, p3):
        chain = inverse_corresponding_chain(p3, 1.0)
        ok, dev = verify_tree_theorem(p3, chain, cesaro_limit(chain))
        assert ok and dev < 1e-6

    def test_cycle2(self, cycle2):
        chain = inverse_corresponding_chain(cycle2)
        ok, dev = verify_tree_theorem(cycle2, chain, cesaro_limit(chain))
        assert ok

    def test_mismatched_chain_rejected(self, p3, cycle2):
        chain = inverse_corresponding_chain(cycle2)
        limit = cesaro_limit(chain)
        with pytest.raises(ValueError):
            verify_tree_theorem(p3, chain, limit)


class TestUniformStart:
    def test_p3(self, p3):
        assert np.allclose(uniform_start_distribution(p3), [1, 0, 0], atol=1e-8)

    def test_two_sources(self, two_sources):
        assert np.allclose(uniform_start_distribution(two_sources), [0.5, 0.5, 0], atol=1e-8)

    def test_small_weights(self):
        # the default chain's Cesaro average does not settle within 2^40 steps
        w = Fraction(1, 10**6)
        g = Digraph.build(3, [(1, 2, w), (2, 3, w), (3, 1, w)])
        assert np.allclose(uniform_start_distribution(g), [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_edgeless_uniform(self, edgeless4):
        assert np.allclose(uniform_start_distribution(edgeless4), np.full(4, 0.25))

    def test_sums_to_one_and_vanishes_off_knots(self, corpus):
        from forestcalc import source_knots

        for g in corpus[:20]:
            x = uniform_start_distribution(g)
            assert x.sum() == pytest.approx(1.0, abs=1e-9)
            union = source_knots(g).union
            for v in g.vertices:
                if v not in union:
                    assert abs(x[v - 1]) < 1e-9


class TestDissemination:
    def test_unit_weights_always_succeed(self, p3):
        est = dissemination_estimate(p3, 5000, seed=3)
        assert est.successes == 5000
        assert est.estimate[0, 0] == 1.0

    def test_estimates_converge_to_normalized_matrix(self, p3):
        est = dissemination_estimate(p3, 100000, seed=3)
        j = np.array(normalized_forest_matrix(enumerate_out_forests(p3)), dtype=float)
        assert abs(est.estimate[0, 2] - j[0, 2]) < 4 * np.sqrt(j[0, 2] * (1 - j[0, 2]) / est.successes)

    def test_same_seed_bit_identical(self, cycle2):
        a = dissemination_estimate(cycle2, 20000, seed=99)
        b = dissemination_estimate(cycle2, 20000, seed=99)
        assert np.array_equal(a.estimate, b.estimate)
        assert a.successes == b.successes

    def test_lossy_arcs_reduce_successes(self):
        g = Digraph.build(2, [(1, 2, 0.5)])
        est = dissemination_estimate(g, 20000, seed=5)
        assert est.successes < est.trials
        # plans: empty forest (always succeeds) and the single arc (p = 1/2)
        assert est.successes / est.trials == pytest.approx(0.75, abs=0.02)

    def test_columns_sum_to_one(self, cycle2):
        est = dissemination_estimate(cycle2, 10000, seed=11)
        assert np.allclose(est.estimate.sum(axis=0), 1.0)

    def test_validation(self, p3):
        with pytest.raises(ValueError):
            dissemination_estimate(p3, 0, seed=1)
        heavy = Digraph.build(2, [(1, 2, 2)])
        with pytest.raises(ValueError):
            dissemination_estimate(heavy, 10, seed=1)
