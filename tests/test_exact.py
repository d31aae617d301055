import random
from fractions import Fraction

import numpy as np
import pytest

from forestcalc import Digraph, column_laplacian, exact, forest_stack, parametric_matrices
from forestcalc.exact import solve


def random_matrix(rng, n, lo=-5, hi=5):
    return np.array([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)], dtype=object)


def identity(n):
    return np.eye(n, dtype=int).astype(object)


def laplace_determinant(m):
    """Cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * laplace_determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_determinant_matches_numpy():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            m = random_matrix(rng, n)
            expected = round(np.linalg.det(m.astype(float)))
            if expected == 0:
                with pytest.raises(ZeroDivisionError):
                    solve(m, identity(n))
            else:
                assert solve(m, identity(n))[0] == expected


def test_determinant_needs_pivot_swap():
    det, x = solve([[0, 1], [1, 0]], identity(2))
    assert det == -1
    assert (x == [[0, 1], [1, 0]]).all()


@pytest.mark.parametrize("matrix", [[[1, 2], [2, 4]], [[1, 1], [1, 1]], [[0, 0], [0, 1]]])
def test_solve_singular_raises(matrix):
    with pytest.raises(ZeroDivisionError):
        solve(matrix, identity(2))


def test_solve_rectangular_rhs():
    a = np.array([[2, 1], [1, 3]], dtype=object)
    b = np.array([[1, 0, 5], [0, 1, 5]], dtype=object)
    det, x = solve(a, b)
    assert det == 5
    assert x.shape == (2, 3)
    assert (a @ x == b).all()


def test_rhs_without_columns_leaves_the_determinant():
    det, x = solve([[2, 1], [1, 3]], np.empty((2, 0)))
    assert det == 5 and x.shape == (2, 0)


def test_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        m = random_matrix(rng, 4)
        if round(np.linalg.det(m.astype(float))) == 0:
            continue
        _, inv = solve(m, identity(4))
        assert all(isinstance(v, Fraction) for v in inv.flat)
        assert (m @ inv == identity(4)).all()


def test_adjugate_identity():
    rng = random.Random(13)
    m = random_matrix(rng, 3)
    while round(np.linalg.det(m.astype(float))) == 0:
        m = random_matrix(rng, 3)
    det, inv = solve(m, identity(3))
    adjugate = det * inv
    assert all(v.denominator == 1 for v in adjugate.flat)
    assert (m @ adjugate == det * identity(3)).all()


def test_huge_rationals_stay_exact():
    # the threshold reachability test solves I + tau L with tau ~ sigma^2
    tau = Fraction(10**40)
    m = np.array([[1 + tau, -tau], [-tau, 1 + tau]], dtype=object)
    det, inv = solve(m, identity(2))
    assert det == 1 + 2 * tau
    assert inv[0, 0] * (1 + tau) + inv[0, 1] * (-tau) == 1


def test_mixed_denominators():
    rng = random.Random(17)
    values = (Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(3, 7), Fraction(-5, 6), Fraction(1), Fraction(-2))
    for n in (2, 3, 4, 5):
        for _ in range(5):
            rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            b = np.array([[rng.choice(values) for _ in range(2)] for _ in range(n)], dtype=object)
            expected = laplace_determinant(rows)
            a = np.array(rows, dtype=object)
            if expected == 0:
                with pytest.raises(ZeroDivisionError):
                    solve(a, b)
                continue
            det, x = solve(a, b)
            assert det == expected
            assert (a @ x == b).all()


def _seeded_digraph(rng, n):
    weights = (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(7, 10))
    pairs = rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j], 2 * n)
    return Digraph.build(n, [(i, j, rng.choice(weights)) for i, j in sorted(pairs)])


@pytest.mark.parametrize("n", [8, 9, 10])
def test_exact_parametric_matrices_on_seeded_digraphs(n, monkeypatch):
    rng = random.Random(1000 + n)
    calls = []

    def counting_solve(a, b):
        calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(exact, "solve", counting_solve)
    for _ in range(2):
        g = _seeded_digraph(rng, n)
        stack = forest_stack(g, exact=True)
        lap = column_laplacian(g, exact=True)
        for tau in (Fraction(3, 7), Fraction(5, 2)):
            calls.clear()
            pm = parametric_matrices(stack, lap, tau)
            assert calls == [(n, n)]  # sigma(tau) and J(tau) from one elimination
            assert pm.sigma_tau == sum(s * tau**k for k, s in enumerate(stack.sigmas))
            assert (pm.j_tau @ (identity(n) + tau * lap.entries) == identity(n)).all()
            assert (pm.q_tau == pm.sigma_tau * pm.j_tau).all()
