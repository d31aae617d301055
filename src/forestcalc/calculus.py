"""Forest matrices of a column Laplacian L: J(tau), Jbar and the recurrence stack.

J(tau) = (I + tau L)^{-1} is one linear solve.  Jbar, the normalized matrix
of maximum forests, is the eigenprojection onto ker L along range L, built
from one right and one left null vector per source knot (Agaev and
Chebotarev 2000; Chebotarev and Agaev 2002).

The k-arc forest matrices Q_k and their total weights sigma_k satisfy

    Q_0 = I,   sigma_{k+1} = tr(L Q_k) / (k + 1),   Q_{k+1} = sigma_{k+1} I - L Q_k,

run on the normalized J_k = Q_k / sigma_k and rho_k = sigma_k / sigma_{k-1}:

    rho_{k+1} = tr(L J_k) / (k + 1),   J_{k+1} = I - (L J_k) / rho_{k+1}.

The stop rule is structural: maximum forests have m = n - d' arcs, d' the
number of source knots, so the recurrence runs exactly m steps; J_m = Jbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import exact as exact_la
from .digraph import Digraph, SourceKnotSet, SuccessorLists, reverse, source_knots
from .laplacian import LaplacianMatrix, column_laplacian


class RecurrenceBreakdownError(ArithmeticError):
    """A forest weight ratio that must be positive was not; the float
    recurrence has lost the structure and the exact mode should be used."""


def _identity(n: int, exact: bool) -> np.ndarray:
    if exact:
        eye = np.full((n, n), Fraction(0), dtype=object)
        for i in range(n):
            eye[i, i] = Fraction(1)
        return eye
    return np.eye(n)


def _solve(a: np.ndarray, b: np.ndarray, exact: bool) -> np.ndarray:
    if exact:
        return np.array(exact_la.solve(a.tolist(), b.tolist()), dtype=object)
    return np.linalg.solve(a, b)


def finite_tau(tau):
    """Return tau when 0 < tau < inf; raise ValueError otherwise, NaN included."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


def _scaled(lap: LaplacianMatrix, tau) -> tuple:
    """(tau, I, I + tau L) with tau validated and in the arithmetic of lap."""
    finite_tau(tau)
    tau = Fraction(str(tau)) if lap.exact else float(tau)
    eye = _identity(lap.n, lap.exact)
    return tau, eye, eye + tau * lap.entries


def resolvent(lap: LaplacianMatrix, tau) -> np.ndarray:
    """J(tau) = (I + tau L)^{-1}, from one solve of (I + tau L) X = I.

    I + tau L is a strictly column-diagonally-dominant M-matrix, so the LU
    factorization swaps no rows and no sum in it cancels: an entry of the
    result is zero exactly when no path joins its vertices.
    """
    _, eye, system = _scaled(lap, tau)
    return _solve(system, eye, lap.exact)


def _eigenprojection(lap: LaplacianMatrix, knots: SourceKnotSet) -> np.ndarray:
    """Jbar = X Y^T, the projection onto ker L along range L.

    X: each knot's representative (its smallest vertex) gets weight 1 and the
    knot's other vertices solve L x = 0 on their rows; columns are then
    scaled to sum 1.  Y: 1 on its knot, and on the vertices U outside the
    knots y_U^T = -y_K^T L_KU L_UU^{-1}.  L_UU is a column-diagonally-dominant
    M-matrix whose inverse is nonnegative, so Y carries exact zeros where a
    knot does not reach.  The rows of Y sum to 1 (the all-ones vector is a
    left null vector); rescaling them removes the drift of the solve.
    """
    L, n, exact = lap.entries, lap.n, lap.exact
    members = [sorted(v - 1 for v in knot) for knot in knots.knots]
    reps = [m[0] for m in members]
    rest = [v for m in members for v in m[1:]]
    inside = [v for m in members for v in m]
    outside = [v for v in range(n) if v + 1 not in knots.union]
    shape = (n, knots.d_prime)
    x = np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)
    y = x.copy()
    for s, m in enumerate(members):
        x[m[0], s] = 1
        y[m, s] = 1
    if rest:
        x[rest] = _solve(L[np.ix_(rest, rest)], -L[np.ix_(rest, reps)], exact)
    x = x / x.sum(axis=0)
    if outside:
        inverse = _solve(L[np.ix_(outside, outside)], _identity(len(outside), exact), exact)
        absorbed = (-(y[inside].T @ L[np.ix_(inside, outside)]) @ inverse).T
        y[outside] = absorbed / absorbed.sum(axis=1, keepdims=True)
    return x @ y.T


def _recurrence(lap: LaplacianMatrix, m: int) -> tuple[tuple, tuple]:
    """J_0..J_m and rho_1..rho_m; raises on the first ratio that is not positive."""
    L = lap.entries
    eye = _identity(lap.n, lap.exact)
    j_matrices, rhos = [eye], []
    for k in range(m):
        product = L @ j_matrices[-1]
        rho = np.trace(product) / (k + 1)
        if not rho > 0:
            raise RecurrenceBreakdownError(f"weight ratio rho_{k + 1} = {rho} is not positive")
        j_matrices.append(eye - product / rho)
        rhos.append(rho)
    return tuple(j_matrices), tuple(rhos)


@dataclass(frozen=True, eq=False)
class ForestMatrixStack:
    """Memoised view of one column Laplacian.

    m, the arc count of the maximum forests, is n - d' with d' the number of
    source knots.  The knots and Jbar are computed on first use; the
    normalized layers J_0..J_m with the ratios rho_1..rho_m, and from them
    the raw sigma_k and Q_k, only when one of them is read.
    """

    lap: LaplacianMatrix

    def __post_init__(self):
        if self.lap.orientation != "column":
            raise ValueError("forest matrices need the column Laplacian")

    @property
    def n(self) -> int:
        return self.lap.n

    @property
    def exact(self) -> bool:
        return self.lap.exact

    @cached_property
    def knots(self) -> SourceKnotSet:
        """Source knots of the digraph formed by the off-diagonal nonzeros of L."""
        return source_knots(SuccessorLists({
            i + 1: tuple(j + 1 for j in np.flatnonzero(row).tolist() if j != i)
            for i, row in enumerate(self.lap.entries != 0)
        }))

    @property
    def d_prime(self) -> int:
        return self.knots.d_prime

    @property
    def m(self) -> int:
        return self.n - self.d_prime

    @cached_property
    def _max_forest(self) -> "MaxForestMatrix":
        entries = _eigenprojection(self.lap, self.knots)
        if not self.exact and not np.isfinite(entries).all():
            raise ArithmeticError("the matrix of maximum forests has entries that are not finite")
        # every caller shares this array, so none may write into it
        entries.flags.writeable = False
        return MaxForestMatrix(entries)

    @cached_property
    def _layers(self) -> tuple[tuple, tuple]:
        return _recurrence(self.lap, self.m)

    @property
    def j_matrices(self) -> tuple[np.ndarray, ...]:
        return self._layers[0]

    @property
    def rhos(self) -> tuple:
        return self._layers[1]

    @cached_property
    def sigmas(self) -> tuple:
        one = Fraction(1) if self.exact else 1.0
        out = [one]
        for rho in self.rhos:
            out.append(out[-1] * rho)
        return tuple(out)

    @cached_property
    def q_matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(s * j for s, j in zip(self.sigmas, self.j_matrices))

    def j(self, k: int) -> np.ndarray:
        return self.j_matrices[k]

    def q(self, k: int) -> np.ndarray:
        return self.q_matrices[k]


@dataclass(frozen=True, eq=False)
class ParametricForestMatrix:
    """Q and J evaluated on the digraph with all weights scaled by tau."""

    tau: float
    q_tau: np.ndarray
    sigma_tau: float
    j_tau: np.ndarray


@dataclass(frozen=True, eq=False)
class MaxForestMatrix:
    """Normalized matrix of maximum forests: the idempotent, column-stochastic
    projection annihilated by the Laplacian on both sides."""

    entries: np.ndarray


def forest_recurrence(lap: LaplacianMatrix) -> ForestMatrixStack:
    """Stack of lap with its layers computed now: exactly m = n - d' steps,
    d' read from the off-diagonal pattern of lap."""
    stack = ForestMatrixStack(lap)
    stack.j_matrices  # runs the recurrence, so a breakdown raises here
    return stack


@lru_cache(maxsize=None)
def forest_stack(g: Digraph, exact: bool = False) -> ForestMatrixStack:
    """Forest stack of a digraph (memoised; column Laplacian built internally)."""
    return ForestMatrixStack(column_laplacian(g, exact=exact))


def in_forest_stack(g: Digraph, exact: bool = False) -> ForestMatrixStack:
    """Out-forest stack of the reversed digraph.

    Reversal swaps diverging and converging trees, so entry (j, i) of this
    stack's Q_k is the weight of the k-arc converging forests of g in which
    i's tree converges to j.
    """
    return forest_stack(reverse(g), exact=exact)


def forest_dimension(stack: ForestMatrixStack, g: Digraph | None = None) -> int:
    """Tree count of the maximum forests, n - m: the number of source knots.

    ``g`` is accepted for compatibility; the count is structural already.
    """
    return stack.d_prime


def parametric_matrices(stack: ForestMatrixStack, lap: LaplacianMatrix, tau) -> ParametricForestMatrix:
    """J(tau) = (I + tau L)^{-1}, sigma(tau) = det(I + tau L) and Q(tau) =
    sigma(tau) J(tau).

    In float arithmetic J(tau) (I + tau L) = I is checked before returning,
    within a bound relative to tau max|L|.
    """
    if lap.exact != stack.exact:
        raise ValueError("stack and Laplacian must share the arithmetic mode")
    tau, eye, system = _scaled(lap, tau)
    j_tau = _solve(system, eye, lap.exact)
    if lap.exact:
        sigma_tau = exact_la.determinant(system.tolist())
    else:
        sigma_tau = float(np.linalg.det(system))
        residual = float(np.abs(j_tau @ system - eye).max())
        if residual > 1e-8 * max(1.0, tau * float(np.abs(lap.entries).max())) * lap.n:
            raise ArithmeticError("parametric matrix failed the inverse identity beyond tolerance")
    return ParametricForestMatrix(tau, sigma_tau * j_tau, sigma_tau, j_tau)


def max_forest_matrix(stack: ForestMatrixStack) -> MaxForestMatrix:
    """Jbar, the eigenprojection of the stack's Laplacian; equals Q_m / sigma_m.

    The entries are memoised per stack and read-only."""
    return stack._max_forest


def forest_matrix_from_powers(stack: ForestMatrixStack, lap: LaplacianMatrix, k: int) -> np.ndarray:
    """Independent route Q_k = sum_{i<=k} sigma_{k-i} (-L)^i; ``verify_suite``
    compares it with the recurrence's Q_k."""
    if k < 0 or k > stack.m:
        raise ValueError(f"k must lie in 0..{stack.m}, got {k}")
    L = lap.entries
    acc = _identity(stack.n, stack.exact) * stack.sigmas[k]
    power = _identity(stack.n, stack.exact)
    for i in range(1, k + 1):
        power = power @ (-L)
        acc = acc + stack.sigmas[k - i] * power
    return acc


def forest_digraph_laplacians(stack: ForestMatrixStack, lap: LaplacianMatrix) -> tuple[np.ndarray, ...]:
    """Laplacians L_k = sigma_k I - Q_k of the digraphs of k-arc forests, for
    k = 1..m.

    They satisfy L_{k+1} = L Q_k, tr(L_k) = k sigma_k and
    L_{k+1} = L (tr(L_k)/k I - L_k), which ``verify_suite`` checks.
    """
    eye = _identity(stack.n, stack.exact)
    return tuple(stack.sigmas[k] * eye - stack.q(k) for k in range(1, stack.m + 1))


def dense_forest_matrix(max_forest: MaxForestMatrix, alpha: float, stack: ForestMatrixStack) -> np.ndarray:
    """Inverse of I + alpha * Jbar for admissible alpha.

    The admissible interval is 0 < alpha < sigma_m / sigma_{m-1} (any positive
    alpha when m = 0).  Jbar is idempotent, so the inverse is the closed form
    I - alpha/(1+alpha) * Jbar.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if stack.m >= 1:
        bound = float(stack.rhos[-1])
        if alpha >= bound:
            raise ValueError(f"alpha must be below sigma_m/sigma_(m-1) = {bound}, got {alpha}")
    jbar = np.asarray(max_forest.entries, dtype=float)
    return np.eye(jbar.shape[0]) - (alpha / (1.0 + alpha)) * jbar
