"""Markov chains inversely corresponding to a digraph, their Cesaro limits,
and the Monte-Carlo information-dissemination estimator.

A chain with row-stochastic transition matrix P inversely corresponds to the
digraph when I - P = alpha * L^T: transitions run against the arcs, from
"worse" vertices towards the roots.  The Cesaro limit of such a chain is the
transpose of the maximum-forest projection, which is what
:func:`verify_tree_theorem` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import forest_stack, max_forest_matrix
from .digraph import Digraph
from .laplacian import column_laplacian
from .oracle import enumerate_out_forests
from .ranking import mean_score


class CesaroConvergenceError(ArithmeticError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True, eq=False)
class MarkovChain:
    transition: np.ndarray
    alpha: float

    @property
    def n(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True, eq=False)
class CesaroLimit:
    matrix: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class DisseminationEstimate:
    estimate: np.ndarray
    trials: int
    successes: int
    seed: int


def inverse_corresponding_chain(g: Digraph, alpha: float | None = None) -> MarkovChain:
    """Chain with I - P = alpha L^T; transition j -> i carries alpha * w_ij.

    alpha must not exceed 1 / max diagonal of L or the diagonal of P turns
    negative; the default 1 / (1 + max diagonal) keeps every self-transition
    strictly positive, which removes periodicity.
    """
    lap = column_laplacian(g, exact=True).entries
    max_diag = max(lap[i, i] for i in range(g.n))
    if alpha is None:
        alpha_frac = Fraction(1) / (1 + max_diag)
    else:
        alpha_frac = Fraction(str(alpha)) if not isinstance(alpha, Fraction) else alpha
        if alpha_frac <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if max_diag > 0 and alpha_frac > Fraction(1) / max_diag:
            raise ValueError(
                f"alpha must not exceed 1/max diagonal = {Fraction(1) / max_diag}, got {alpha}"
            )
    p = np.zeros((g.n, g.n))
    row_offdiag = [Fraction(0)] * g.n
    for a in g.arcs:
        i, j = a.tail - 1, a.head - 1
        # (I - alpha L^T)[j, i] = -alpha * l_ij = alpha * w_ij
        p[j, i] = float(alpha_frac * a.weight)
        row_offdiag[j] += alpha_frac * a.weight
    for j in range(g.n):
        p[j, j] = float(1 - row_offdiag[j])
    return MarkovChain(p, float(alpha_frac))


def cesaro_limit(chain: MarkovChain, tol: float = 1e-8, t_max: int = 2**40) -> CesaroLimit:
    """Limit of the running averages (1/T) sum_{t<T} P^t.

    The averages converge like 1/T, so T is doubled through the exact
    identity A_{2T} = (A_T + P^T A_T) / 2 until successive averages agree
    within tol.  All iterates stay convex combinations of stochastic
    matrices, which keeps the doubling numerically tame.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if t_max < 2:
        raise ValueError(f"t_max must be at least 2, got {t_max}")
    avg = np.eye(chain.n)
    power = chain.transition.copy()
    t = 1
    residual = float("inf")
    while t <= t_max:
        nxt = 0.5 * (avg + power @ avg)
        t *= 2
        residual = float(np.abs(nxt - avg).max())
        avg = nxt
        if residual < tol:
            return CesaroLimit(avg, t, residual)
        power = power @ power
        # squaring doubles any row-sum drift per step; renormalizing pins the
        # iterate to the stochastic manifold the true power lives on
        power /= power.sum(axis=1, keepdims=True)
    raise CesaroConvergenceError(f"no convergence within T = {t_max}", residual)


def verify_tree_theorem(
    g: Digraph, chain: MarkovChain, cesaro: CesaroLimit, tol: float = 1e-6
) -> tuple[bool, float]:
    """Compare the Cesaro limit with the transposed maximum-forest matrix.

    The transpose appears because P is row stochastic while the forest
    matrix is column stochastic.  Returns (within tolerance?, max deviation).
    """
    stack = forest_stack(g)
    correspondence = np.eye(g.n) - chain.transition - chain.alpha * stack.lap.entries.T
    if float(np.abs(correspondence).max()) > 1e-12:
        raise ValueError("chain does not inversely correspond to the digraph")
    jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
    deviation = float(np.abs(cesaro.matrix - jbar.T).max())
    return deviation <= tol, deviation


def uniform_start_distribution(g: Digraph) -> np.ndarray:
    """Limiting state distribution under a uniform start: mean of the
    maximum-forest matrix columns.  The Cesaro limit of any inversely
    corresponding chain is Jbar^T, which ``verify_suite`` checks."""
    return mean_score(g).values


def dissemination_estimate(g: Digraph, trials: int, seed: int) -> DisseminationEstimate:
    """Monte-Carlo frequency that information at j originated at root i.

    Each trial draws a transmission plan (a spanning diverging forest)
    uniformly, then passes every plan arc independently with its weight as
    the success probability.  Successful trials record, per vertex, the root
    of its tree; the conditional frequencies converge to the normalized
    matrix of all forests.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if any(a.weight > 1 for a in g.arcs):
        raise ValueError("dissemination model needs arc weights in (0, 1]")
    forests = enumerate_out_forests(g).all_forests()
    rng = np.random.Generator(np.random.Philox(seed))
    plan_index = rng.integers(0, len(forests), size=trials)
    counts = np.zeros((g.n, g.n), dtype=np.int64)
    successes = 0
    for f_idx, forest in enumerate(forests):
        picked = int((plan_index == f_idx).sum())
        if picked == 0:
            continue
        weights = np.array([float(a.weight) for a in forest.arcs])
        draws = rng.random((picked, len(forest.arcs)))
        ok = int(np.all(draws < weights, axis=1).sum()) if len(forest.arcs) else picked
        if ok == 0:
            continue
        successes += ok
        for j, root in forest.tree_assignment.items():
            counts[root - 1, j - 1] += ok
    estimate = counts / successes if successes else np.zeros((g.n, g.n))
    return DisseminationEstimate(estimate, trials, successes, seed)
