"""Correctness checks made apart from the program.

Every reference here is built from the generated arcs with networkx, sympy
and numpy.linalg; this module never imports forestcalc.  A check returns a
list of failure messages, empty when the output is right.

The maximum-forest matrix Jbar is checked through the properties that fix
it uniquely (Chebotarev & Agaev, "Forest matrices around the Laplacian
matrix", Linear Algebra Appl. 356, 2002): an idempotent J with LJ = JL = 0
and rank d' (the number of source knots) is the projection onto ker L along
range L.  Column sums 1, nonnegativity and the knot-reach support pattern
are checked on top.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property

import networkx as nx
import numpy as np
import sympy

TOL = 1e-8          # residuals of float identities (entries are O(1))
ZERO = 1e-9         # a float entry at most this large counts as zero
CESARO_TOL = 1e-6   # the program stops the Cesaro doubling at 1e-8 steps
DISSEMINATION_SE = 6.0  # estimates must lie within this many standard errors


class Reference:
    """Independent facts about one digraph, computed from its arc list."""

    def __init__(self, n: int, arcs):
        self.n = n
        self.arcs = tuple((int(t), int(h), Fraction(w)) for t, h, w in arcs)

    def reversed(self) -> "Reference":
        return Reference(self.n, sorted((h, t, w) for t, h, w in self.arcs))

    @cached_property
    def exact_laplacian(self) -> list[list[Fraction]]:
        """Column Laplacian: -w_ij off the diagonal, weighted indegree on it."""
        lap = [[Fraction(0)] * self.n for _ in range(self.n)]
        for t, h, w in self.arcs:
            lap[t - 1][h - 1] -= w
            lap[h - 1][h - 1] += w
        return lap

    @cached_property
    def indegree(self) -> list[Fraction]:
        """Exact weighted indegree of each vertex."""
        d = [Fraction(0)] * self.n
        for _, h, w in self.arcs:
            d[h - 1] += w
        return d

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Float column Laplacian; the diagonal is the rounded exact indegree."""
        lap = np.zeros((self.n, self.n))
        for t, h, w in self.arcs:
            lap[t - 1, h - 1] = -float(w)
        lap[np.diag_indices(self.n)] = [float(d) for d in self.indegree]
        return lap

    @cached_property
    def _condensation(self):
        g = nx.DiGraph()
        g.add_nodes_from(range(1, self.n + 1))
        g.add_edges_from((t, h) for t, h, _ in self.arcs)
        return nx.condensation(g)

    @cached_property
    def reach(self) -> np.ndarray:
        """R[i, j] = 1 when j is reachable from i (every vertex reaches itself)."""
        c = self._condensation
        comp = c.graph["mapping"]
        below = {x: nx.descendants(c, x) | {x} for x in c.nodes}
        r = np.zeros((self.n, self.n), dtype=int)
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                r[i - 1, j - 1] = comp[j] in below[comp[i]]
        return r

    @cached_property
    def knots(self) -> list[frozenset]:
        """Source knots: strong components with no entering arc, by smallest vertex."""
        c = self._condensation
        found = [frozenset(c.nodes[x]["members"]) for x in c.nodes if c.in_degree(x) == 0]
        return sorted(found, key=min)

    @cached_property
    def exclusive_reach(self) -> dict:
        """Knot -> vertices reachable from it and from no other knot."""
        reach = {k: {j + 1 for j in range(self.n) if self.reach[min(k) - 1, j]} for k in self.knots}
        out = {}
        for k in self.knots:
            others = set().union(*(reach[o] for o in self.knots if o != k))
            out[k] = frozenset(reach[k] - others)
        return out

    @cached_property
    def knot_reach(self) -> np.ndarray:
        """Support of Jbar: row i is nonzero exactly when i lies in a knot."""
        in_knot = np.zeros(self.n, dtype=int)
        for k in self.knots:
            for v in k:
                in_knot[v - 1] = 1
        return self.reach * in_knot[:, None]

    def j_tau(self, tau: float) -> np.ndarray:
        eye = np.eye(self.n)
        return np.linalg.solve(eye + tau * self.laplacian, eye)

    @cached_property
    def sigmas(self) -> list[Fraction]:
        """Coefficients of det(x I + L), i.e. sympy's charpoly of -L: sigma_0..sigma_n."""
        poly = sympy.Matrix(self.exact_laplacian).applyfunc(lambda x: -sympy.Rational(x.numerator, x.denominator))
        coeffs = poly.charpoly().all_coeffs()
        return [Fraction(int(c.p), int(c.q)) for c in coeffs]

    @cached_property
    def symmetrized_laplacian(self) -> np.ndarray:
        """Column Laplacian of the undirected counterpart (w_ij + w_ji both ways)."""
        w = np.zeros((self.n, self.n))
        for t, h, weight in self.arcs:
            w[t - 1, h - 1] += float(weight)
            w[h - 1, t - 1] += float(weight)
        return np.diag(w.sum(axis=0)) - w

    @cached_property
    def degree_balance(self) -> np.ndarray:
        """Weighted outdegree minus weighted indegree."""
        w = np.zeros((self.n, self.n))
        for t, h, weight in self.arcs:
            w[t - 1, h - 1] = float(weight)
        return w.sum(axis=1) - w.sum(axis=0)


def _fail(errors: list, label: str, ok: bool, detail: str = "") -> None:
    if not ok:
        errors.append(f"{label}{': ' + detail if detail else ''}")


def _max(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def check_jbar(j, ref: Reference, label: str = "jbar", tol: float = TOL) -> list[str]:
    """The properties that fix the maximum-forest projection uniquely."""
    errors: list[str] = []
    j = np.asarray(j, dtype=float)
    if j.shape != (ref.n, ref.n) or not np.all(np.isfinite(j)):
        return [f"{label}: shape {j.shape} or non-finite entries"]
    lap = ref.laplacian
    _fail(errors, f"{label} idempotent", _max(j @ j - j) <= tol, f"{_max(j @ j - j):.2e}")
    _fail(errors, f"{label} L J = 0", _max(lap @ j) <= tol, f"{_max(lap @ j):.2e}")
    _fail(errors, f"{label} J L = 0", _max(j @ lap) <= tol, f"{_max(j @ lap):.2e}")
    _fail(errors, f"{label} column sums", _max(j.sum(axis=0) - 1.0) <= tol)
    _fail(errors, f"{label} nonnegative", float(j.min()) >= -tol, f"{float(j.min()):.2e}")
    support = (j > max(tol, ZERO)).astype(int)
    _fail(errors, f"{label} support", np.array_equal(support, ref.knot_reach))
    rank = int(np.linalg.matrix_rank(j, tol=1e-6))
    _fail(errors, f"{label} rank", rank == len(ref.knots), f"{rank} != {len(ref.knots)}")
    return errors


def check_j_tau(j, ref: Reference, tau: float, label: str) -> list[str]:
    errors: list[str] = []
    dev = _max(np.asarray(j, dtype=float) - ref.j_tau(tau))
    _fail(errors, f"{label} = solve(I + tau L, I)", dev <= TOL, f"{dev:.2e}")
    return errors


def _same_knots(knots, exclusive, ref: Reference, label: str) -> list[str]:
    errors: list[str] = []
    got = [frozenset(k) for k in knots]
    _fail(errors, f"{label} knots", sorted(got, key=min) == ref.knots, f"{got} != {ref.knots}")
    if not errors:
        for k, plus in zip(got, exclusive):
            _fail(errors, f"{label} exclusive reach of {sorted(k)}",
                  frozenset(plus) == ref.exclusive_reach[k])
    return errors


def _check_score_on_knots(x, ref: Reference, support: frozenset, label: str) -> list[str]:
    """A null vector of L with unit sum, positive exactly on ``support``."""
    errors: list[str] = []
    x = np.asarray(x, dtype=float)
    _fail(errors, f"{label} L x = 0", _max(ref.laplacian @ x) <= TOL, f"{_max(ref.laplacian @ x):.2e}")
    _fail(errors, f"{label} sum 1", abs(float(x.sum()) - 1.0) <= TOL)
    positive = {v for v in range(1, ref.n + 1) if x[v - 1] > ZERO}
    _fail(errors, f"{label} support", positive == set(support), f"{sorted(positive)}")
    _fail(errors, f"{label} nonnegative", float(x.min()) >= -ZERO)
    return errors


def check_ranking(groups, scores, n: int, label: str) -> list[str]:
    """Groups list every vertex once, in nonincreasing score order."""
    errors: list[str] = []
    flat = [v for group in groups for v in group]
    _fail(errors, f"{label} permutation", sorted(flat) == list(range(1, n + 1)))
    if not errors:
        s = np.asarray(scores, dtype=float)
        ordered = all(s[a - 1] >= s[b - 1] - ZERO for a, b in zip(flat, flat[1:]))
        _fail(errors, f"{label} order", ordered)
    return errors


def check_borda(values, ref: Reference, tau: float, label: str = "borda") -> list[str]:
    expected = np.linalg.solve(np.eye(ref.n) + tau * ref.symmetrized_laplacian, ref.degree_balance)
    dev = _max(np.asarray(values, dtype=float) - expected)
    errors: list[str] = []
    _fail(errors, f"{label} = solve(I + tau L_sym, d)", dev <= TOL * max(1.0, _max(expected)), f"{dev:.2e}")
    return errors


def check_chain(transition, alpha: float, ref: Reference, label: str = "chain") -> list[str]:
    """I - P = alpha L^T with the default alpha = 1 / (1 + max weighted indegree)."""
    errors: list[str] = []
    p = np.asarray(transition, dtype=float)
    _fail(errors, f"{label} alpha", abs(alpha - float(1 / (1 + max(ref.indegree)))) <= 1e-15)
    dev = _max(np.eye(ref.n) - p - alpha * ref.laplacian.T)
    _fail(errors, f"{label} I - P = alpha L^T", dev <= 1e-12, f"{dev:.2e}")
    _fail(errors, f"{label} stochastic", _max(p.sum(axis=1) - 1.0) <= 1e-12 and float(p.min()) >= 0.0)
    return errors


def check_sigmas(sigmas, ref: Reference, exact: bool, label: str = "sigmas") -> list[str]:
    """sigma_k equals the coefficient of x^(n-k) in det(x I + L); the rest vanish.

    ``exact`` asks for no error at all: equal rationals, or for a float (the
    CLI prints exact sigmas as floats) the correctly rounded value.
    """
    errors: list[str] = []
    expected = ref.sigmas
    m = len(sigmas) - 1
    _fail(errors, f"{label} length", 0 <= m <= ref.n and all(c == 0 for c in expected[m + 1:])
          and expected[m] != 0, f"m = {m}")
    for k, (got, want) in enumerate(zip(sigmas, expected)):
        if exact:
            ok = float(got) == float(want) if isinstance(got, float) else Fraction(got) == want
        else:
            ok = abs(float(got) - float(want)) <= 1e-9 * max(1.0, float(want))
        _fail(errors, f"{label}[{k}]", ok, f"{got} != {want}")
    return errors


def check_exact_jbar(j, ref: Reference, label: str = "exact jbar") -> list[str]:
    """Idempotent and annihilated with no error at all, stochastic, right support."""
    errors: list[str] = []
    n = ref.n
    j = [[Fraction(x) for x in row] for row in j]
    lap = ref.exact_laplacian

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]

    zero = [[Fraction(0)] * n for _ in range(n)]
    _fail(errors, f"{label} idempotent", mul(j, j) == j)
    _fail(errors, f"{label} L J = 0", mul(lap, j) == zero)
    _fail(errors, f"{label} J L = 0", mul(j, lap) == zero)
    _fail(errors, f"{label} column sums", all(sum(col) == 1 for col in zip(*j)))
    _fail(errors, f"{label} nonnegative", all(x >= 0 for row in j for x in row))
    support = np.array([[int(x != 0) for x in row] for row in j])
    _fail(errors, f"{label} support", np.array_equal(support, ref.knot_reach))
    return errors


def check_dissemination(estimate, successes: int, ref: Reference) -> list[str]:
    """Each entry within DISSEMINATION_SE standard errors of (I + L)^-1."""
    errors: list[str] = []
    _fail(errors, "dissemination successes", successes >= 1)
    if errors:
        return errors
    est = np.asarray(estimate, dtype=float)
    p = np.clip(ref.j_tau(1.0), 0.0, 1.0)
    bound = DISSEMINATION_SE * np.sqrt(p * (1.0 - p) / successes) + 1e-12
    worst = float(((np.abs(est - p)) / bound).max())
    _fail(errors, "dissemination within standard errors", worst <= 1.0,
          f"{worst * DISSEMINATION_SE:.2f} standard errors")
    _fail(errors, "dissemination column sums", _max(est.sum(axis=0) - 1.0) <= 1e-12)
    return errors


# ---- one check per operation kind ----------------------------------------

def check_analyse(ref: Reference, out: dict) -> list[str]:
    errors: list[str] = []
    _fail(errors, "parse", out["n"] == ref.n and tuple(out["arcs"]) == ref.arcs)
    if errors:
        return errors
    rev = ref.reversed()
    d = len(ref.knots)
    _fail(errors, "laplacian", np.array_equal(np.asarray(out["lap"]), ref.laplacian))
    _fail(errors, "dimension", out["d_prime"] == d and out["m"] == ref.n - d,
          f"d' {out['d_prime']}, m {out['m']}, knots {d}")
    _fail(errors, "reverse stack m", out["rstack_m"] == ref.n - len(rev.knots))
    errors += check_jbar(out["jbar"], ref)
    errors += check_j_tau(out["jtau"], ref, 1.0, "J(1)")
    errors += _same_knots(out["knots"], out["exclusive"], ref, "source_knots")
    errors += _same_knots(out["knots_matrix"], out["exclusive_matrix"], ref, "knots from Jbar")
    _fail(errors, "reachability", np.array_equal(out["reach"], ref.reach))
    _fail(errors, "top reachability", np.array_equal(out["top"], ref.knot_reach))
    errors += check_j_tau(out["out1"], ref, 1.0, "out measure tau=1")
    errors += check_jbar(out["outinf"], ref, "out measure tau=inf")
    errors += check_j_tau(np.asarray(out["in1"]).T, rev, 1.0, "in measure tau=1")
    errors += check_jbar(np.asarray(out["ininf"]).T, rev, "in measure tau=inf")
    union = frozenset().union(*ref.knots)
    errors += _check_score_on_knots(out["mean"], ref, union, "mean score")
    errors += check_ranking(out["rank_mean"], out["mean"], ref.n, "mean ranking")
    errors += check_borda(out["borda"], ref, 1.0)
    errors += check_ranking(out["rank_borda"], out["borda"], ref.n, "borda ranking")
    errors += check_chain(out["transition"], out["alpha"], ref)
    dev = _max(np.asarray(out["cesaro"]) - np.asarray(out["jbar"]).T)
    _fail(errors, "cesaro limit = Jbar^T", dev <= CESARO_TOL, f"{dev:.2e}")
    _fail(errors, "tree theorem verdict", out["tree_ok"] is True)
    return errors


def check_conditions(ref: Reference, out: dict) -> list[str]:
    """Every condition of the suite passes; the paper proves that it must."""
    errors: list[str] = []
    _fail(errors, "condition count", len(out["reports"]) == 14)
    for condition, direction, variant, verdict in out["reports"]:
        _fail(errors, f"{condition} {direction}/{variant}", verdict == "pass", verdict)
    return errors


def check_verify(ref: Reference, out: dict) -> list[str]:
    errors: list[str] = []
    failed = [c["name"] for c in out["checks"] if not c["pass"]]
    _fail(errors, "verify_suite all_pass", out["all_pass"] is True and not failed, f"{failed}")
    for side, r in (("g", ref), ("reverse", ref.reversed())):
        sig = out["forest_sigmas"][side]
        errors += check_sigmas([sig.get(k, 0) for k in range(max(sig) + 1)], r, True, f"oracle {side} sigma")
        counts = out["forest_counts"][side]
        _fail(errors, f"oracle {side} unit-weight count = sigma", all(counts[k] == sig[k] for k in sig))
    return errors


def check_score_basis(ref: Reference, out: dict) -> list[str]:
    errors: list[str] = []
    _fail(errors, "score basis knots", [frozenset(k) for k in out["knots"]] == ref.knots)
    _fail(errors, "basis representatives", list(out["reps"]) == [min(k) for k in ref.knots])
    for knot, column in zip(out["knots"], out["columns"]):
        errors += _check_score_on_knots(column, ref, frozenset(knot), f"basis column {sorted(knot)}")
    return errors


def check_exact_stack(ref: Reference, out: dict) -> list[str]:
    errors = check_sigmas(out["sigmas"], ref, True, "exact sigma")
    _fail(errors, "exact m", out["m"] == ref.n - len(ref.knots))
    return errors + check_exact_jbar(out["jbar"], ref)


def check_threshold(ref: Reference, out: dict) -> list[str]:
    errors: list[str] = []
    _fail(errors, "threshold top reachability", np.array_equal(out["top"], ref.knot_reach))
    return errors


def check_daniels(ref: Reference, out: dict) -> list[str]:
    errors: list[str] = []
    _fail(errors, "daniels input is strong", len(ref.knots) == 1 and len(ref.knots[0]) == ref.n)
    return errors + _check_score_on_knots(out["values"], ref, ref.knots[0], "daniels scores")


GROUND_TRUTH = {
    "verify": check_verify,
    "dissemination": lambda ref, out: check_dissemination(out["estimate"], out["successes"], ref),
    "score_basis": check_score_basis,
    "exact_stack": check_exact_stack,
    "threshold": check_threshold,
    "daniels": check_daniels,
}


def check_cli(ref: Reference, out: dict) -> list[str]:
    """Exit 0, one JSON document, and agreement with the references."""
    errors: list[str] = []
    _fail(errors, "exit code", out["returncode"] == 0, f"{out['returncode']}: {out['stderr'][-300:]}")
    try:
        doc = json.loads(out["stdout"])
    except ValueError as err:
        return errors + [f"stdout is not JSON: {err}"]
    if errors:
        return errors
    command = out["command"]
    _fail(errors, "envelope", doc.get("tool") == "forestcalc" and doc.get("command") == command)
    if command == "forests":
        errors += check_sigmas(doc["sigmas"], ref, out["exact"], "forests sigma")
        _fail(errors, "forests d_prime", doc["d_prime"] == len(ref.knots))
        errors += check_jbar(doc["jbar"], ref)
    elif command in ("reach", "knots"):
        _fail(errors, f"{command} knots", doc["knots"] == [sorted(k) for k in ref.knots])
        _fail(errors, f"{command} d_prime", doc["d_prime"] == len(ref.knots))
        _fail(errors, f"{command} reachability", np.array_equal(np.array(doc["reachability"]), ref.reach))
        _fail(errors, f"{command} top_reachability",
              np.array_equal(np.array(doc["top_reachability"]), ref.knot_reach))
    elif command == "access":
        tau = doc["parameters"]["tau"]
        p = np.array(doc["proximity"], dtype=float)
        measured = ref if doc["parameters"]["direction"] == "out" else ref.reversed()
        p = p if doc["parameters"]["direction"] == "out" else p.T
        if tau == "inf":
            errors += check_jbar(p, measured, "access tau=inf")
        else:
            errors += check_j_tau(p, measured, float(tau), "access")
    elif command == "rank":
        scores = doc["scores"]
        if doc["parameters"]["method"] == "mean-jbar":
            errors += _check_score_on_knots(scores, ref, frozenset().union(*ref.knots), "rank mean")
        else:
            errors += check_borda(scores, ref, float(doc["parameters"]["tau"]), "rank borda")
        errors += check_ranking(doc["ranking"], scores, ref.n, "rank ranking")
        _fail(errors, "rank d_prime", doc["d_prime"] == len(ref.knots))
    elif command == "markov":
        errors += check_chain(doc["transition"], doc["parameters"]["alpha"], ref, "markov chain")
        errors += check_jbar(np.array(doc["cesaro"], dtype=float).T, ref, "markov cesaro^T", tol=CESARO_TOL)
        _fail(errors, "markov verdict", doc["matches_forest_projection"] is True)
    elif command == "simulate":
        errors += check_dissemination(doc["estimate"], doc["successes"], ref)
    elif command == "verify":
        failed = [c["name"] for c in doc["checks"] if not c["pass"]]
        _fail(errors, "verify all_pass", doc["all_pass"] is True and not failed, f"{failed}")
    else:
        errors.append(f"unknown command {command}")
    return errors


def check_op(workload: str, kind: str, n: int, arcs, out: dict) -> list[str]:
    """Dispatch one operation's output to its check."""
    ref = Reference(n, arcs)
    if workload == "analyse":
        return check_analyse(ref, out)
    if workload == "conditions":
        return check_conditions(ref, out)
    if workload == "ground-truth":
        return GROUND_TRUTH[kind](ref, out)
    if workload == "cli":
        return check_cli(ref, out)
    raise ValueError(f"unknown workload {workload!r}")
