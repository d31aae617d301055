import random

import numpy as np
import pytest

from forestcalc import Digraph, score_basis, verification, verify_suite
from forestcalc.ranking import ScoreBasis

from conftest import seeded_weighted_digraph


def test_suite_passes_on_known_good_inputs(p3, cycle2, two_sources, edgeless4):
    for g in (p3, cycle2, two_sources, edgeless4):
        result = verify_suite(g)
        failed = [c for c in result["checks"] if not c["pass"]]
        assert result["all_pass"], failed


def test_suite_covers_the_identity_families(p3):
    names = {c["name"] for c in verify_suite(p3)["checks"]}
    assert {
        "forest-weights-match-enumeration",
        "forest-matrices-match-enumeration",
        "parametric-two-route",
        "laplacian-annihilation",
        "projection-idempotent",
        "ranks",
        "power-series-route",
        "reachability-parametric",
        "top-reachability",
        "knots-from-matrix",
        "duality",
        "knot-structure",
        "cesaro-tree-theorem",
        "score-basis",
    } <= names


def test_small_tau_reachability_on_a_long_path(path6):
    checks = {c["name"]: c["pass"] for c in verify_suite(path6)["checks"]}
    assert checks["reachability-parametric"]
    assert all(checks.values()), checks


def test_suite_passes_on_seeded_weighted_digraphs():
    # the first 25 of the 200 digraphs whose parametric reachability
    # test_structure checks; the full suite on all 200 takes about 8 s
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(6, 7)
        result = verify_suite(seeded_weighted_digraph(rng, n, rng.randint(n, 12)))
        assert result["all_pass"], [c for c in result["checks"] if not c["pass"]]


def test_scaled_bounds_hold_on_large_weights():
    # J-bar does not depend on the unit of the weights; products with L grow
    # with it, and so do the bounds on them
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(4, 6)
        g = seeded_weighted_digraph(rng, n, rng.randint(n, n + 4))
        scaled = Digraph.build(n, [(a.tail, a.head, a.weight * 10**8) for a in g.arcs])
        checks = {c["name"]: c["pass"] for c in verify_suite(scaled)["checks"]}
        assert checks["laplacian-annihilation"] and checks["mean-score-nullspace"], g


def test_score_basis_check_fails_on_a_corrupted_column(cycle3, monkeypatch):
    def corrupted(g):
        basis = score_basis(g)
        column = basis.columns[0] + np.array([1e-6, -1e-6, 0.0])
        return ScoreBasis((column,), basis.knots, basis.representatives)

    assert {c["name"]: c["pass"] for c in verify_suite(cycle3)["checks"]}["score-basis"]
    monkeypatch.setattr(verification, "score_basis", corrupted)
    checks = {c["name"]: c["pass"] for c in verify_suite(cycle3)["checks"]}
    assert not checks["score-basis"]


def test_threshold_check_only_on_unit_weights():
    weighted = Digraph.build(2, [(1, 2, 0.5)])
    names = {c["name"] for c in verify_suite(weighted)["checks"]}
    assert "threshold-top-reachability" not in names


def test_size_guard():
    with pytest.raises(ValueError):
        verify_suite(Digraph.build(9, []))
