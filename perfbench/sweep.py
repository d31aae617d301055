"""Correct-range sweep: the largest n at which each route passes the checks.

    python3 perfbench/sweep.py [--seed 0] [--count 1000]

For each route (float Jbar, float J(1), exact stack) and each family of
digraphs (random weighted, random unit-weight, paths, disjoint 3-cycles,
tournaments), n climbs a grid until some seeded digraph fails its check,
either by a wrong answer or by raising.  The random families draw
``--count`` digraphs per n (arc probability uniform in [0.15, 0.6], weights
{1/2, 1, 2} or 1); paths and 3-cycles have one digraph per n.  The result
is the largest n of the grid below the first failure.  This is a command,
not a benchmark workload: its run time grows with the range it finds.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from forestcalc import (Digraph, column_laplacian, forest_stack, max_forest_matrix,  # noqa: E402
                        parametric_matrices)

from checks import Reference, check_exact_jbar, check_j_tau, check_jbar, check_sigmas  # noqa: E402
from inputs import (UNIT, WEIGHTS, path_arcs, random_arcs, three_cycle_arcs,  # noqa: E402
                    tournament_arcs)

FLOAT_GRID = list(range(2, 65))
EXACT_GRID = list(range(2, 17)) + [20, 24]
EXACT_COUNT = 5  # exact stacks cost seconds from n ~ 20; fewer random digraphs per n


def float_jbar(n, arcs) -> list[str]:
    return check_jbar(max_forest_matrix(forest_stack(Digraph.build(n, arcs))).entries, Reference(n, arcs))


def float_j1(n, arcs) -> list[str]:
    g = Digraph.build(n, arcs)
    return check_j_tau(parametric_matrices(forest_stack(g), column_laplacian(g), 1.0).j_tau,
                       Reference(n, arcs), 1.0, "J(1)")


def exact_stack(n, arcs) -> list[str]:
    stack = forest_stack(Digraph.build(n, arcs), exact=True)
    ref = Reference(n, arcs)
    return check_sigmas(list(stack.sigmas), ref, True) + check_exact_jbar(stack.j_matrices[-1], ref)


ROUTES = {"float Jbar": (float_jbar, FLOAT_GRID), "float J(1)": (float_j1, FLOAT_GRID),
          "exact stack": (exact_stack, EXACT_GRID)}


def family_digraphs(family: str, n: int, seed: int, count: int):
    rng = random.Random(f"sweep:{family}:{n}:{seed}")
    if family == "paths":
        return [path_arcs(n)]
    if family == "3-cycles":
        return [three_cycle_arcs(n)] if n % 3 == 0 else []
    if family == "tournaments":
        return [tournament_arcs(rng, n) for _ in range(count)]
    weights = WEIGHTS if family == "random weighted" else UNIT
    return [random_arcs(rng, n, rng.uniform(0.15, 0.6), weights) for _ in range(count)]


FAMILIES = ("random weighted", "random unit-weight", "paths", "3-cycles", "tournaments")


def sweep(route, grid, family, seed, count):
    """(largest passing n, first failing n or None, the first failure's message)."""
    best = None
    for n in grid:
        digraphs = family_digraphs(family, n, seed, count)
        for arcs in digraphs:
            try:
                errors = route(n, arcs)
            except Exception as err:  # a route that raises fails at this n
                errors = [f"raised {type(err).__name__}: {err}"]
            if errors:
                return best, n, errors[0][:72]
        if digraphs:
            best = n
    return best, None, ""


def main() -> int:
    parser = argparse.ArgumentParser(description="correct-range sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1000)
    args = parser.parse_args()
    print(f"{'route':12s} {'family':19s} {'largest n':>9s} {'fails at':>8s}  seconds")
    for route_name, (route, grid) in ROUTES.items():
        for family in FAMILIES:
            count = EXACT_COUNT if route is exact_stack else args.count
            started = time.monotonic()
            best, failing, example = sweep(route, grid, family, args.seed, count)
            forest_stack.cache_clear()
            print(f"{route_name:12s} {family:19s} {best!s:>9s} {failing or '-'!s:>8s}  "
                  f"{time.monotonic() - started:7.1f}  {example}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
