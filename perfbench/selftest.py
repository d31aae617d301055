"""Self-test of the benchmark's checks: each must reject a corrupted output.

The program's outputs on three fixed digraphs must pass their checks, and
four corruptions of them must each be rejected: a perturbed Jbar column
(column sum kept), one flipped reachability entry, one sigma_k off by 1,
and one wrong condition verdict.  run.py performs this on every run with
the outputs of that run's worker; standalone:

    python3 perfbench/selftest.py

exits 0 when every corruption is rejected.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

from checks import check_op
from inputs import edge_list

HALF = Fraction(1, 2)
# two source knots {1, 2} and {4, 5}; vertex 3 is reached from both
TWO_KNOTS = (5, ((1, 2, HALF), (2, 1, Fraction(1)), (2, 3, Fraction(2)),
                 (4, 3, Fraction(1)), (4, 5, Fraction(1)), (5, 4, HALF)))
CHAIN = (6, ((1, 2, Fraction(2)), (2, 3, HALF), (3, 1, Fraction(1)), (3, 4, Fraction(1)),
             (4, 5, HALF), (5, 6, Fraction(2)), (6, 4, Fraction(1))))
CASES = {
    "analyse": ("analyse", "", TWO_KNOTS),
    "exact_stack": ("ground-truth", "exact_stack", CHAIN),
    "conditions": ("conditions", "", TWO_KNOTS),
}


def inputs() -> dict:
    """The worker items for the fixed cases."""
    items = {}
    for name, (workload, kind, (n, arcs)) in CASES.items():
        item = {"n": n, "arcs": arcs, "text": edge_list(n, arcs)}
        if kind:
            item["kind"] = kind
        items[name] = (workload, item)
    return items


def _perturb_jbar_column(out):
    out["jbar"] = out["jbar"].copy()
    out["jbar"][0, 0] += 1e-3
    out["jbar"][1, 0] -= 1e-3


def _flip_reachability(out):
    out["reach"] = out["reach"].copy()
    out["reach"][2, 0] = 1 - out["reach"][2, 0]


def _sigma_off_by_one(out):
    out["sigmas"][1] += 1


def _wrong_verdict(out):
    condition, direction, variant, _ = out["reports"][3]
    out["reports"][3] = (condition, direction, variant, "fail")


CORRUPTIONS = (
    ("perturbed Jbar column", "analyse", _perturb_jbar_column),
    ("flipped reachability entry", "analyse", _flip_reachability),
    ("sigma_k off by 1", "exact_stack", _sigma_off_by_one),
    ("wrong condition verdict", "conditions", _wrong_verdict),
)


def self_test(outputs: dict) -> list[str]:
    """Failure messages; empty when true outputs pass and corruptions fail."""
    failures = []
    for name, (workload, kind, (n, arcs)) in CASES.items():
        errors = check_op(workload, kind, n, arcs, outputs[name])
        if errors:
            failures.append(f"true {name} output rejected: {errors[:3]}")
    for label, name, corrupt in CORRUPTIONS:
        workload, kind, (n, arcs) = CASES[name]
        bad = copy.deepcopy(outputs[name])
        corrupt(bad)
        if not check_op(workload, kind, n, arcs, bad):
            failures.append(f"corruption not rejected: {label}")
    return failures


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from ops import self_test_outputs
    from worker import Untraced

    failures = self_test(self_test_outputs(inputs(), Untraced()))
    for label, _, _ in CORRUPTIONS:
        print(f"{label}: {'not ' if any(label in f for f in failures) else ''}rejected")
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
