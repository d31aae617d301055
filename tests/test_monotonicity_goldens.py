"""Golden monotonicity and small-tau probe reports.

`data/monotonicity_goldens.json` maps a run id to the JSON text of its
report.  The corpus is seeded: weighted digraphs with weights {1/2, 1, 2}
at n = 3..5, and the same arc sets with unit weights.  Every report is
replayed for each tau, direction, variant and mode, and must match byte for
byte.  To record the goldens again after an intended output change, run
`PYTHONPATH=src python tests/test_monotonicity_goldens.py` from the
repository root and say in CHANGES.md which reports changed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from conftest import seeded_weighted_digraph
from forestcalc import Digraph, check_condition
from forestcalc.accessibility import small_tau_monotonicity_probe

GOLDENS = Path(__file__).resolve().parent / "data" / "monotonicity_goldens.json"
SHAPES = ((3, 2), (3, 4), (4, 3), (4, 5), (4, 7), (5, 4), (5, 6), (5, 9))
TAUS = (0.1, 1.0, 10.0, math.inf)


def _corpus() -> list[Digraph]:
    rng = random.Random(20261021)
    weighted = [seeded_weighted_digraph(rng, n, arc_count) for n, arc_count in SHAPES]
    unit = [Digraph.build(g.n, [(a.tail, a.head) for a in g.arcs]) for g in weighted]
    return weighted + unit


def _reports(g: Digraph) -> dict[str, str]:
    out = {}
    for tau in TAUS:
        for direction in ("out", "in"):
            for variant in ("A", "B"):
                for mode in ("strict", "nonstrict"):
                    report = check_condition(g, "monotonicity", direction=direction, tau=tau,
                                             variant=variant, mode=mode)
                    out[f"monotonicity tau={tau} {direction} {variant} {mode}"] = json.dumps(report.as_dict())
            report = small_tau_monotonicity_probe(g, tau=tau, direction=direction)
            out[f"probe tau={tau} {direction}"] = json.dumps(report.as_dict())
    return out


def _record() -> None:
    goldens = {str(index): _reports(g) for index, g in enumerate(_corpus())}
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")


@pytest.mark.parametrize("index", range(len(SHAPES) * 2))
def test_reports_match_golden(index):
    assert _reports(_corpus()[index]) == json.loads(GOLDENS.read_text())[str(index)]


if __name__ == "__main__":
    _record()
