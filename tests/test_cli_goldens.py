"""Golden CLI documents: stdout and exit code of every command on every sample.

`data/cli_goldens.json` holds one entry per (command, sample) with the exact
stdout bytes.  The replay runs `cli.main` in-process from the repository root,
so the recorded `"input"` paths are relative.  To record the goldens again
after an intended output change, run `PYTHONPATH=src python tests/test_cli_goldens.py`
from the repository root and say in CHANGES.md which fields changed.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from forestcalc import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "data" / "cli_goldens.json"
EXACT = {"FOREST_CALC_EXACT": "1"}
RUNS = (
    (("forests",), {}),
    (("forests",), EXACT),
    (("reach",), {}),
    (("knots",), {}),
    (("access", "--tau", "1"), {}),
    (("access", "--tau", "inf"), {}),
    (("access", "--tau", "1", "--direction", "in"), {}),
    (("access", "--tau", "inf", "--direction", "in"), {}),
    (("rank", "--method", "mean-jbar"), {}),
    (("rank", "--method", "borda"), {}),
    (("rank", "--method", "daniels"), {}),
    (("markov",), {}),
    (("simulate", "--trials", "2000", "--seed", "7"), {}),
    (("verify",), {}),
)


def _samples() -> list[str]:
    return sorted(f"sample_inputs/{p.name}" for p in (ROOT / "sample_inputs").glob("*.txt"))


def _run(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def _load() -> list[dict]:
    return json.loads(GOLDENS.read_text())


def _record() -> None:
    os.chdir(ROOT)
    entries = []
    for sample in _samples():
        for command, env in RUNS:
            args = [*command, "--input", sample]
            os.environ.pop("FOREST_CALC_EXACT", None)
            os.environ.update(env)
            code, stdout = _run(args)
            entries.append({"args": args, "env": env, "exit": code, "stdout": stdout})
    os.environ.pop("FOREST_CALC_EXACT", None)
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")


def test_goldens_cover_every_run_on_every_sample():
    recorded = {(tuple(e["args"]), tuple(sorted(e["env"].items()))) for e in _load()}
    expected = {
        ((*command, "--input", sample), tuple(sorted(env.items())))
        for sample in _samples()
        for command, env in RUNS
    }
    assert recorded == expected


@pytest.mark.parametrize("entry", _load(), ids=lambda e: " ".join(e["args"]) + (" exact" if e["env"] else ""))
def test_cli_output_matches_golden(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("FOREST_CALC_EXACT", raising=False)
    for key, value in entry["env"].items():
        monkeypatch.setenv(key, value)
    assert _run(entry["args"]) == (entry["exit"], entry["stdout"])


if __name__ == "__main__":
    _record()
