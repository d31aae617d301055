import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from forestcalc import cli, load_digraph
from forestcalc.structure import structural_top_reachability

from conftest import NAN_JBAR_N3, ROUNDOFF_LAYER_N8, SIGMA_OVERFLOW_N3, TINY_WEIGHT, UNIT_PATH6, WRONG_FROM_N8

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
COMMANDS = ("forests", "reach", "knots", "access", "rank", "markov", "simulate", "verify")


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "forestcalc", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_json(*args, expect_code=0, env_extra=None):
    proc = run_cli(*args, env_extra=env_extra)
    assert proc.returncode == expect_code, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def p3_path():
    return str(SAMPLES / "p3.txt")


def test_forests_document(p3_path):
    doc = run_json("forests", "--input", p3_path)
    assert doc["tool"] == "forestcalc"
    assert doc["command"] == "forests"
    assert doc["sigmas"] == [1, 2, 1]
    assert doc["d_prime"] == 1
    assert doc["jbar"] == [[1, 1, 1], [0, 0, 0], [0, 0, 0]]
    assert doc["labeling"] == "row-major, 1-based vertex labels"
    assert doc["parameters"]["input"] == p3_path


def test_forests_exact_env(p3_path):
    doc = run_json("forests", "--input", p3_path, env_extra={"FOREST_CALC_EXACT": "1"})
    assert doc["parameters"]["exact"] is True
    assert doc["sigmas"] == [1, 2, 1]


def test_reach_and_knots_share_schema(p3_path):
    for command in ("reach", "knots"):
        doc = run_json(command, "--input", p3_path)
        assert doc["knots"] == [[1]]
        assert doc["d_prime"] == 1
        assert doc["reachability"] == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
        assert doc["top_reachability"] == [[1, 1, 1], [0, 0, 0], [0, 0, 0]]


def test_rank_mean_jbar():
    doc = run_json("rank", "--input", str(SAMPLES / "two_sources.txt"), "--method", "mean-jbar")
    assert doc["scores"] == [0.5, 0.5, 0]
    assert doc["ranking"] == [[1, 2], [3]]
    assert doc["d_prime"] == 2


def test_rank_daniels_on_cycle():
    doc = run_json("rank", "--input", str(SAMPLES / "cycle2.txt"), "--method", "daniels")
    assert doc["scores"] == [0.5, 0.5]


def test_rank_on_large_weights(tmp_path, capsys):
    path = tmp_path / "cycle3e8.txt"
    path.write_text("3\n1 2 200000000\n2 3 100000000\n3 1 100000000\n")
    for method in ("daniels", "mean-jbar"):
        code, doc = run_in_process(capsys, "rank", "--method", method, "--input", str(path))
        assert code == 0, doc
        assert doc["scores"] == pytest.approx([0.4, 0.2, 0.4], rel=1e-15)
        assert doc["ranking"] == [[1, 3], [2]]


def test_access_matrix_and_check(p3_path):
    doc = run_json("access", "--input", p3_path, "--tau", "1")
    assert doc["proximity"][0] == [1, 0.5, 0.25]
    doc = run_json(
        "access", "--input", p3_path, "--tau", "inf",
        "--check", "self-accessibility:A", "--mode", "nonstrict",
    )
    assert doc["report"]["verdict"] == "pass"
    doc = run_json(
        "access", "--input", p3_path, "--tau", "inf",
        "--check", "self-accessibility:A", "--mode", "strict",
    )
    assert doc["report"]["verdict"] == "fail"
    assert doc["report"]["witness"] is not None


def test_markov_document():
    doc = run_json("markov", "--input", str(SAMPLES / "cycle2.txt"))
    assert doc["parameters"]["alpha"] == 0.5
    assert doc["transition"] == [[0.5, 0.5], [0.5, 0.5]]
    assert doc["matches_forest_projection"] is True
    assert doc["max_deviation"] < 1e-6


def test_simulate_reproducible(p3_path):
    a = run_json("simulate", "--input", p3_path, "--trials", "2000", "--seed", "9")
    b = run_json("simulate", "--input", p3_path, "--trials", "2000", "--seed", "9")
    assert a == b
    assert a["successes"] == 2000
    assert a["parameters"]["seed"] == 9


def test_verify_all_pass(p3_path):
    doc = run_json("verify", "--input", p3_path)
    assert doc["all_pass"] is True
    assert all(check["pass"] for check in doc["checks"])


def test_byte_identical_reruns(p3_path):
    for args in (
        ("forests", "--input", p3_path),
        ("verify", "--input", p3_path),
        ("simulate", "--input", p3_path, "--trials", "500", "--seed", "4"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == 0


def test_float_serialization_has_full_precision():
    doc = run_cli("access", "--input", str(SAMPLES / "cycle2.txt"), "--tau", "1")
    parsed = json.loads(doc.stdout)
    value = parsed["proximity"][0][0]
    # a full-precision third must round-trip through the document exactly
    assert value == 2 / 3
    assert "0.6666666666666666" in doc.stdout


def test_nan_is_not_serialized():
    with pytest.raises(ValueError):
        cli._format({"value": [1.0, float("nan")]})


def test_domain_error_exits_one(tmp_path):
    missing = run_cli("forests", "--input", str(tmp_path / "nope.txt"))
    assert missing.returncode == 1
    err = json.loads(missing.stdout)
    assert err["error"]["type"] == "FileNotFoundError"

    bad = tmp_path / "loop.txt"
    bad.write_text("2\n1 1 1\n")
    proc = run_cli("forests", "--input", str(bad))
    assert proc.returncode == 1
    err = json.loads(proc.stdout)
    assert "loop" in err["error"]["message"]


def test_usage_error_exits_two():
    assert run_cli("forests").returncode == 2
    assert run_cli("nonsense", "--input", "x").returncode == 2


def test_verify_rejects_oversized_input(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("9\n1 2 1\n")
    proc = run_cli("verify", "--input", str(big))
    assert proc.returncode == 1


def run_in_process(capsys, *args):
    code = cli.main(list(args))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.txt")))
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_on_every_sample(capsys, command, sample):
    code, doc = run_in_process(capsys, command, "--input", str(SAMPLES / sample))
    if command == "simulate" and sample == "weighted.txt":
        # dissemination needs arc weights in (0, 1]; weighted.txt has a 2
        assert code == 1 and doc["error"]["type"] == "ValueError"
    else:
        assert code == 0, doc
        assert doc["command"] == command


@pytest.mark.parametrize(
    "args",
    [
        ("reach", "--tau", "nan"),
        ("reach", "--tau", "inf"),
        ("knots", "--tau", "0"),
        ("rank", "--tau", "nan"),
        ("access", "--tau", "nan"),
        ("markov", "--tol", "nan"),
    ],
)
def test_invalid_parameters_give_error_json(p3_path, args):
    proc = run_cli(*args, "--input", p3_path)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "name, args",
    [
        ("tiny-weight", ("reach",)),
        ("tiny-weight", ("forests",)),
        ("nan-jbar", ("forests",)),
        ("nan-jbar", ("reach",)),
        ("nan-jbar", ("knots",)),
        ("nan-jbar", ("rank",)),
        ("nan-jbar", ("access", "--tau", "inf")),
    ],
)
def test_results_outside_the_float_range_give_error_json(tmp_path, capsys, name, args):
    path = tmp_path / "g.txt"
    path.write_text({"tiny-weight": TINY_WEIGHT, "nan-jbar": NAN_JBAR_N3}[name])
    with np.errstate(invalid="ignore"):
        code, doc = run_in_process(capsys, *args, "--input", str(path))
    assert code == 1 and "error" in doc, doc


def test_sigma_overflow_gives_error_json_without_warnings(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(SIGMA_OVERFLOW_N3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_in_process(capsys, "forests", "--input", str(path))
    assert code == 1 and doc["error"]["type"] == "ArithmeticError", doc


def test_small_tau_reach_on_a_long_path(tmp_path):
    path = tmp_path / "path6.txt"
    path.write_text(UNIT_PATH6)
    doc = run_json("reach", "--input", str(path), "--tau", "0.01")
    assert doc["reachability"][0][5] == 1


def test_projection_commands_on_old_recurrence_failures(tmp_path, capsys):
    for name, text in (("wrong-from-n8", WRONG_FROM_N8), ("roundoff-layer-n8", ROUNDOFF_LAYER_N8)):
        path = str(tmp_path / f"{name}.txt")
        Path(path).write_text(text)
        expected_top = structural_top_reachability(load_digraph(text)).entries
        for args in (("forests",), ("rank",), ("access", "--tau", "inf"), ("knots",)):
            code, doc = run_in_process(capsys, *args, "--input", path)
            assert code == 0, (name, args, doc)
            for key in ("jbar", "proximity"):
                if key in doc:
                    assert 0.0 <= np.min(doc[key]) and np.max(doc[key]) <= 1.0, (name, key)
            if "top_reachability" in doc:
                assert np.array_equal(np.array(doc["top_reachability"]), expected_top), name
