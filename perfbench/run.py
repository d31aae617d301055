"""forestcalc benchmark: four checked workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload analyse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's src/ (never from an installed copy); without it the run exits 2
and prints no result.  One worker process (worker.py) runs the operations
in rounds, one at a time; this process generates each round's inputs from
the seed, checks every output against references computed apart from the
program (checks.py) between rounds, and prints one JSON object as the last
line of stdout.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import struct
import subprocess
import sys
import time
import pickle
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("analyse", "conditions", "ground-truth", "cli")
MIN_OPS = 100            # p90 then has at least ten samples beyond it
SETUP_LAUNCHES = 9       # fresh interpreters timed per run for setup_s
IMPORT_LAUNCHES = 5      # fresh interpreters timed per traced run for cli.import_ms
ROUND_TIMEOUT_S = 120
RUN_DEADLINE_S = 150     # no new round starts after this; the run ends well within 180 s
# threshold twice, so that the round's median operation is one of a kind
# rather than a gap between two kinds of very different cost
GROUND_TRUTH_KINDS = ("verify", "dissemination", "score_basis", "exact_stack", "threshold",
                      "threshold", "daniels")
DISSEMINATION_TRIALS = 3000
CLI_COMMANDS = (
    ("forests", [], False),
    ("forests", [], True),                      # FOREST_CALC_EXACT=1
    ("reach", ["--tau", "1"], False),
    ("knots", [], False),
    ("access", ["--tau", "1", "--direction", "out"], False),
    ("access", ["--tau", "inf", "--direction", "in"], False),
    ("rank", ["--method", "mean-jbar"], False),
    ("rank", ["--method", "borda", "--tau", "1"], False),
    ("markov", [], False),
    ("simulate", ["--trials", "20000"], False),  # plus --seed; weights <= 1
    ("verify", [], False),                       # unit weights, n = 5
)
# no workload uses more than one thread: BLAS pools are pinned to one
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROUND_SIZE = {"analyse": 40, "conditions": 8, "ground-truth": len(GROUND_TRUTH_KINDS),
              "cli": len(CLI_COMMANDS)}


def fail(message: str, code: int = 2):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


# ---- inputs -----------------------------------------------------------------------

class RoundMaker:
    """Seeded round inputs of one workload; each item also keeps (n, arcs)."""

    def __init__(self, workload: str, seed: int):
        from inputs import InputStream, edge_list

        self.workload = workload
        self.stream = InputStream(workload, seed)
        self.edge_list = edge_list

    def next_round(self) -> list[dict]:
        make = getattr(self, "_" + self.workload.replace("-", "_"))
        return [make(k) for k in range(ROUND_SIZE[self.workload])]

    def _analyse(self, k):
        n, arcs = self.stream.float_pipeline()
        return {"n": n, "arcs": arcs, "text": self.edge_list(n, arcs)}

    def _conditions(self, k):
        n, arcs = self.stream.conditions()
        return {"n": n, "arcs": arcs}

    def _ground_truth(self, k):
        kind = GROUND_TRUTH_KINDS[k]
        source = {"dissemination": self.stream.dissemination, "exact_stack": self.stream.exact_stack,
                  "threshold": self.stream.threshold, "daniels": self.stream.strong,
                  "verify": self.stream.verify, "score_basis": self.stream.score_basis}[kind]
        extra = {"trials": DISSEMINATION_TRIALS, "seed": self.stream.rng.randrange(2**32)} \
            if kind == "dissemination" else {}
        n, arcs = source()
        return {"n": n, "arcs": arcs, "kind": kind, **extra}

    def _cli(self, k):
        command, extra, exact = CLI_COMMANDS[k]
        if command == "simulate":
            n, arcs = self.stream.dissemination()
            extra = extra + ["--seed", str(self.stream.rng.randrange(2**32))]
        elif command == "verify":
            n, arcs = self.stream.verify()
        else:
            n, arcs = self.stream.float_pipeline()
        return {"n": n, "arcs": arcs, "text": self.edge_list(n, arcs), "command": command,
                "extra": extra, "exact": exact, "cwd": str(ROOT)}


# ---- the worker process --------------------------------------------------------------

class Worker:
    def __init__(self, run_dir: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(run_dir), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env)

    def _read(self, size: int, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        chunks, got = [], 0
        while got < size:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("worker did not answer in time")
            chunk = os.read(fd, min(size - got, 1 << 20))
            if not chunk:
                raise EOFError(f"worker exited with code {self.proc.wait()}")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def ask(self, message: dict, timeout: float = ROUND_TIMEOUT_S):
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.write(struct.pack("<Q", len(payload)) + payload)
        self.proc.stdin.flush()
        deadline = time.monotonic() + timeout
        (size,) = struct.unpack("<Q", self._read(8, deadline))
        return pickle.loads(self._read(size, deadline))  # written by worker.py only

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


# ---- fresh-interpreter timings ------------------------------------------------------------

def launch_times(env: dict, code: str, launches: int) -> list[float]:
    """Run ``code`` in fresh interpreters; it prints a float the caller interprets."""
    values = []
    for k in range(launches + 1):  # the first launch warms the file cache and is dropped
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        if done.returncode != 0:
            fail(f"fresh interpreter could not import forestcalc: {done.stderr.strip()[-500:]}")
        if k:
            values.append((started, float(done.stdout.strip())))
    return values


def setup_seconds(env: dict, workload: str) -> float:
    """Median time from starting an interpreter to forestcalc (and cli) imported."""
    modules = "forestcalc, forestcalc.cli" if workload == "cli" else "forestcalc"
    code = f"import time, {modules}; print(repr(time.monotonic()))"
    return statistics.median(done - started for started, done in launch_times(env, code, SETUP_LAUNCHES))


def import_ms(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import forestcalc.cli; "
            "print(repr((time.perf_counter() - t) * 1e3))")
    return statistics.median(v for _, v in launch_times(env, code, IMPORT_LAUNCHES))


# ---- running and checking rounds -------------------------------------------------------------

class Segment:
    """Rounds of one workload run with tracing on or off, and what they measured."""

    def __init__(self, workload: str, traced: bool):
        self.workload, self.traced = workload, traced
        self.name = f"{workload}:{'traced' if traced else 'untraced'}"
        self.latencies: list[float] = []
        self.round_s: list[float] = []
        self.ops = 0
        self.stack_entries = self.forest_entries = 0
        self.stack_layers: list[int] = []
        self.iterations: list[float] = []
        self.forests = 0
        self.bytes_out: list[int] = []
        self.peak_rss_kb = (0, 0)  # (worker, largest child) after the last round

    @property
    def busy_s(self) -> float:
        return sum(self.round_s)


class Runner:
    def __init__(self, worker: Worker, seed: int):
        from checks import check_op

        self.worker, self.seed, self.check_op = worker, seed, check_op
        self.makers: dict[str, RoundMaker] = {}
        self.attempted = self.failed = self.wrong = 0
        self.messages: list[str] = []
        self.check_s = 0.0
        self.started = time.monotonic()

    def next_round(self, workload: str) -> list[dict]:
        return self.makers.setdefault(workload, RoundMaker(workload, self.seed)).next_round()

    def run(self, segment: Segment, seconds: float, min_ops: int) -> None:
        while True:
            self.round(segment, self.next_round(segment.workload))
            done = segment.busy_s >= seconds and segment.ops >= min_ops
            if done or time.monotonic() - self.started > RUN_DEADLINE_S:
                return

    def round(self, segment: Segment, items: list[dict]) -> None:
        reply = self.worker.ask({"cmd": "round", "workload": segment.workload, "items": items,
                                 "trace": segment.traced, "segment": segment.name,
                                 "first_op": self.attempted})
        segment.latencies += reply["latencies"]
        segment.round_s.append(reply["round_s"])
        segment.ops += len(items)
        segment.stack_entries = max(segment.stack_entries, reply["cache_entries"][0])
        segment.forest_entries = max(segment.forest_entries, reply["cache_entries"][1])
        segment.peak_rss_kb = reply["peak_rss_kb"]
        started = time.monotonic()
        for item, result in zip(items, reply["outputs"]):
            self.attempted += 1
            self._check(segment, item, result)
        self.check_s += time.monotonic() - started

    def _check(self, segment: Segment, item: dict, result: dict) -> None:
        out = result["out"]
        label = f"{segment.workload}/{item.get('kind') or item.get('command') or 'op'} " \
                f"n={item['n']} arcs={item['arcs']}"
        if result["error"]:
            self.failed += 1
            self.messages.append(f"{label} raised {result['error']}")
            return
        errors = self.check_op(segment.workload, item.get("kind", ""), item["n"], item["arcs"], out)
        if "in_process" in out:
            errors += self.check_op("cli", "", item["n"], item["arcs"], out["in_process"])
            segment.bytes_out.append(out["in_process"]["bytes_out"])
        if errors:
            self.failed += 1
            self.wrong += 1
            self.messages.append(f"{label}: {errors[:3]}")
        if "m" in out and "rstack_m" in out:
            segment.stack_layers.append(out["m"] + out["rstack_m"])
        if "iterations" in out:  # the T reached by doubling; log2 T squarings were made
            segment.iterations.append(math.log2(out["iterations"]))
        segment.forests += out.get("forests", 0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---- per-layer metrics from the traced segments ------------------------------------------------

BUSY_LAYERS = (
    "digraph.load_digraph", "digraph.source_knots", "laplacian.column_laplacian",
    "calculus.forest_stack", "calculus.parametric_matrices", "calculus.exact_stack",
    "structure.reachability_from_parametric", "structure.source_knots_from_matrix",
    "structure.top_reachability_by_threshold", "accessibility.out_accessibility",
    "accessibility.in_accessibility", "accessibility.check_condition", "accessibility.monotonicity",
    "markov.inverse_corresponding_chain", "markov.cesaro_limit", "markov.dissemination_estimate",
    "ranking.mean_score", "ranking.generalized_borda", "ranking.score_basis",
    "ranking.daniels_scores_strong", "oracle.enumerate_out_forests", "verification.verify_suite",
    "cli.main",
)


def span_tables(spans: list) -> tuple[dict, dict, dict]:
    """Per segment: busy seconds by span name, self seconds by name, op-span cache deltas."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    busy: dict = {}
    own: dict = {}
    cache: dict = {}
    for k, (name, start, end, parent, op_id, segment, fs_hits, fs_misses, _, _) in enumerate(spans):
        busy.setdefault(segment, {}).setdefault(name, 0.0)
        busy[segment][name] += end - start
        own.setdefault(segment, {}).setdefault(name, 0.0)
        own[segment][name] += end - start - child_s[k]
        if parent < 0:
            hits, misses = cache.get(segment, (0, 0))
            cache[segment] = (hits + fs_hits, misses + fs_misses)
    return busy, own, cache


def layer_metrics(segments: list[Segment], spans: list, import_time_ms: float) -> tuple[dict, dict]:
    """Each metric from the first traced segment that exercises its layer."""
    busy, own, cache = span_tables(spans)

    def per_op_ms(seg, layer):
        s = busy.get(seg.name, {}).get(layer)
        return None if s is None else s * 1e3 / seg.ops

    def hit_ratio(seg):
        hits, misses = cache.get(seg.name, (0, 0))
        return hits / (hits + misses) if hits + misses else None

    def forests_rate(seg):
        s = busy.get(seg.name, {}).get("oracle.enumerate_out_forests")
        return seg.forests / s if s and seg.forests else None

    rules = {f"{layer}.busy_ms": ("ms", lambda seg, layer=layer: per_op_ms(seg, layer))
             for layer in BUSY_LAYERS}
    rules.update({
        "calculus.forest_stack.misses": ("count/op", lambda seg: (cache.get(seg.name, (0, 0))[1] / seg.ops)
                                         if cache.get(seg.name, (0, 0))[1] else None),
        "calculus.forest_stack.hit_ratio": ("ratio", hit_ratio),
        "calculus.forest_stack.cache_entries": ("count", lambda seg: seg.stack_entries or None),
        "calculus.stack_layers": ("count/op", lambda seg: statistics.fmean(seg.stack_layers)
                                  if seg.stack_layers else None),
        "markov.cesaro_limit.iterations": ("count", lambda seg: statistics.fmean(seg.iterations)
                                           if seg.iterations else None),
        "oracle.forests_enumerated": ("count/op", lambda seg: seg.forests / seg.ops if seg.forests else None),
        "oracle.forests_per_s": ("1/s", forests_rate),
        "oracle.enumerate_out_forests.cache_entries": ("count", lambda seg: seg.forest_entries or None),
        "cli.bytes_out": ("bytes", lambda seg: statistics.fmean(seg.bytes_out) if seg.bytes_out else None),
    })
    metrics = {"cli.import_ms": {"value": import_time_ms, "unit": "ms"}}
    for name, (unit, rule) in rules.items():
        for seg in segments:
            value = rule(seg)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
                break
        else:
            raise RuntimeError(f"no traced segment measured {name}")
    self_ms = {seg.name: {name: round(s * 1e3 / seg.ops, 6) for name, s in sorted(own.get(seg.name, {}).items())}
               for seg in segments}
    return dict(sorted(metrics.items())), self_ms


def write_trace(path: Path, spans: list) -> None:
    origin = min((s[1] for s in spans), default=0.0)
    with path.open("w") as fh:
        for k, (name, start, end, parent, op_id, segment, fs_hits, fs_misses,
                en_hits, en_misses) in enumerate(spans):
            fh.write(json.dumps({"id": k, "name": name, "start_us": round((start - origin) * 1e6, 1),
                                 "end_us": round((end - origin) * 1e6, 1), "parent": parent,
                                 "op": op_id, "segment": segment,
                                 "forest_stack": [fs_hits, fs_misses],
                                 "enumerate_out_forests": [en_hits, en_misses]}) + "\n")


# ---- main ------------------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "forestcalc" / "__init__.py").is_file():
        fail(f"no forestcalc sources under {SRC.name}/ in {ROOT}: run from a checkout of the repository")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREADED)
    env.pop("FOREST_CALC_EXACT", None)
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(exist_ok=True)
    # started before networkx and sympy are imported here: a child's
    # ru_maxrss starts from its parent's high-water mark
    worker = Worker(run_dir, env)
    try:
        sys.path.insert(0, str(BENCH))
        try:
            import checks  # noqa: F401  (networkx, sympy)
        except ImportError as err:
            fail(f"the checks need networkx and sympy: {err}")
        from selftest import inputs as self_test_inputs, self_test

        runner = Runner(worker, args.seed)
        w = args.workload
        if args.trace:
            # each round runs untraced, then traced on the same inputs (the
            # caches are emptied before each), so the overhead is paired
            untraced, segments = Segment(w, traced=False), [Segment(w, traced=True)]
            while min(untraced.busy_s, segments[0].busy_s) < args.seconds / 2 and \
                    time.monotonic() - runner.started <= RUN_DEADLINE_S:
                items = runner.next_round(w)
                runner.round(untraced, items)
                runner.round(segments[0], items)
            for other in WORKLOADS:
                if other != w:
                    segments.append(Segment(other, traced=True))
                    runner.run(segments[-1], args.seconds / 8, 1)
        else:
            segments = [Segment(w, traced=False)]
            runner.run(segments[0], args.seconds, MIN_OPS)
        self_test_failures = self_test(worker.ask({"cmd": "self-test", "inputs": self_test_inputs()}))
        final = worker.ask({"cmd": "finish"})
        worker.proc.wait(timeout=30)
    except (TimeoutError, EOFError, subprocess.TimeoutExpired) as err:
        fail(f"worker failed: {err}", 1)
    finally:
        worker.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in runner.messages[:20]:
        print(f"# FAILED {message}")
    for message in self_test_failures:
        print(f"# SELF-TEST {message}")
    seg = segments[0]
    print(f"# {w} seed {args.seed}: {seg.ops} ops in {len(seg.round_s)} rounds, "
          f"{seg.busy_s:.2f} s timed, {runner.check_s:.2f} s checking; "
          f"self-test {'failed' if self_test_failures else 'passed'}")
    if args.trace:
        metrics, self_ms = layer_metrics(segments, final["spans"], import_ms(env))
        trace_path = OUT / f"trace-{w}-seed{args.seed}.jsonl"
        write_trace(trace_path, final["spans"])
        base = untraced.busy_s / untraced.ops
        traced = segments[0].busy_s / segments[0].ops
        print(f"# tracing overhead on {w}: {100 * (traced - base) / base:+.2f} % per op "
              f"({traced * 1e3:.4f} ms traced vs {base * 1e3:.4f} ms untraced)")
        print("# self time, ms per op: " + json.dumps(self_ms, sort_keys=True))
        print(f"# {len(final['spans'])} spans written to {trace_path.relative_to(ROOT)}")
    else:
        latencies = seg.latencies
        own_kb, children_kb = seg.peak_rss_kb
        rss_kb = children_kb if w == "cli" else own_kb
        metrics = {
            "ops_per_s": {"value": seg.ops / seg.busy_s, "unit": "ops/s"},
            "op_p50_ms": {"value": percentile(latencies, 0.5) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": percentile(latencies, 0.9) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_seconds(env, w), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    result = {"correct": runner.wrong == 0 and not self_test_failures,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{w}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
