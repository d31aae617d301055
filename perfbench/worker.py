"""The measured process: runs rounds of one workload's operations.

run.py starts this file with PYTHONPATH pointing at the checkout's src/ and
drives it over stdin/stdout with length-prefixed pickles (both ends are this
benchmark).  Each round message names a workload and carries its inputs;
the worker empties both memo caches, runs the operations back to back,
timing each one, then converts the outputs to plain data (numpy arrays,
Fractions, tuples) for the parent to check.  The worker imports no checking
library, so its peak memory is the program's.

This module needs only the standard library.  forestcalc is imported (via
ops.py) on the first round that calls it in-process: a `cli` run that only
starts CLI processes keeps the worker small, because on Linux a child's
ru_maxrss starts from its parent's high-water mark.

Every call into forestcalc goes through ``tracer.call(layer, fn, ...)``.
With tracing off that is a plain call; with tracing on it records a span
(name, start, end, parent, operation id) plus the hit and miss deltas of
the two lru caches, kept in memory and sent to the parent at the end.
"""

from __future__ import annotations

import os
import pickle
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path

CLI_TIMEOUT_S = 60


def program():
    import ops  # forestcalc and numpy, loaded on first use

    return ops


def send(stream, message) -> None:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack("<Q", len(payload)) + payload)
    stream.flush()


def receive(stream):
    header = stream.read(8)
    if len(header) < 8:
        raise EOFError("parent closed the pipe")
    (size,) = struct.unpack("<Q", header)
    return pickle.loads(stream.read(size))  # written by run.py only


class Untraced:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans around the benchmark's own calls into forestcalc.

    A span is (name, start, end, parent index, op id, segment, forest_stack
    hits, misses, enumerate_out_forests hits, misses): times from
    perf_counter, counts as deltas across the span.
    """

    def __init__(self):
        self.spans: list = []
        self.open: list[int] = []
        self.op_id = -1
        self.segment = ""
        self.counts = program().cache_counts

    def call(self, name, fn, *args, **kwargs):
        parent = self.open[-1] if self.open else -1
        index = len(self.spans)
        self.spans.append(None)
        self.open.append(index)
        before = self.counts()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            after = self.counts()
            self.open.pop()
            deltas = tuple(a - b for a, b in zip(after, before))
            self.spans[index] = (name, start, end, parent, self.op_id, self.segment) + deltas


def op_cli(t, item):
    """One `python -m forestcalc <command>` process on an input file."""
    proc = t.call("cli.process", subprocess.run, item["argv"], stdin=subprocess.DEVNULL,
                  capture_output=True, text=True, env=item["env"], cwd=item["cwd"],
                  timeout=CLI_TIMEOUT_S)
    return lambda: {"command": item["command"], "exact": item["exact"], "returncode": proc.returncode,
                    "stdout": proc.stdout, "stderr": proc.stderr}


def prepare_cli(item: dict, run_dir: Path, index: int) -> dict:
    """Untimed set-up: the input file, argv and environment of one CLI call."""
    path = run_dir / f"input-{index}.txt"
    path.write_text(item["text"])
    argv = [sys.executable, "-m", "forestcalc", item["command"],
            "--input", os.path.relpath(path, item["cwd"])] + item["extra"]
    env = dict(os.environ)
    env.pop("FOREST_CALC_EXACT", None)
    if item["exact"]:
        env["FOREST_CALC_EXACT"] = "1"
    return dict(item, argv=argv, env=env)


def peak_rss_kb() -> tuple[int, int]:
    """(this process's VmHWM, largest ru_maxrss of reaped children) in KiB.

    VmHWM belongs to the address space created at exec, so unlike ru_maxrss
    it does not start from the parent's high-water mark.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_round(message: dict, tracer, run_dir: Path) -> dict:
    workload = message["workload"]
    in_process = workload != "cli"
    ops = program() if in_process or message["trace"] else None
    if in_process:
        items = [ops.with_digraph(item) for item in message["items"]]
        operation = [ops.OPERATIONS[item.get("kind", workload)] for item in items]
        ops.clear_caches()
    else:
        items = [prepare_cli(item, run_dir, k) for k, item in enumerate(message["items"])]
        operation = [op_cli] * len(items)
    if isinstance(tracer, Tracer):
        tracer.segment = message["segment"]
    finishers, latencies, errors = [], [], []
    started = time.perf_counter()
    for k, (fn, item) in enumerate(zip(operation, items)):
        if isinstance(tracer, Tracer):
            tracer.op_id = message["first_op"] + k
        t0 = time.perf_counter()
        try:
            finishers.append(tracer.call(f"op.{workload}", fn, tracer, item))
            errors.append(None)
        except Exception as err:  # an operation that raises is counted as failed
            finishers.append(None)
            errors.append(f"{type(err).__name__}: {err}")
        latencies.append(time.perf_counter() - t0)
    round_s = time.perf_counter() - started
    entries = ops.cache_entries() if in_process else (0, 0)
    outputs = []
    for item, finish, error in zip(items, finishers, errors):
        out = None
        if finish is not None:
            try:
                out = finish()
                if not in_process and isinstance(tracer, Tracer):
                    out["in_process"] = ops.cli_in_process(tracer, item)
            except Exception as err:
                error = f"after the operation: {type(err).__name__}: {err}"
        outputs.append({"out": out, "error": error})
    return {"latencies": latencies, "round_s": round_s, "outputs": outputs,
            "cache_entries": entries, "peak_rss_kb": peak_rss_kb()}


def main() -> int:
    run_dir = Path(sys.argv[1])
    source = Path(sys.argv[2]).resolve()
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the message stream
    tracer, untraced = None, Untraced()
    while True:
        message = receive(stdin)
        kind = message["cmd"]
        if kind == "round":
            if message["trace"] and tracer is None:
                tracer = Tracer()
            send(stdout, run_round(message, tracer if message["trace"] else untraced, run_dir))
        elif kind == "self-test":
            ops = program()
            if Path(ops.cli.__file__).resolve().parent.parent != source:
                raise ImportError(f"forestcalc imported from {ops.cli.__file__}, not from {source}")
            send(stdout, ops.self_test_outputs(message["inputs"], untraced))
        elif kind == "finish":
            send(stdout, {"spans": tracer.spans if tracer else []})
            return 0
        else:
            raise ValueError(f"unknown command {kind!r}")


if __name__ == "__main__":
    sys.exit(main())
