#!/usr/bin/env python3
"""Benchmark of the qpairs command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src/`` next to this
directory. A pass runs the workload's commands (workloads.py) in order, each
in a fresh interpreter (child.py) that imports ``qpairs.cli`` and calls
``cli.main`` once, as a user's shell would. One child runs at a time, and
the run keeps itself and its children on one core. Passes repeat until
``--seconds`` have passed. Every command's output is checked against the
digests recorded in expected.json.

Every reported time is scaled to a reference speed of the core: each child
times a fixed loop just before and just after its command, and its times are
multiplied by ``speed.REF_S`` over the mean of the two (speed.py). The
unscaled pass times are printed too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
passes. ``--trace 1`` alternates untraced and traced passes; the traced ones
wrap each layer from outside (spans.py) and the run reports the per-layer
metrics, including the tracing overhead. Human-readable lines come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
from workloads import SIZES, WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KILL_AFTER_S = 175.0  # a run never outlives this, whatever the passes do
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
COUNT_UNITS = ("count", "bytes")  # metrics that must repeat exactly


class BenchError(Exception):
    pass


class Child:
    """A finished child: its report, stdout size and peak RSS. Its times are
    scaled to the reference speed by the probes it ran around its command
    (speed.py)."""

    def __init__(self, spawned: float, report: dict, stdout_bytes: int, rss_mb: float):
        self.spawned = spawned
        self.report = report
        self.stdout_bytes = stdout_bytes
        self.rss_mb = rss_mb
        probes = report["command"]["probes"] if "command" in report else [speed.REF_S]
        self.scale = speed.REF_S / statistics.mean(probes)

    @property
    def setup_s(self) -> float:
        """Scaled by the probe that followed it, not by the mean of both."""
        probe = self.report["command"]["probes"][0]
        return (self.report["ready"] - self.spawned) * speed.REF_S / probe

    @property
    def command(self) -> dict:
        return self.report["command"]

    @property
    def raw_work_s(self) -> float:
        return self.command["end"] - self.command["start"]

    @property
    def work_s(self) -> float:
        return self.raw_work_s * self.scale

    @property
    def first_s(self) -> float:
        """Time from the command's start to its first byte of output."""
        cmd = self.command
        return ((cmd["first"] or cmd["end"]) - cmd["start"]) * self.scale


def spawn(argv, trace: bool, deadline: float) -> Child:
    """Run one child to completion and collect what it reports."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    rfd, wfd = os.pipe()
    spec = json.dumps({"fd": wfd, "argv": argv, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), spec], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, pass_fds=(wfd,))
    os.close(wfd)
    report, stdout_bytes = bytearray(), 0
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout.fileno(), selectors.EVENT_READ)
            sel.register(rfd, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError(f"child exceeded the {KILL_AFTER_S:.0f} s run limit")
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fd)
                    elif key.fd == rfd:
                        report += chunk
                    else:
                        stdout_bytes += len(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        os.close(rfd)
    if proc.returncode != 0 or not report:
        raise BenchError(f"child exited with status {proc.returncode} for {argv}")
    child = Child(spawned, json.loads(report), stdout_bytes, usage.ru_maxrss / 1024)
    if not child.report["cli_file"].startswith(str(SRC) + os.sep):
        raise BenchError(f"child imported qpairs from {child.report['cli_file']}, not {SRC}")
    return child


def check_pass(children: list, keys: list, expected: dict) -> int:
    """Number of failed operations in one pass (reported on stderr)."""
    failed = 0
    for key, child in zip(keys, children):
        cmd, want = child.command, expected[key]
        if cmd["code"] != 0 or cmd["sha256"] != want["sha256"] or cmd["bytes"] != want["bytes"]:
            failed += 1
            print(f"mismatch: {key}: exit {cmd['code']}, {cmd['bytes']} bytes, "
                  f"sha256 {cmd['sha256'][:16]}", file=sys.stderr)
        if child.stdout_bytes != cmd["bytes"]:
            raise BenchError(f"{key}: child wrote {child.stdout_bytes} bytes, "
                             f"reported {cmd['bytes']}")
        if cmd.get("negative_control", "fail") != "fail":
            failed += 1
            print(f"mismatch: the negative control passed after {key}", file=sys.stderr)
    return failed


def tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}"
    return f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.4f} s at n={n}"


def pass_s(children: list) -> float:
    return sum(c.work_s for c in children)


def end_to_end(passes: list, items: int) -> dict:
    run = [pass_s(p) for p in passes]
    raw = [sum(c.raw_work_s for c in p) for p in passes]
    scales = [c.scale for p in passes for c in p]
    print(f"samples run_s {' '.join(f'{x:.6f}' for x in run)}")
    print(f"unscaled run_s {' '.join(f'{x:.6f}' for x in raw)}")
    print(f"speed scale median {statistics.median(scales):.4f} min {min(scales):.4f} "
          f"max {max(scales):.4f} over {len(scales)} children")
    print(f"run_s tail: {tail(run)}")
    first = [statistics.mean(c.first_s for c in p) for p in passes]
    return {
        "setup_s": statistics.median(c.setup_s for p in passes for c in p),
        "run_s": statistics.median(run),
        "first_output_s": statistics.median(first),
        "items_per_s": items / statistics.median(run),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in p) for p in passes),
    }


def per_layer(plain: list, traced: list, counts: set) -> tuple:
    """Medians over traced passes of the layer metrics, whether the
    ``counts`` repeated exactly from pass to pass, and the tracing overhead."""
    per_pass = []
    for p in traced:
        m = spans.metrics([c.command["layers"] for c in p], [c.scale for c in p])
        m["cli.output_bytes"] = sum(c.command["bytes"] for c in p)
        per_pass.append(m)
    first = per_pass[0]
    out = {k: first[k] if k in counts else statistics.median(m[k] for m in per_pass)
           for k in first}
    repeat = all(m[k] == first[k] for m in per_pass for k in counts)
    out["trace.run_s"] = statistics.median(pass_s(p) for p in traced)
    out["trace.overhead_frac"] = out["trace.run_s"] / statistics.median(
        pass_s(p) for p in plain) - 1
    return out, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny runs the same paths at toy sizes (self-test)")
    args = ap.parse_args()
    if not (SRC / "qpairs" / "cli.py").is_file():
        print(f"error: no qpairs sources at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[args.size][args.workload]
    plan = invocations(args.workload, args.size, args.seed)
    keys, argvs = [k for k, _ in plan], [a for _, a in plan]
    items = sum(expected[k]["items"] for k in keys)

    nproc = len(os.sched_getaffinity(0))
    cpu = speed.pin()
    print(f"env python={platform.python_version()} nproc={nproc} cpu={cpu} "
          f"workload={args.workload} size={args.size} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    deadline = time.monotonic() + KILL_AFTER_S
    spawn(None, False, deadline)  # writes bytecode caches; not measured
    plain, traced = [], []
    begin = time.monotonic()
    while True:
        tracing = bool(args.trace) and len(plain) > len(traced)
        children = [spawn(argv, tracing, deadline) for argv in argvs]
        (traced if tracing else plain).append(children)
        if time.monotonic() - begin >= args.seconds and (traced or not args.trace):
            break

    controls = len(traced) * len(keys)  # one negative control per traced command
    attempted = (len(plain) + len(traced)) * len(keys) + controls
    failed = sum(check_pass(p, keys, expected) for p in plain + traced)
    correct = failed == 0
    if args.trace:
        specs = bench["per_layer"]
        counts = {m["name"] for m in specs if m["unit"] in COUNT_UNITS}
        values, repeat = per_layer(plain, traced, counts)
        correct = correct and repeat
    else:
        values = end_to_end(plain, items)
        specs = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(f"passes={len(plain)} traced_passes={len(traced)} items_per_pass={items} "
          f"attempted={attempted} failed={failed} fail_frac={failed / attempted}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
