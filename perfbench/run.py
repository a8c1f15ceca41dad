"""Benchmark of the kkpolar CLI, end to end.

    python3 perfbench/run.py --workload bounds_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The script starts worker processes one
after another, never two at once: SETUP_SAMPLES - 1 that only set up, then
the measured one.  `setup_s` is the median over all of them of the time
from starting the process to its first timed call, each scaled to the
reference machine speed by the calibration kernel the worker runs after it
(see worker.py).  It prints each metric
with its unit, then, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  See
perfbench/README.md for the workloads and what each metric should track.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 175.0


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool):
    """Run one worker to completion; return its set-up time, the machine
    slowdown it measured and its result (None for set-up-only workers)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    ready, slowdown, result = None, None, None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - start
        elif line.startswith("SLOWDOWN "):
            slowdown = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
            slowdown = result["info"].get("slowdown")
    if ready is None or (result is None and not setup_only):
        raise WorkerError("worker output lacks READY or RESULT")
    return ready, slowdown, result


def describe(result: dict, setups: list[tuple]) -> list[str]:
    """Human-readable lines: every metric with its unit, then the notes
    behind them."""
    info = result["info"]
    lines = [f"# {info['blocks']} blocks of {info['block']} calls, "
             f"attempted {result['attempted']}, failed {result['failed']}"]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"{name} = {value!r} {unit}")
    if "tail_percentile" in info:
        lines.append(f"# latency_tail_ms is p{info['tail_percentile']:.4g} of "
                     f"{info['tail_samples']} samples, 10 beyond it")
        lines.append(f"# failed_frac = {info['failed_frac']!r}")
        lines.append(f"# machine slowdown {info['slowdown']:.4f}; raw: " + ", ".join(
            f"{name} {value!r}" for name, value in info["raw"].items()))
    else:
        lines.append(f"# traced wall {info['traced_wall_s']:.6g} s = layer self "
                     f"times {info['layer_self_sum_s']:.6g} s + harness "
                     f"{info['harness_s']:.6g} s; {info['spans']} spans in "
                     f"{info['spans_file']}")
    if setups:
        lines.append("# set-up samples, raw s / slowdown: " + ", ".join(
            f"{s:.4f}/{f:.3f}" for s, f in setups))
    lines.append(f"# environment: nproc {info['nproc']}, python {info['python']}, "
                 f"numpy {info['numpy']}, scipy {info['scipy']}, BLAS threads "
                 f"{info['blas_threads']}; load: {info['load']}")
    for argv, problems in info["failures"]:
        lines.append(f"# failed: {' '.join(argv)}: {'; '.join(problems)}")
    lines.append(f"# notes on {info['notes']} calls (not failures)")
    for argv, notes in info["first_notes"]:
        lines.append(f"# note: {' '.join(argv)}: {'; '.join(notes)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kkpolar CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [spawn(args, deadline, True)[:2]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        ready, slowdown, result = spawn(args, deadline, False)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append((ready, slowdown))
        result["metrics"]["setup_s"] = (
            statistics.median(s / f for s, f in setups), "s")
    for line in describe(result, setups):
        print(line)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
