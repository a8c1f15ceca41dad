"""One benchmark process: set up, run the closed loop, print the metrics.

run.py starts this script once per set-up sample and once for the measured
run:

    python3 perfbench/worker.py --workload bounds_sweep --seed 1 \\
        --seconds 25 --trace 0 [--setup-only]

Set-up imports numpy, scipy and kkpolar from the checkout's `src/`, builds
the first seeded block of calls with the checker's reference values and
makes one warm-up call per subcommand.  The worker then prints `READY <monotonic
time>`; with --setup-only it stops there.  Otherwise it calls
`kkpolar.cli.main(argv)` in-process, one call after another (a closed loop
with one client), in whole blocks of the workload's call stream until
--seconds have passed, and prints one `RESULT <json>` line.

With --trace 1 the first half of the time runs untraced and the same blocks
then run again under the tracer; the result carries per-layer metrics per
block and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
TAIL_BEYOND = 10
# a run makes at least this many calls, so its tail lies above its median
MIN_CALLS = 2 * TAIL_BEYOND + 1

# The machine is shared and its speed drifts by +-20% over minutes, for
# interpreted and numpy code alike.  A fixed calibration kernel runs
# between calls; time metrics are scaled by the kernel's median time in
# the run over CALIBRATION_REF_S, its median on the machine in README.md,
# so they read as at that machine's reference speed.  Raw values are
# printed beside them.
CALIBRATION_REF_S = 0.015
CALIBRATION_REPEATS = 2
CALIBRATION_INTERVAL_S = 1.0


@dataclass
class Phase:
    """Per-call outcomes of a run of whole blocks."""

    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[list[str], list[str]]] = field(default_factory=list)
    notes: list[tuple[list[str], list[str]]] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    blocks: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def slowdown(self) -> float:
        """Machine speed during the run relative to the reference speed."""
        return statistics.median(self.calibration) / CALIBRATION_REF_S


def calibration_kernel() -> float:
    """Fixed mix of interpreted arithmetic, small numpy calls and a scipy
    Nelder-Mead run, like the program's own work."""
    import numpy as np
    from scipy import optimize

    grid = np.linspace(-1.0, 1.0, 257)
    total = 0.0
    for i in range(8_000):
        total += math.sqrt(i + 1.0) * 0.5
        if i % 8 == 0:
            total += float(np.dot(grid, grid))
    target = np.array([0.3, -0.2, 0.1])
    res = optimize.minimize(lambda z: float(np.sum((z - target) ** 2)),
                            np.zeros(3), method="Nelder-Mead",
                            options={"maxiter": 200, "xatol": 1e-12,
                                     "fatol": 1e-14})
    return total + res.fun


def calibrate(samples: list[float]) -> None:
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - start)


def attempt(cli, case, reference, check_output, notes):
    """One timed call of the CLI; the checks run after the clocks stop.
    Returns wall time, process CPU time and the problems found; notes on
    the output go to `notes`."""
    buf = io.StringIO()
    start, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(case.argv)
    except SystemExit as exc:
        status = f"argparse exit {exc.code}"
    except Exception as exc:  # an uncaught error is a failed call
        status = f"raised {type(exc).__name__}: {exc}"
    elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu0
    return elapsed, cpu, check_output(case, status, buf.getvalue(), reference,
                                      notes)


class Stream:
    """The workload's blocks, generated on first use and kept, so a traced
    phase can replay the blocks an untraced phase ran.  Generation and the
    checker's reference values stay outside the timed calls."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.blocks: list[list[tuple]] = []

    def block(self, index: int) -> list[tuple]:
        from checks import sampled_reference
        from workloads import make_block

        while len(self.blocks) <= index:
            cases = make_block(self.workload, self.seed, len(self.blocks),
                               self.workdir)
            refs = []
            for case in cases:
                ref = None
                if case.kind in ("polarize_random", "certify_random"):
                    points = load_points(case.params["path"])
                    ref = (points, sampled_reference(points, case.params["pot"],
                                                     self.seed))
                refs.append(ref)
            self.blocks.append(list(zip(cases, refs)))
        return self.blocks[index]


def run_blocks(cli, stream: Stream, check_output, *, seconds=None,
               blocks=None, tracer=None) -> Phase:
    """Whole blocks: until `seconds` have passed and MIN_CALLS calls have
    been made, or exactly `blocks` of them.  `busy_s` counts only the time inside calls;
    between calls the calibration kernel runs about every
    CALIBRATION_INTERVAL_S."""
    phase = Phase()
    start = time.perf_counter()
    calibrate(phase.calibration)
    next_calibration = time.perf_counter() + CALIBRATION_INTERVAL_S
    while True:
        for case, ref in stream.block(phase.blocks):
            notes: list[str] = []
            if tracer is None:
                elapsed, cpu, problems = attempt(cli, case, ref, check_output,
                                                 notes)
            else:
                tracer.call_id += 1
                with tracer.span("harness.call", "harness"):
                    elapsed, cpu, problems = attempt(cli, case, ref,
                                                     check_output, notes)
            phase.busy_s += elapsed
            phase.cpu_s += cpu
            phase.latencies.append(elapsed)
            phase.ok.append(not problems)
            if problems:
                phase.failures.append((case.argv, problems))
            if notes:
                phase.notes.append((case.argv, notes))
            if time.perf_counter() >= next_calibration:
                calibrate(phase.calibration)
                next_calibration = time.perf_counter() + CALIBRATION_INTERVAL_S
        phase.blocks += 1
        if blocks is not None and phase.blocks >= blocks:
            break
        if (blocks is None and time.perf_counter() - start >= seconds
                and phase.attempted >= MIN_CALLS):
            break
    calibrate(phase.calibration)
    phase.wall_s = time.perf_counter() - start
    return phase


def latency_metrics(phase: Phase) -> dict:
    """Median and tail of per-call latency, failed calls ranked as +inf.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it at this call count (nearest rank)."""
    ranked = sorted(lat if ok else math.inf
                    for lat, ok in zip(phase.latencies, phase.ok))
    count = len(ranked)
    p50 = ranked[math.ceil(count / 2) - 1]
    if count > TAIL_BEYOND:
        tail, pct = ranked[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count
    else:
        tail, pct = ranked[-1], 100.0
    return {"p50_s": p50, "tail_s": tail, "tail_percentile": pct,
            "samples": count}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy build, when it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "load": "closed loop, 1 client, 1 process"}


def end_to_end(phase: Phase) -> dict:
    """Time metrics at the reference machine speed; raw ones in `info`."""
    lat = latency_metrics(phase)
    raw = {
        "calls_per_s": (phase.attempted - phase.failed) / phase.busy_s,
        "latency_p50_ms": lat["p50_s"] * 1e3,
        "latency_tail_ms": lat["tail_s"] * 1e3,
        "cpu_ms_per_call": phase.cpu_s / phase.attempted * 1e3,
    }
    slow = phase.slowdown
    metrics = {
        "calls_per_s": (raw["calls_per_s"] * slow, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] / slow, "ms"),
        "latency_tail_ms": (raw["latency_tail_ms"] / slow, "ms"),
        "cpu_ms_per_call": (raw["cpu_ms_per_call"] / slow, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "metrics": metrics,
        "info": {"tail_percentile": lat["tail_percentile"],
                 "tail_samples": lat["samples"],
                 "failed_frac": phase.failed / phase.attempted,
                 "blocks": phase.blocks, "wall_s": phase.wall_s,
                 "slowdown": phase.slowdown, "raw": raw},
    }


def traced(cli, stream: Stream, check_output, seconds: float, spans_path) -> dict:
    """Untraced blocks for half the time, then the same blocks traced."""
    import tracer as tracing

    plain = run_blocks(cli, stream, check_output, seconds=seconds / 2.0)
    rec = tracing.Tracer()
    with tracing.instrument(rec):
        with_trace = run_blocks(cli, stream, check_output,
                                blocks=plain.blocks, tracer=rec)
    rec.write(spans_path)
    metrics = tracing.layer_metrics(rec, plain.blocks)
    metrics["trace_overhead_frac"] = (with_trace.busy_s / plain.busy_s - 1.0,
                                      "ratio")
    harness_s = (with_trace.wall_s - rec.group_s["harness"]
                 + rec.self_s["harness"])
    layers_s = sum(rec.self_s[layer] for layer in tracing.LAYERS)
    return {"metrics": metrics, "phases": (plain, with_trace),
            "info": {"blocks": plain.blocks,
                     "traced_wall_s": with_trace.wall_s,
                     "harness_s": harness_s, "layer_self_sum_s": layers_s,
                     "spans": len(rec.spans), "spans_file": str(spans_path)}}


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed call: imports, the first block of
    inputs with its reference values, and the warm-up calls."""
    sys.path.insert(0, str(SRC))
    from kkpolar import cli

    if Path(cli.__file__).resolve().parent != (SRC / "kkpolar").resolve():
        raise RuntimeError(f"kkpolar imported from {cli.__file__}, not {SRC}")
    from checks import check_output
    from workloads import WARMUP

    stream = Stream(workload, seed, workdir)
    stream.block(0)
    for argv in WARMUP[workload]:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"warm-up call {argv} exited {status}")
    return cli, stream, check_output


def load_points(path: str):
    import numpy as np

    return np.asarray(json.loads(Path(path).read_text())["points"], dtype=float)


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kkpolar" / "cli.py").is_file():
        print(f"perfbench: no kkpolar sources under {SRC}", file=sys.stderr)
        return 2
    workdir = TMP_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, stream, check_output = setup(args.workload, args.seed, workdir)
        print("READY", repr(time.monotonic()), flush=True)
        if args.setup_only:
            samples: list[float] = []
            for _ in range(5):
                calibrate(samples)
            print("SLOWDOWN", repr(statistics.median(samples) / CALIBRATION_REF_S),
                  flush=True)
            return 0
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            result = traced(cli, stream, check_output, args.seconds, spans)
            phases = result.pop("phases")
        else:
            phases = (run_blocks(cli, stream, check_output,
                                 seconds=args.seconds),)
            result = end_to_end(phases[0])
        attempted = sum(p.attempted for p in phases)
        failures = [f for p in phases for f in p.failures]
        notes = [n for p in phases for n in p.notes]
        result["info"].update(environment(), block=len(stream.block(0)),
                              failures=failures[:5], notes=len(notes),
                              first_notes=notes[:3])
        result.update(correct=not failures, attempted=attempted,
                      failed=len(failures))
        print("RESULT", json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()


if __name__ == "__main__":
    sys.exit(main())
