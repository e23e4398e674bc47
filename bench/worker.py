"""One workload run in a fresh interpreter; prints one JSON line.

``run.py`` starts this file with the checkout's ``src`` on ``PYTHONPATH``
and every BLAS/OpenMP thread count set to 1. It times its own import of
``fracpid`` first, before any other import, as one ``setup_s`` sample. It
then warms up and either

* ``--trace 0``: runs ops until their summed wall time reaches
  ``--seconds`` and reports per-op latencies, or
* ``--trace 1``: runs a fixed, seed-determined list of ops, each once
  untraced and once traced, and reports per-layer counts and self times.

Each op's output is checked right after it returns, outside its timer.
"""

import time

_import_start = time.perf_counter()
import fracpid  # noqa: E402
import fracpid.cli  # noqa: E402,F401

SETUP_WALL_S = time.perf_counter() - _import_start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WARMUP_OPS = {"design-sweep": 40, "step-response": 3, "cli-session": 60}
MAX_LOOP_WALL_S = 120.0  # keeps a run inside the 180 s limit if oracles slow down
MAX_FAILURE_NOTES = 5
KERNEL_EVERY_S = 0.05  # op time between reference-kernel samples


class Runner:
    """Runs ops of one workload and checks every output."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.stats: Counter = Counter()
        self.check_s = 0.0

    def one(self, index: int, spec, count_inputs: bool = True) -> float:
        """Run and check one op; return its wall time in seconds."""
        tracer = self.tracer
        span = tracer.begin_op(index) if tracer is not None and tracer.enabled else None
        start = time.perf_counter()
        try:
            result, error = self.wl.run(spec), None
        except Exception as exc:  # any untyped exception is a failed op
            result, error = None, f"op raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.end_op(span)

        was_enabled = tracer is not None and tracer.enabled
        if was_enabled:
            tracer.enabled = False
        check_start = time.perf_counter()
        if error is None:
            try:
                error = self.wl.check(spec, result)
                if count_inputs:
                    self.wl.stats(spec, result, self.stats)
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        self.check_s += time.perf_counter() - check_start
        if was_enabled:
            tracer.enabled = True

        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"op {index}: {error}")
        return elapsed


def _latency(op_s: list[float]) -> dict:
    deciles = statistics.quantiles([t * 1e3 for t in op_s], n=10, method="inclusive")
    return {"ops_per_s": len(op_s) / sum(op_s), "op_ms_p50": deciles[4], "op_ms_p90": deciles[8]}


def timed_run(runner: Runner, ops, seconds: float) -> dict:
    """Ops until their summed wall time reaches ``seconds``; latencies in
    scaled time (see speed.py), with the wall-time figures alongside."""
    track = speed.SpeedTrack(KERNEL_EVERY_S)
    busy = 0.0
    wall_start = time.perf_counter()
    while busy < seconds and time.perf_counter() - wall_start < MAX_LOOP_WALL_S:
        spec = next(ops)
        track.before_op()
        elapsed = runner.one(len(track.ops), spec)
        track.record(elapsed)
        busy += elapsed
    metrics = _latency(track.scaled())
    metrics["samples"] = len(track.ops)
    metrics["wall"] = _latency([t for t, _ in track.ops])
    metrics["kernel_ms"] = statistics.median(track.samples) * 1e3
    return metrics


def traced_run(runner: Runner, workload, seconds: float, spans_path: Path) -> dict:
    """A fixed, seed-determined op list; per-layer counts and self times."""
    count = max(4, round(workload.trace_rate * seconds / 3.0))
    stream = workload.ops("timed")
    specs = [next(stream) for _ in range(count)]

    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    # each op runs untraced and traced back to back, so both timings see the
    # same machine state; the order alternates so neither side always gets
    # the caches the other warmed
    untraced = traced = 0.0
    for i, spec in enumerate(specs):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.enabled = on
            elapsed = runner.one(i, spec, count_inputs=not on)
            tracer.enabled = False
            if on:
                traced += elapsed
            else:
                untraced += elapsed

    metrics = tracer.reduce()
    metrics["trace.overhead_ratio"] = untraced / traced  # traced ops/s over untraced ops/s
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()
    root = Path(args.root)

    if Path(fracpid.__file__).resolve().parent != root / "src" / "fracpid":
        raise SystemExit(f"imported fracpid from {fracpid.__file__}, not from {root / 'src'}")
    setup = [SETUP_WALL_S, speed.kernel_seconds()]

    workdir = root / "bench" / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stderr = io.StringIO()
    try:
        workload = workloads.WORKLOADS[args.workload](fracpid, args.seed, workdir)
        runner = Runner(workload)
        # library warnings and CLI error lines go to memory, not the terminal
        with contextlib.redirect_stderr(stderr):
            warmup = workload.ops("warmup")
            for i in range(WARMUP_OPS[args.workload]):
                runner.one(-1 - i, next(warmup))
            runner.stats.clear()
            if args.trace:
                spans = root / "bench" / "out" / f"spans-{args.workload}.npz"
                metrics = traced_run(runner, workload, args.seconds, spans)
            else:
                metrics = timed_run(runner, workload.ops("timed"), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "notes": runner.notes,
        "check_s": runner.check_s,
        "stats": dict(sorted(runner.stats.items())),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
