"""fracpid benchmark: one command, three seeded closed-loop workloads.

Single run (the last stdout line is the JSON result)::

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 25 --trace 0

Steadiness mode, repeating each workload with seeds 1..N and printing every
metric's quartile spread against its bound from BENCHMARK.json::

    python3 bench/run.py --repeat 10 --workload all --seconds 25 --trace 0

The workload itself runs in a fresh interpreter (``worker.py``) with the
checkout's ``src`` on the path and BLAS/OpenMP threads pinned to 1. ``setup_s``
is the median import time of ``fracpid`` and ``fracpid.cli`` over that
interpreter and SETUP_SAMPLES_EACH_SIDE fresh ones started before it and as
many after it, so one slow spell of the machine moves few samples.
All reported timings are scaled by a reference kernel (see speed.py); the
unscaled wall-clock figures are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("design-sweep", "step-response", "cli-session")
SETUP_SAMPLES_EACH_SIDE = 5  # fresh interpreters before and after the workload
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import fracpid, fracpid.cli\n"
    "t = time.perf_counter() - t\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "import speed\n"
    "print(t, speed.kernel_seconds())\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("self_ms") or name.endswith("op_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name == "tuner.probes_per_design":
        return "probes/design"
    if name == "cli.out_bytes":
        return "B"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def import_sample(env: dict[str, str], deadline: float) -> list[float]:
    """[import wall time, reference-kernel time] of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing fracpid failed:\n{done.stderr}")
    return [float(v) for v in done.stdout.split()]


def single_run(args) -> int:
    if not (ROOT / "src" / "fracpid" / "__init__.py").is_file():
        print(f"no fracpid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env()
    import_sample(env, deadline)  # writes the bytecode cache a real install would have
    side = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
    setup = [import_sample(env, deadline) for _ in range(side)]

    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--root", str(ROOT)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        print(done.stdout + done.stderr, file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])
    setup.append(res["setup"])
    setup += [import_sample(env, deadline) for _ in range(side)]

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  inputs: {json.dumps(res['stats'])}")
    for note in res["notes"]:
        print(f"  FAILED {note}")
    print(f"  fail_ratio = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops, warm-up included; "
          f"oracles took {res['check_s']:.3g} s)")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in res["metrics"].items()}
    else:
        values = dict(res["metrics"])
        wall = values.pop("wall")
        wall["setup_s"] = statistics.median(t for t, _ in setup)
        values["setup_s"] = statistics.median(t * speed.REF_S / k for t, k in setup)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        print(f"  latency samples = {values.pop('samples')}; reference kernel median "
              f"{values.pop('kernel_ms'):.4g} ms; timings below are scaled (bench/speed.py)")
        print("  unscaled wall: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def repeat_runs(args) -> int:
    """Run each workload with seeds 1..N; report quartile spreads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in names:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, args.repeat + 1):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            res = json.loads(lines[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {failed} failed ops")
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if spread < bound / 3 else
                                                "WIDE" if spread < bound else "OVER")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            if bound is not None or args.trace:
                print(f"  {name:28s} median {med:12.6g}  spread {spread:7.4f}"
                      + (f"  bound {bound:g} {verdict}" if bound is not None else ""))
    print(json.dumps(summary))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload with seeds 1..N and report spreads")
    args = ap.parse_args()
    if args.repeat:
        return repeat_runs(args)
    if args.workload == "all":
        ap.error("a single run needs one workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
