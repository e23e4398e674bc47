"""Span tracer that wraps fracpid's public functions from outside the package.

Each traced function is replaced, in every ``fracpid`` module namespace that
holds it, by a wrapper that records one span: name, start, end, the span
that was open when it was called (its parent) and the op it belongs to.
Nothing in ``src/`` is edited. Spans stay in flat in-memory lists while the
workload runs; ``reduce`` turns them into per-function call counts and self
times, and ``save`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# module -> public functions to wrap. Cheap helpers that run many times per
# call of these (classify_wedge, w_zeros, fmt) stay unwrapped: their time is
# charged to the caller's self time, and wrapping them would mostly measure
# the wrapper.
TRACED = {
    "numerics": ("solve_cubic", "eig_sym3", "integrate_fixed_step"),
    "pole_placement": ("place_gains", "closed_loop_poles"),
    "fractional_map": ("s_zeros", "equivalent_pid"),
    "lqr_inverse": ("riccati_package", "delta_p_eigenvalues"),
    "tuner": ("two_stage_tune", "mcurve"),
    "simulate": ("simulate_closed_loop", "metrics"),
    "cli": ("main", "build_parser", "resolve_config"),
}

OP = "op"  # root span the benchmark opens around every op


class Tracer:
    """Records spans while ``enabled``; a disabled wrapper only forwards."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = [OP]
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.error: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def install(self) -> None:
        """Wrap every function in TRACED wherever a fracpid module binds it."""
        import importlib

        modules = [importlib.import_module("fracpid")]
        modules += [importlib.import_module(f"fracpid.{m}") for m in TRACED]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"fracpid.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self.error.append("")
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def begin_op(self, op: int) -> int:
        self._op = op
        return self._open(0)

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def reduce(self) -> dict[str, float]:
        """Per-function calls and self time, per-module self time, and the
        derived tuner and op counts."""
        n = len(self.start)
        name_of = np.asarray(self.name_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ms = (dur - child) * 1e3
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        self_by_name = np.bincount(name_of, weights=self_ms, minlength=k)

        out: dict[str, float] = {}
        for module in TRACED:
            out[f"{module}.self_ms"] = 0.0
        for i, name in enumerate(self.names):
            if name == OP:
                continue
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_by_name[i])
            out[f"{name.split('.')[0]}.self_ms"] += float(self_by_name[i])

        tune_id = self.names.index("tuner.two_stage_tune")
        poles_id = self.names.index("pole_placement.closed_loop_poles")
        is_poles = name_of == poles_id
        probes = int(np.count_nonzero(name_of[parent[is_poles]] == tune_id))
        tunes = int(calls[tune_id])
        unreachable = sum(
            1 for i in np.flatnonzero(name_of == tune_id) if self.error[i] == "TargetUnreachable"
        )
        out["tuner.probes_per_design"] = probes / tunes if tunes else 0.0
        out["tuner.unreachable_ratio"] = unreachable / tunes if tunes else 0.0
        for key in ("simulate.samples", "cli.out_bytes",
                    "cli.main.exit_0", "cli.main.exit_2", "cli.main.exit_3", "cli.main.exit_4"):
            out[key] = int(self.counts[key])
        out["trace.ops"] = int(calls[0])
        out["trace.op_ms"] = float(dur[name_of == 0].sum() * 1e3)
        out["trace.spans"] = n
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.name_of, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op_id, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            error=np.asarray(self.error),
        )


def _count_samples(counts, args, kwargs, trace) -> None:
    counts["simulate.samples"] += int(trace.t.size)


def _count_exit(counts, args, kwargs, code) -> None:
    counts[f"cli.main.exit_{code}"] += 1
    out = kwargs.get("out")
    if out is not None:
        counts["cli.out_bytes"] += out.tell()


_HOOKS = {
    "simulate.simulate_closed_loop": _count_samples,
    "cli.main": _count_exit,
}
