"""Command-line front end: place, tune, mcurve, simulate, and inverse.

Configuration comes from named presets and/or an INI-style config file with
``[plant]``, ``[target]``, ``[tune]``, ``[qgrid]``, ``[scenario]``,
``[gains]``, ``[gains2]``, and ``[output]`` sections; command-line flags
override both.
Unknown sections or keys are hard errors so regression fixtures stay exact.
All numeric output uses 6 significant digits and is byte-deterministic.

Every command writes each distinct warning once to stderr as
``warning: <message>``, before any ``error:`` line. Exit codes: 0 success,
2 config or precondition error, 3 unstable loop, 4 unreachable damping target.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from dataclasses import astuple, dataclass

from .fractional_map import Q_SWEEP_HIGH, Q_SWEEP_LOW, OutsideWedge, RealZeros
from .lqr_inverse import UnstableGains, riccati_package, RiccatiPackage
from .numerics import NonFiniteState
from .pole_placement import (
    ClosedLoopTarget,
    PidGains,
    Plant,
    UnstableClosedLoop,
    closed_loop_poles,
    place_gains,
)
from .simulate import (
    DISTURBANCE_FRACTION,
    Trace,
    default_scenario,
    metrics,
    simulate_closed_loop,
)
from .tuner import DEFAULT_Q_STEP, TargetUnreachable, TuningReport, mcurve, two_stage_tune

__all__ = ["main", "RunConfig", "PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_UNREACHABLE = 4

MCURVE_HEADER = "q,kp_hat,ki_hat,kd_hat,zero_re,zero_im,zeta_cl,omega_n_cl,wedge,stable"
TRACE_HEADER = "t,r,y,u,d"
TUNE_HEADER = (
    "controller,kp,ki,kd,q1,q2,q3,r,p11,p12,p13,p22,p23,p33,care_residual"
)


class ConfigError(ValueError):
    """Bad config file, preset name, or flag combination."""


@dataclass
class RunConfig:
    """Resolved run configuration after merging preset, file, and flags."""

    plant: Plant | None = None
    target: ClosedLoopTarget | None = None
    desired_zeta: float | None = None
    tune_q_step: float = DEFAULT_Q_STEP
    r: float = 1.0
    refine: bool = False
    q_from: float = Q_SWEEP_HIGH
    q_to: float = Q_SWEEP_LOW
    q_step: float = 0.01
    t_end: float | None = None
    dt: float | None = None
    step_amplitude: float = 1.0
    disturbance_amplitude: float = 0.0
    disturbance_time: float | None = None
    gains: PidGains | None = None
    gains2: PidGains | None = None
    out: str | None = None


# the plants and stage-1 targets used throughout as worked benchmarks
PRESETS: dict[str, dict] = {
    "p1": {
        "plant": (9.0, 0.2, 3.0),
        "target": (0.75, 7.0, 10.0),
        "desired_zeta": 0.93,
    },
    "p2": {
        "plant": (25.0, 1.0, 5.0),
        "target": (0.75, 10.0, 10.0),
        "desired_zeta": 0.92,
    },
    "p3": {
        "plant": (1.0, 5.0, 1.0),
        "target": (0.75, 5.0, 10.0),
        "desired_zeta": 0.91,
    },
    "wang-oscillatory": {
        "plant": (1.0, 0.2, 0.1),
        "target": (0.98, 2.0, 10.0),
    },
}


# the one rule for numeric output: 6 significant digits
_SIG6 = "%.6g"
# most trace rows filled by one % operation
_TRACE_BLOCK = 512


def fmt(x: float) -> str:
    """Fixed 6-significant-digit formatting for all numeric output."""
    return _SIG6 % float(x)


def _cell(v) -> str:
    """One output cell: empty for None, true/false, text as is, numbers by %.6g."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    return _SIG6 % v


def _csv(header: str, rows) -> str:
    return "".join([header + "\n", *(",".join(map(_cell, row)) + "\n" for row in rows)])


def _fields(obj) -> list[tuple]:
    # a dataclass's (name, value) pairs in field order
    return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]


def _render(record, indent: str = "") -> str:
    """Text of a record, a list of (label, value) entries: one `label: value`
    line each, or for a list value a block of its entries indented two spaces
    under `label:`. A dataclass or a dict prints as name=value pairs in field
    order, a tuple as space-separated cells, anything else as one _cell."""
    lines = []
    for label, value in record:
        if isinstance(value, list):
            lines.append(f"{indent}{label}:\n{_render(value, indent + '  ')}")
            continue
        if isinstance(value, tuple):
            text = " ".join(map(_cell, value))
        elif isinstance(value, dict) or dataclasses.is_dataclass(value):
            pairs = value.items() if isinstance(value, dict) else _fields(value)
            text = " ".join([f"{name}={_cell(v)}" for name, v in pairs])
        else:
            text = _cell(value)
        lines.append(f"{indent}{label}: {text}\n")
    return "".join(lines)


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _parse_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")


def _parse_str(section: str, key: str, raw: str) -> str:
    return raw


def _floats(*keys: str) -> tuple:
    return tuple((key, key, _parse_float) for key in keys)


# Config sections in the order they are parsed, each with the object it
# builds (or None) and its (key, attribute, parser) rows in parse order. A
# section that builds an object passes each key as the constructor argument
# of that name and sets the RunConfig attribute named after the section;
# otherwise each key sets its own RunConfig attribute.
_SCHEMA = {
    "plant": (Plant, _floats("k", "zeta_ol", "omega_n_ol")),
    "target": (ClosedLoopTarget, _floats("zeta_cl", "omega_n_cl", "m")),
    "tune": (
        None,
        (
            ("desired_zeta", "desired_zeta", _parse_float),
            ("q_step", "tune_q_step", _parse_float),
            ("r", "r", _parse_float),
            ("refine", "refine", _parse_bool),
        ),
    ),
    "qgrid": (None, _floats("q_from", "q_to", "q_step")),
    "scenario": (
        None,
        _floats("t_end", "dt", "step_amplitude", "disturbance_amplitude", "disturbance_time"),
    ),
    "gains": (PidGains, _floats("kp", "ki", "kd")),
    "gains2": (PidGains, _floats("kp", "ki", "kd")),
    "output": (None, (("path", "out", _parse_str),)),
}


def _load_config_file(path: str, cfg: RunConfig) -> None:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        # configparser diagnostics carry line numbers for malformed content
        raise ConfigError(f"malformed config file: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        known = {key for key, _attr, _parse in _SCHEMA[section][1]}
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    for section, (build, rows) in _SCHEMA.items():
        raw = dict(parser[section]) if parser.has_section(section) else {}
        if build is None:
            for key, attr, parse in rows:
                if key in raw:
                    setattr(cfg, attr, parse(section, key, raw[key]))
        elif raw:
            # keys the constructor gives no default for are required
            missing = sorted(
                f.name
                for f in dataclasses.fields(build)
                if f.default is dataclasses.MISSING and f.name not in raw
            )
            if missing and section == "target":
                raise ConfigError("[target] needs zeta_cl and omega_n_cl")
            if missing:
                raise ConfigError(f"[{section}] missing keys: {missing}")
            args = {attr: parse(section, key, raw[key]) for key, attr, parse in rows if key in raw}
            setattr(cfg, section, build(**args))


def _apply_preset(name: str, cfg: RunConfig) -> None:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    preset = PRESETS[name]
    cfg.plant = Plant(*preset["plant"])
    cfg.target = ClosedLoopTarget(*preset["target"])
    if "desired_zeta" in preset:
        cfg.desired_zeta = preset["desired_zeta"]


# flag dests that override the RunConfig attribute of the same name, in the
# order they are checked
_FLAG_ATTRS = (
    "desired_zeta", "q_from", "q_to", "q_step", "dt", "t_end", "r",
    "disturbance_amplitude", "disturbance_time", "out",
)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge preset, config file, and flag overrides, in that order."""
    cfg = RunConfig()
    if getattr(args, "preset", None):
        _apply_preset(args.preset, cfg)
    if getattr(args, "config", None):
        _load_config_file(args.config, cfg)
    # --q-step means the stage-2 search step for tune/simulate and the sweep
    # step for mcurve
    q_step_attr = "q_step" if args.command == "mcurve" else "tune_q_step"
    for flag in _FLAG_ATTRS:
        value = getattr(args, flag, None)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{flag.replace('_', '-')}: not a finite number: {value!r}")
        if value is not None:
            setattr(cfg, q_step_attr if flag == "q_step" else flag, value)
    if getattr(args, "refine", False):
        cfg.refine = True
    for flag in ("gains", "gains2"):
        raw = getattr(args, flag, None)
        if raw:
            setattr(cfg, flag, _parse_gains_flag(flag, raw))
    return cfg


def _parse_gains_flag(flag: str, raw: str) -> PidGains:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--{flag} expects kp,ki,kd; got {raw!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--{flag} values are not numbers: {raw!r}") from exc
    return PidGains(*values)


def _require_plant(cfg: RunConfig) -> Plant:
    if cfg.plant is None:
        raise ConfigError("no plant configured; use --preset or a [plant] section")
    return cfg.plant


def _require_target(cfg: RunConfig) -> ClosedLoopTarget:
    if cfg.target is None:
        raise ConfigError("no target configured; use --preset or a [target] section")
    return cfg.target


def _write_text(path: str | None, text: str, out) -> None:
    if path is None:
        out.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_place(args: argparse.Namespace, out) -> int:
    cfg = resolve_config(args)
    plant = _require_plant(cfg)
    target = _require_target(cfg)
    gains = place_gains(plant, target)
    report = closed_loop_poles(plant, gains)
    poles = ", ".join(
        f"{fmt(r.real)}{'+' if r.imag >= 0 else '-'}{fmt(abs(r.imag))}j"
        for r in report.roots.roots
    )
    out.write(_render([
        ("plant", plant),
        ("target", target),
        ("gains", gains),
        ("poles", poles),
        ("dominant", {"zeta": report.dominant_zeta, "omega_n": report.dominant_omega_n}),
        ("real pole", report.real_pole),
        ("dominance ratio", report.dominance_ratio),
    ]))
    return EXIT_OK


def _riccati_entries(label: str, pkg: RiccatiPackage) -> list[tuple]:
    q1, q2, q3 = pkg.q_diag
    p = pkg.p
    return [
        (f"weights ({label})", {"q1": q1, "q2": q2, "q3": q3, "r": pkg.r}),
        (f"riccati p ({label})", {
            "p11": p.a11, "p12": p.a12, "p13": p.a13, "p22": p.a22, "p23": p.a23, "p33": p.a33,
        }),
    ]


def _tune_csv(report: TuningReport) -> str:
    return _csv(TUNE_HEADER, [
        (label, *astuple(gains), *pkg.q_diag, pkg.r, *astuple(pkg.p), pkg.care_residual)
        for label, gains, pkg in (
            ("single-stage", report.single_stage_gains, report.riccati_lqr),
            ("suboptimal", report.suboptimal_gains, report.riccati_subopt),
        )
    ])


def _cmd_tune(args: argparse.Namespace, out) -> int:
    cfg = resolve_config(args)
    plant = _require_plant(cfg)
    target = _require_target(cfg)
    if cfg.desired_zeta is None:
        raise ConfigError("tune needs --desired-zeta or [tune] desired_zeta")
    report = two_stage_tune(
        plant,
        target,
        cfg.desired_zeta,
        q_step=cfg.tune_q_step,
        r=cfg.r,
        refine=cfg.refine,
    )
    out.write(_render([
        ("plant", plant),
        ("stage 1 target", target),
        ("stage-1 gains", report.stage1_gains),
        ("desired zeta", cfg.desired_zeta),
        ("chosen q", report.chosen_q),
        ("achieved", {"zeta": report.achieved_zeta, "omega_n": report.achieved_omega_n}),
        ("suboptimal gains", report.suboptimal_gains),
        ("single-stage gains", report.single_stage_gains),
        *_riccati_entries("single-stage", report.riccati_lqr),
        *_riccati_entries("suboptimal", report.riccati_subopt),
        ("delta-p eigenvalues", report.delta_p_eigs),
        ("cost verdict", report.cost_verdict),
        ("initial control (single-stage)", report.initial_control_lqr),
        ("initial control (suboptimal)", report.initial_control_subopt),
    ]))
    if cfg.out is not None:
        _write_text(cfg.out, _tune_csv(report), out)
    return EXIT_OK


def _mcurve_csv(points) -> str:
    # gains and zero are missing outside the wedge, the dominant pair also
    # when the loop is unstable
    rows = []
    for pt in points:
        g, z = pt.equivalent_gains, pt.s_zero
        gains = [g.kp, g.ki, g.kd] if g is not None else [None] * 3
        zero = [z.real, z.imag] if z is not None else [None] * 2
        dominant = [pt.dominant_zeta, pt.dominant_omega_n]
        rows.append((pt.q, *gains, *zero, *dominant, pt.wedge.value, pt.stable))
    return _csv(MCURVE_HEADER, rows)


def _cmd_mcurve(args: argparse.Namespace, out) -> int:
    cfg = resolve_config(args)
    plant = _require_plant(cfg)
    stage1 = cfg.gains if cfg.gains is not None else place_gains(plant, _require_target(cfg))
    points = mcurve(plant, stage1, cfg.q_from, cfg.q_to, cfg.q_step)
    _write_text(cfg.out, _mcurve_csv(points), out)
    return EXIT_OK


def _trace_csv(trace: Trace) -> str:
    import numpy as np

    # r and d change only where an input switches. Cut the rows there, by bits so
    # 0.0/-0.0 and NaN payloads keep their own cells, and every _TRACE_BLOCK rows:
    # a piece formats r and d once into its row template (a %.6g cell has no %).
    bits = np.column_stack((trace.r, trace.d)).view(np.int64)
    switches = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
    cuts = sorted({*range(0, len(bits), _TRACE_BLOCK), *switches.tolist(), len(bits)})
    tyu = np.column_stack((trace.t, trace.y, trace.u))
    parts = [TRACE_HEADER + "\n"]
    for lo, hi in zip(cuts, cuts[1:]):
        row = f"{_SIG6},{_SIG6 % trace.r[lo]},{_SIG6},{_SIG6},{_SIG6 % trace.d[lo]}\n"
        parts.append(row * (hi - lo) % tuple(tyu[lo:hi].ravel().tolist()))
    return "".join(parts)


def _out_path_for(base: str | None, label: str) -> str | None:
    if base is None:
        return None
    if base.endswith(".csv"):
        return f"{base[:-4]}-{label}.csv"
    return f"{base}-{label}"


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    cfg = resolve_config(args)
    plant = _require_plant(cfg)

    controllers: list[tuple[str, PidGains]] = []
    if getattr(args, "compare", False):
        target = _require_target(cfg)
        if cfg.desired_zeta is None:
            raise ConfigError("simulate --compare needs a desired zeta")
        report = two_stage_tune(
            plant, target, cfg.desired_zeta, q_step=cfg.tune_q_step, r=cfg.r
        )
        controllers = [
            ("suboptimal", report.suboptimal_gains),
            ("single-stage", report.single_stage_gains),
        ]
        zeta_scale, omega_scale = report.achieved_zeta, report.achieved_omega_n
    elif cfg.gains is not None:
        controllers = [("a", cfg.gains)]
        if cfg.gains2 is not None:
            controllers.append(("b", cfg.gains2))
        rep = closed_loop_poles(plant, cfg.gains)
        zeta_scale, omega_scale = rep.dominant_zeta, rep.dominant_omega_n
    else:
        target = _require_target(cfg)
        controllers = [("placement", place_gains(plant, target))]
        zeta_scale, omega_scale = target.zeta_cl, target.omega_n_cl

    if getattr(args, "disturb", False) and cfg.disturbance_amplitude == 0.0:
        cfg.disturbance_amplitude = DISTURBANCE_FRACTION * cfg.step_amplitude

    # horizon and step are sized from the design unless set
    sized = {k: v for k, v in (("t_end", cfg.t_end), ("dt", cfg.dt)) if v is not None}
    scenario = default_scenario(
        plant,
        zeta_scale,
        omega_scale,
        step_amplitude=cfg.step_amplitude,
        disturbance_amplitude=cfg.disturbance_amplitude,
        disturbance_time=cfg.disturbance_time,
        **sized,
    )
    # every controller is simulated and compared, and may fail, before anything is written
    results = []
    for label, gains in controllers:
        trace = simulate_closed_loop(plant, gains, scenario)
        results.append((label, gains, trace, metrics(trace, gains, scenario)))
    comparison = []
    if len(results) == 2:
        (_, _, trace_a, met_a), (_, _, trace_b, met_b) = results
        for name in ("initial_control", "peak_control"):
            if getattr(met_b, name) == 0.0:
                raise ConfigError(f"{name} ratio is undefined: the second controller's {name} is 0")
            comparison.append((f"{name} ratio", getattr(met_a, name) / getattr(met_b, name)))
        comparison.append(("max_output_difference", float(abs(trace_a.y - trace_b.y).max())))

    disturbance = scenario.disturbance_amplitude
    if disturbance != 0.0:
        disturbance = f"{fmt(disturbance)} at t={fmt(scenario.resolved_disturbance_time())}"
        if scenario.disturbance_time is None:
            # timing is a package default, not part of the tuning method
            disturbance += " (default 0.6*t_end)"
    record = [("scenario", {
        "t_end": scenario.t_end, "dt": scenario.dt,
        "step": scenario.step_amplitude, "disturbance": disturbance,
    })]
    for label, gains, _trace, m in results:
        record += [(f"controller ({label})", gains), (f"metrics ({label})", _fields(m))]
    out.write(_render(record))

    if len(results) == 1:
        _write_text(cfg.out, _trace_csv(results[0][2]), out)
    else:
        for label, _gains, trace, _m in results:
            path = _out_path_for(cfg.out, label)
            if path is None:
                out.write(f"trace ({label}):\n")
                out.write(_trace_csv(trace))
            else:
                _write_text(path, _trace_csv(trace), out)
        out.write(_render([("comparison (first/second)", comparison)]))
    return EXIT_OK


def _cmd_inverse(args: argparse.Namespace, out) -> int:
    cfg = resolve_config(args)
    plant = _require_plant(cfg)
    gains = cfg.gains if cfg.gains is not None else place_gains(plant, _require_target(cfg))
    pkg = riccati_package(plant, gains, cfg.r)
    text = _render([
        ("plant", plant),
        ("gains", gains),
        *_riccati_entries("inverse", pkg),
        ("care residual", pkg.care_residual),
    ])
    out.write(text)
    if cfg.out is not None:
        _write_text(cfg.out, text, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to an INI config file")
    parser.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    parser.add_argument("--out", help="output path for CSV (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpid",
        description="PID tuning by dominant pole placement, inverse-LQR cost "
        "reconstruction, and fractional-order zero mapping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_place = sub.add_parser("place", help="pole-placement gains and pole report")
    _add_common(p_place)

    p_tune = sub.add_parser("tune", help="two-stage suboptimal tuning report")
    _add_common(p_tune)
    p_tune.add_argument("--desired-zeta", dest="desired_zeta", type=float)
    p_tune.add_argument("--q-step", dest="q_step", type=float)
    p_tune.add_argument("--r", type=float)
    p_tune.add_argument("--refine", action="store_true")

    p_mcurve = sub.add_parser("mcurve", help="fractional-order sweep as CSV")
    _add_common(p_mcurve)
    p_mcurve.add_argument("--q-from", dest="q_from", type=float)
    p_mcurve.add_argument("--q-to", dest="q_to", type=float)
    p_mcurve.add_argument("--q-step", dest="q_step", type=float)
    p_mcurve.add_argument("--gains", help="explicit controller gains kp,ki,kd")

    p_sim = sub.add_parser("simulate", help="closed-loop step response as CSV")
    _add_common(p_sim)
    p_sim.add_argument("--gains", help="controller gains kp,ki,kd")
    p_sim.add_argument("--gains2", help="second controller gains kp,ki,kd")
    p_sim.add_argument("--compare", action="store_true",
                       help="simulate both two-stage and single-stage designs")
    p_sim.add_argument("--desired-zeta", dest="desired_zeta", type=float)
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--t-end", dest="t_end", type=float)
    p_sim.add_argument("--disturbance-amplitude", dest="disturbance_amplitude", type=float)
    p_sim.add_argument("--disturbance-time", dest="disturbance_time", type=float)
    p_sim.add_argument("--disturb", action="store_true",
                       help="enable the default load disturbance "
                       "(half the step, at 0.6 of the horizon)")

    p_inv = sub.add_parser("inverse", help="inverse Riccati package for gains")
    _add_common(p_inv)
    p_inv.add_argument("--gains", help="controller gains kp,ki,kd")
    p_inv.add_argument("--r", type=float)

    return parser


_COMMANDS = {
    "place": _cmd_place,
    "tune": _cmd_tune,
    "mcurve": _cmd_mcurve,
    "simulate": _cmd_simulate,
    "inverse": _cmd_inverse,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse would read a negative gain list such as -200,10,-10 as an option
        if argv[i - 1] in ("--gains", "--gains2") and argv[i][:1] == "-" and "," in argv[i]:
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    error = None
    # every warning of the command, each distinct message once, in the order
    # raised, then the error if it failed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            _q_flags_valid(args)
            code = _COMMANDS[args.command](args, out)
        except (UnstableClosedLoop, UnstableGains, NonFiniteState, RealZeros, OutsideWedge) as exc:
            code, error = EXIT_UNSTABLE, exc
        except TargetUnreachable as exc:
            code, error = EXIT_UNREACHABLE, exc
        except (ConfigError, ValueError) as exc:
            code, error = EXIT_CONFIG, exc
        finally:
            for message in dict.fromkeys(str(item.message) for item in caught):
                print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def _q_flags_valid(args: argparse.Namespace) -> None:
    step = getattr(args, "q_step", None)
    if step is not None and step <= 0.0:
        raise ConfigError("q step must be positive")


if __name__ == "__main__":
    sys.exit(main())
