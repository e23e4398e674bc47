"""Command-line interface: subcommands, config handling, CSV formats."""

import contextlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracpid import (
    ClosedLoopTarget,
    DominanceWarning,
    PidGains,
    Plant,
    ResponseMetrics,
    TargetUnreachable,
    Trace,
    closed_loop_poles,
    default_scenario,
    mcurve,
    metrics,
    place_gains,
    riccati_package,
    simulate_closed_loop,
    two_stage_tune,
    w_zeros,
)
from fracpid import cli
from fracpid.cli import MCURVE_HEADER, PRESETS, TRACE_HEADER, TUNE_HEADER, main
from fracpid.simulate import DISTURBANCE_FRACTION, MAX_SAMPLES
from fracpid.tuner import MAX_Q_POINTS


def run_cli(args, warns=()):
    """Exit code and stdout of main. Its stderr passes through to the
    caller's capture; the `warning:` lines in it must be exactly ``warns``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(args, out=out)
    finally:
        sys.stderr.write(err.getvalue())
    lines = [line for line in err.getvalue().splitlines() if line.startswith("warning:")]
    assert lines == [f"warning: {message}" for message in warns]
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# place
# ---------------------------------------------------------------------------

def test_place_preset_reproduces_published_gains():
    code, text = run_cli(["place", "--preset", "p1"])
    assert code == 0
    assert "kp=65.6944" in text
    assert "ki=285.833" in text
    assert "kd=6.86667" in text
    assert "dominant: zeta=0.75 omega_n=7" in text


def test_place_low_dominance_warns(tmp_path):
    config = tmp_path / "low_m.ini"
    config.write_text(
        "[plant]\nk = 1\nzeta_ol = 0.2\nomega_n_ol = 0.1\n"
        "[target]\nzeta_cl = 0.98\nomega_n_cl = 2\nm = 1\n"
    )
    warning = "relative dominance 1 is below 3; second-order behaviour is not guaranteed"
    code, text = run_cli(["place", "--config", str(config)], warns=[warning])
    assert code == 0
    assert "dominance ratio: 1\n" in text and "warning" not in text


def test_place_malformed_config_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.ini"
    config.write_text("[plant]\nk = 9\nthis line has no key separator\n")
    code, _ = run_cli(["place", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line" in captured.err


def test_place_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "unknown.ini"
    config.write_text("[plant]\nk = 9\nzeta_ol = 0.2\nomega_n_ol = 3\nbogus = 1\n")
    code, _ = run_cli(["place", "--config", str(config)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_place_without_plant_exits_2(capsys):
    code, _ = run_cli(["place"])
    assert code == 2


def test_place_non_finite_config_exits_2(tmp_path, capsys):
    config = tmp_path / "nan.ini"
    config.write_text(
        "[plant]\nk = nan\nzeta_ol = 0.2\nomega_n_ol = 3\n"
        "[target]\nzeta_cl = 0.75\nomega_n_cl = 7\n"
    )
    code, text = run_cli(["place", "--config", str(config)])
    assert code == 2
    assert text == ""
    assert "[plant] k: not a finite number: 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "p1", "--dt", "nan"],
        ["simulate", "--preset", "p1", "--t-end", "inf"],
        ["inverse", "--preset", "p1", "--gains", "nan,1,1"],
        ["inverse", "--preset", "p1", "--r", "nan"],
        ["tune", "--preset", "p1", "--r", "inf"],
        ["mcurve", "--preset", "p1", "--q-step", "nan"],
    ],
    ids=lambda argv: " ".join(argv[2:]),
)
def test_non_finite_flag_exits_2_before_output(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def test_tune_preset_report(tmp_path):
    out_csv = tmp_path / "tune.csv"
    code, text = run_cli(["tune", "--preset", "p1", "--out", str(out_csv)])
    assert code == 0
    assert "chosen q: 0.9" in text
    assert "achieved: zeta=0.934001 omega_n=8.87916" in text
    assert "kp=120.485 ki=535.814 kd=8.50585" in text
    assert "kp=160.596" in text
    assert "cost verdict: lqr-higher" in text
    assert "initial control (single-stage): 160.596" in text
    assert "initial control (suboptimal): 120.485" in text
    lines = out_csv.read_text().splitlines()
    assert lines[0] == TUNE_HEADER
    assert lines[1].startswith("single-stage,")
    assert lines[2].startswith("suboptimal,")


def test_tune_desired_zeta_below_stage1_exits_2(capsys):
    code, _ = run_cli(["tune", "--preset", "p1", "--desired-zeta", "0.5"])
    assert code == 2


def test_tune_unreachable_exits_4(capsys):
    code, _ = run_cli(
        ["tune", "--preset", "p1", "--desired-zeta", "0.99", "--q-step", "0.25"]
    )
    assert code == 4


def test_tune_without_desired_zeta_exits_2(tmp_path, capsys):
    config = tmp_path / "no_tune.ini"
    config.write_text(
        "[plant]\nk = 1\nzeta_ol = 0.2\nomega_n_ol = 0.1\n"
        "[target]\nzeta_cl = 0.75\nomega_n_cl = 2\n"
    )
    code, _ = run_cli(["tune", "--config", str(config)])
    assert code == 2


# ---------------------------------------------------------------------------
# mcurve
# ---------------------------------------------------------------------------

def test_mcurve_rows_and_order():
    code, text = run_cli(
        ["mcurve", "--preset", "p1", "--q-from", "1.0", "--q-to", "0.9", "--q-step", "0.1"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == MCURVE_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("0.9,")
    assert "0.75,7" in lines[1]
    assert "0.934001,8.87916" in lines[2]
    assert lines[1].endswith("under-damped,true")


def test_mcurve_empty_grid_header_only():
    code, text = run_cli(
        ["mcurve", "--preset", "p1", "--q-from", "0.9", "--q-to", "1.1", "--q-step", "0.1"]
    )
    assert code == 0
    assert text == MCURVE_HEADER + "\n"


def test_mcurve_stability_column_flips_once():
    code, text = run_cli(
        ["mcurve", "--preset", "p1", "--q-from", "1.0", "--q-to", "0.72",
         "--q-step", "0.01"]
    )
    assert code == 0
    rows = text.splitlines()[1:]
    flags = [row.split(",")[-1] for row in rows]
    flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    assert flips == 1
    assert flags[0] == "true" and flags[-1] == "false"
    # failed points carry the wedge label and empty numeric cells
    first_failed = next(row for row, f in zip(rows, flags) if f == "false")
    cells = first_failed.split(",")
    assert cells[1] == "" and cells[-2] == "hyper-damped"


def test_mcurve_overflowing_equivalent_gains_exit_2(capsys):
    for q in ("0.6", "0.7"):
        argv = ["mcurve", "--preset", "p1", "--gains=1e3,1e200,1e200", "--q-from", q, "--q-to", q]
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"overflow at q={q}\n" in err


def test_mcurve_overflowing_s_plane_zero_exits_2(capsys):
    # the loop is solved once rescaled, but |s_zero| = (ki/kd)**(1/2q) ~ 1e310
    argv = ["mcurve", "--preset", "p1", "--gains=-0.1755,1e61,1e-63", "--q-from", "0.2", "--q-to", "0.2"]
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: s-plane zero of ") and err.endswith(" overflows at q=0.2\n")


def test_mcurve_point_with_a_huge_closed_loop_root_is_printed(capsys):
    # the closed loop at q = 1.3 is s^3 + ... + 5.29e231, roots near 1.7e77
    argv = ["mcurve", "--preset", "p1", "--gains=1,1e300,1e-300", "--q-from", "1.3", "--q-to", "1.3"]
    code, text = run_cli(argv)
    assert (code, capsys.readouterr().err) == (0, "")
    header, row = text.splitlines()
    cells = row.split(",")
    assert cells[0] == "1.3" and cells[-2:] == ["under-damped", "false"]
    assert all(math.isfinite(float(v)) for v in cells[1:6])  # gains and zero; no pole cells


def test_mcurve_point_with_a_huge_derivative_gain_is_stable(capsys):
    # at q = 1 the loop is s^3 + 9e20 s^2 + 18 s + 9: a real pole near -9e20
    # and a stable pair with zeta and omega_n near 1e-10
    argv = ["mcurve", "--preset", "p1", "--gains=1,1,1e20", "--q-from", "1", "--q-to", "1"]
    code, text = run_cli(argv)
    assert (code, capsys.readouterr().err) == (0, "")
    cells = text.splitlines()[1].split(",")
    assert cells[-2:] == ["under-damped", "true"]
    zeta, omega = float(cells[6]), float(cells[7])
    assert zeta == pytest.approx(1e-10, rel=1e-5) and omega == pytest.approx(1e-10, rel=1e-5)


@pytest.mark.parametrize("omega,printed", [("1e-100", "1e-100"), ("1e100", "1e+100")])
def test_place_at_extreme_frequency_scales(tmp_path, omega, printed):
    config = tmp_path / "scale.ini"
    config.write_text(
        f"[plant]\nk = 1\nzeta_ol = 0.5\nomega_n_ol = {omega}\n"
        f"[target]\nzeta_cl = 0.75\nomega_n_cl = {omega}\nm = 10\n"
    )
    code, text = run_cli(["place", "--config", str(config)])
    assert code == 0
    assert f"dominant: zeta=0.75 omega_n={printed}\n" in text
    assert "real pole: -7.5e" in text and "dominance ratio: 10\n" in text


def test_place_with_an_underflowing_integral_gain_exits_3(tmp_path, capsys):
    # m*zeta*omega**3 = 7.5e-330 is below the smallest float, so ki = 0 and
    # the loop has an exact pole at 0: a typed stability error, not a crash
    config = tmp_path / "tiny.ini"
    config.write_text(
        "[plant]\nk = 1\nzeta_ol = 0.5\nomega_n_ol = 1e-110\n"
        "[target]\nzeta_cl = 0.75\nomega_n_cl = 1e-110\nm = 10\n"
    )
    # place_gains warns before the stability check fails; both are reported
    _, warns = _warned(place_gains, Plant(1.0, 0.5, 1e-110), ClosedLoopTarget(0.75, 1e-110, 10.0))
    assert warns[0].startswith("non-positive gain in PidGains(")
    assert run_cli(["place", "--config", str(config)], warns=warns) == (3, "")
    warning, err = capsys.readouterr().err.split("\n", 1)
    assert warning == f"warning: {warns[0]}"
    prefix = "error: closed-loop poles ("
    assert err.startswith(prefix) and "left half plane" in err
    assert complex(err[len(prefix):].split(", ")[0].strip("()")) == 0.0  # of either sign


@pytest.mark.parametrize("command", [["place"], ["tune", "--desired-zeta", "0.9"]])
def test_huge_target_frequency_exits_2(tmp_path, capsys, command):
    # the cube of omega_n_cl = 1e150 overflows while the target polynomial
    # is formed: a typed config error, not a traceback
    config = tmp_path / "huge.ini"
    config.write_text(
        "[plant]\nk = 9\nzeta_ol = 0.2\nomega_n_ol = 3\n"
        "[target]\nzeta_cl = 0.75\nomega_n_cl = 1e150\nm = 10\n"
    )
    assert run_cli([*command, "--config", str(config)]) == (2, "")
    assert capsys.readouterr().err == (
        "error: target frequency omega_n_cl=1e+150 is too large: its cube overflows\n"
    )


@pytest.mark.parametrize("command", ["tune", "inverse"])
def test_huge_effort_weight_exits_2(command, capsys):
    # the Riccati solution grows linearly with r: at r = 1e300 its entries
    # reach ~3e301 and their squares overflow
    assert run_cli([command, "--preset", "p1", "--r=1e300"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: effort weight r=1e+300 is too large: the Riccati solution's squares overflow\n"
    )


def test_mcurve_bad_grid_exits_2(capsys):
    code, _ = run_cli(["mcurve", "--preset", "p1", "--q-step", "-0.1"])
    assert code == 2
    code, _ = run_cli(["mcurve", "--preset", "p1", "--q-from", "2.5"])
    assert code == 2


@pytest.mark.parametrize("q_from, q_to", [("5", "6"), ("3", "1")])
def test_mcurve_grid_outside_the_domain_exits_2_whatever_its_direction(q_from, q_to, capsys):
    argv = ["mcurve", "--preset", "p1", "--q-from", q_from, "--q-to", q_to]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == "error: q grid must lie inside (0, 2]\n"


@pytest.mark.parametrize("command", ["mcurve", "tune"])
def test_q_grid_over_the_cap_exits_2_at_once(command, capsys):
    # 1e-9 asks mcurve for a 6e8-point list and tune for a 2.3e8-probe walk
    q_from, q_to = cli.RunConfig.q_from, cli.RunConfig.q_to
    if command == "tune":
        p1 = PRESETS["p1"]
        stage1 = place_gains(Plant(*p1["plant"]), ClosedLoopTarget(*p1["target"]))
        q_from, q_to = 1.0, w_zeros(stage1).phi / math.pi
    count = int((q_from - q_to) / 1e-9 + 1e-9) + 1
    assert count > 1000 * MAX_Q_POINTS
    start = time.perf_counter()
    code, text = run_cli([command, "--preset", "p1", "--q-step", "1e-9"])
    assert time.perf_counter() - start < 1.0
    assert (code, text) == (2, "")
    assert f"q grid of {count} points exceeds the cap of {MAX_Q_POINTS}" in capsys.readouterr().err


def test_mcurve_deterministic_output(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for path in (out_a, out_b):
        code, _ = run_cli(["mcurve", "--preset", "p1", "--out", str(path)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_two_published_gain_sets(tmp_path):
    out_base = tmp_path / "trace.csv"
    code, text = run_cli(
        [
            "simulate",
            "--preset",
            "p2",
            "--gains",
            "83.166,565.4015,3.6415",
            "--gains2",
            "135.5376,953.4577,5.696",
            "--t-end",
            "1.6",
            "--out",
            str(out_base),
        ]
    )
    assert code == 0
    assert "comparison (first/second):" in text
    ratio_line = next(
        line for line in text.splitlines() if "peak_control ratio" in line
    )
    assert float(ratio_line.split(":")[1]) < 1.0
    trace_a = (tmp_path / "trace-a.csv").read_text().splitlines()
    trace_b = (tmp_path / "trace-b.csv").read_text().splitlines()
    assert trace_a[0] == TRACE_HEADER and trace_b[0] == TRACE_HEADER
    assert len(trace_a) == len(trace_b) == 1602


def test_simulate_config_file_with_two_gain_sections(tmp_path):
    config = tmp_path / "pair.ini"
    out_base = tmp_path / "pair.csv"
    config.write_text(
        "[plant]\nk = 25\nzeta_ol = 1\nomega_n_ol = 5\n"
        "[gains]\nkp = 83.166\nki = 565.4015\nkd = 3.6415\n"
        "[gains2]\nkp = 135.5376\nki = 953.4577\nkd = 5.696\n"
        "[scenario]\nt_end = 1.6\ndt = 0.001\n"
        f"[output]\npath = {out_base}\n"
    )
    code, text = run_cli(["simulate", "--config", str(config)])
    assert code == 0
    assert "comparison (first/second):" in text
    assert (tmp_path / "pair-a.csv").exists()
    assert (tmp_path / "pair-b.csv").exists()


@pytest.mark.parametrize("flag", ["--dt=1e-9", "--gains=1,1e-9,1"])
def test_simulate_over_the_sample_cap_exits_2_at_once(flag, capsys):
    # 1e-9 s steps over the preset horizon ask for 3.8e9 samples; the gains'
    # slow dominant pole stretches the default horizon to 4e13 samples
    start = time.perf_counter()
    assert run_cli(["simulate", "--preset", "p1", flag]) == (2, "")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    prefix, suffix = "error: scenario of ", f" samples exceeds the cap of {MAX_SAMPLES}\n"
    assert err.startswith(prefix) and err.endswith(suffix)
    assert int(err[len(prefix) : -len(suffix)]) > 1000 * MAX_SAMPLES


@pytest.mark.parametrize(
    "amplitude,message",
    [("1e307", "error: non-finite control effort at t="), ("1e300", "error: control effort overflows: ")],
)
def test_simulate_overflowing_control_effort_exits_3(amplitude, message, capsys):
    # warnings are errors in this suite, so no numpy RuntimeWarning was raised
    assert run_cli(["simulate", "--preset", "p1", f"--disturbance-amplitude={amplitude}"]) == (3, "")
    assert capsys.readouterr().err.startswith(message)


def test_simulate_zero_gains_exits_3(capsys):
    code, _ = run_cli(["simulate", "--preset", "p1", "--gains", "0,0,0"])
    assert code == 3


def test_simulate_unstable_second_controller_writes_nothing(tmp_path, capsys):
    base = ["simulate", "--preset", "p1", "--gains", "65.6944,285.833,6.86667", "--gains2=-1,2,3"]
    assert run_cli(base) == (3, "")
    assert "not all in the left half plane" in capsys.readouterr().err
    assert run_cli(base + ["--out", str(tmp_path / "t.csv")]) == (3, "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("first", ["0,1,1", "1,1,1"])
def test_simulate_comparison_with_no_initial_control_in_the_second_exits_2(first, tmp_path, capsys):
    # kp = 0 gives the second controller no initial control effort, so the
    # initial_control ratio is undefined whatever the first one's is
    base = ["simulate", "--preset", "p1", "--gains", first, "--gains2", "0,1,2", "--t-end", "0.01"]
    assert run_cli(base) == (2, "")
    assert capsys.readouterr().err == (
        "error: initial_control ratio is undefined: the second controller's initial_control is 0\n"
    )
    assert run_cli(base + ["--out", str(tmp_path / "t.csv")]) == (2, "")
    assert list(tmp_path.iterdir()) == []


def test_simulate_weak_dominance_warns_once(capsys):
    # the horizon sizing and the simulation both read the weak dominance
    plant = Plant(*PRESETS["p1"]["plant"])
    _, warns = _warned(closed_loop_poles, plant, PidGains(100.0, 10.0, 1.0))
    assert len(warns) == 1 and warns[0].startswith("relative dominance")
    code, _ = run_cli(["simulate", "--preset", "p1", "--gains", "100,10,1"], warns=warns)
    assert code == 0
    assert capsys.readouterr().err == f"warning: {warns[0]}\n"


def test_simulate_metrics_stable_under_step_halving():
    def overshoot(dt):
        code, text = run_cli(
            ["simulate", "--preset", "p1", "--dt", dt, "--t-end", "3.0"]
        )
        assert code == 0
        line = next(l for l in text.splitlines() if "percent_overshoot" in l)
        return float(line.split(":")[1])

    coarse, fine = overshoot("0.002"), overshoot("0.001")
    assert abs(coarse - fine) <= 1e-4 * max(1.0, abs(fine))


def test_simulate_compare_runs_tuner(tmp_path):
    code, text = run_cli(
        ["simulate", "--preset", "p1", "--compare", "--out", str(tmp_path / "c.csv")]
    )
    assert code == 0
    assert "controller (suboptimal):" in text
    assert "controller (single-stage):" in text
    assert "max_output_difference" in text
    assert (tmp_path / "c-suboptimal.csv").exists()
    assert (tmp_path / "c-single-stage.csv").exists()


def test_simulate_default_disturbance_flag():
    code, text = run_cli(
        ["simulate", "--preset", "p1", "--t-end", "4.0", "--disturb"]
    )
    assert code == 0
    assert "disturbance=0.5 at t=2.4 (default 0.6*t_end)" in text


def test_simulate_disturbance_column(tmp_path):
    out_csv = tmp_path / "d.csv"
    code, text = run_cli(
        [
            "simulate",
            "--preset",
            "p1",
            "--t-end",
            "4.0",
            "--disturbance-amplitude",
            "0.5",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    assert "disturbance=0.5 at t=2.4" in text
    rows = out_csv.read_text().splitlines()
    assert rows[1].endswith(",0")
    assert rows[-1].endswith(",0.5")


def test_simulate_negative_zero_disturbance_is_no_disturbance():
    # -0.0 is no load: every d cell prints 0, the last one as well
    base = ["simulate", "--preset", "p1", "--t-end", "0.005"]
    code, text = run_cli(base + ["--disturbance-amplitude", "-0.0"])
    assert code == 0
    (trace,) = _printed_traces(text)
    assert [row.rsplit(",", 1)[1] for row in trace.splitlines()[1:]] == ["0"] * 6
    assert _printed_traces(run_cli(base)[1]) == [trace]


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_dumps_riccati_package():
    code, text = run_cli(
        ["inverse", "--preset", "p1", "--gains", "120.4848,535.8142,8.5059"]
    )
    assert code == 0
    assert "p13=59.5349" in text
    assert "p23=13.3872" in text
    assert "q1=287097" in text or "q1=2.87097e+05" in text
    assert "care residual:" in text


def test_inverse_unstable_gains_exit_3(capsys):
    code, _ = run_cli(["inverse", "--preset", "p1", "--gains", "0,0,0"])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "p1", "--gains", "-200,10,-10"],
        ["simulate", "--preset", "p1", "--gains", "65.6944,285.833,6.86667", "--gains2", "-1,2,3"],
        ["inverse", "--preset", "p1", "--gains", "-1,2,3"],
        ["mcurve", "--preset", "p1", "--q-from", "1", "--gains", "-1,2,3"],
    ],
)
def test_negative_gain_list_after_a_space_reads_as_after_equals(argv, capsys):
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    with_equals = run_cli(joined), capsys.readouterr()
    with_space = run_cli(argv), capsys.readouterr()
    assert with_space == with_equals
    assert with_space[0][0] == (0 if argv[0] == "mcurve" else 3)


@pytest.mark.parametrize("flag", ["--gains", "--gains2"])
@pytest.mark.parametrize(
    "raw, message",
    [("1,2", "expects kp,ki,kd; got '1,2'"), ("1,x,2", "values are not numbers: '1,x,2'")],
)
def test_bad_gain_list_is_reported_under_its_own_flag(flag, raw, message, capsys):
    argv = ["simulate", "--preset", "p1", "--gains", "65,285,6", flag, raw]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {flag} {message}\n"


def test_unknown_preset_exits_2(capsys):
    code, _ = run_cli(["place", "--preset", "nope"])
    assert code == 2


def test_oscillatory_preset_place():
    code, text = run_cli(["place", "--preset", "wang-oscillatory"])
    assert code == 0
    assert "kp=80.822" in text
    assert "ki=78.4" in text
    assert "kd=23.48" in text


def test_config_overrides_preset(tmp_path):
    config = tmp_path / "override.ini"
    config.write_text("[target]\nzeta_cl = 0.8\nomega_n_cl = 7\nm = 10\n")
    code, text = run_cli(["place", "--preset", "p1", "--config", str(config)])
    assert code == 0
    # plant comes from the preset, target from the file
    assert "plant: k=9" in text
    assert "target: zeta_cl=0.8" in text


def test_tune_refine_flag_moves_chosen_order():
    _, coarse = run_cli(["tune", "--preset", "p1"])
    code, refined = run_cli(["tune", "--preset", "p1", "--refine"])
    assert code == 0
    coarse_q = float(next(l for l in coarse.splitlines() if l.startswith("chosen q:")).split(":")[1])
    refined_q = float(next(l for l in refined.splitlines() if l.startswith("chosen q:")).split(":")[1])
    assert coarse_q < refined_q < coarse_q + 0.005


def test_tune_csv_matches_published_rows(tmp_path):
    out_csv = tmp_path / "rows.csv"
    code, _ = run_cli(["tune", "--preset", "p1", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    header = lines[0].split(",")
    rows = {cells[0]: dict(zip(header[1:], map(float, cells[1:])))
            for cells in (line.split(",") for line in lines[1:])}
    published = {
        "single-stage": {"kp": 160.6263, "ki": 726.6801, "kd": 10.9252,
                         "p11": 117450.0, "p23": 17.8474},
        "suboptimal": {"kp": 120.4848, "ki": 535.8142, "kd": 8.5059,
                       "p11": 65093.0, "p23": 13.3872},
    }
    for controller, expected in published.items():
        for key, value in expected.items():
            assert abs(rows[controller][key] - value) <= 1e-2 * abs(value)


# ---------------------------------------------------------------------------
# output formatting against per-cell reference writers
# ---------------------------------------------------------------------------

def ref_fmt(x):
    return format(float(x), ".6g")


def ref_trace_csv(trace):
    rows = [TRACE_HEADER]
    for k in range(trace.t.size):
        rows.append(
            ",".join(
                ref_fmt(v)
                for v in (trace.t[k], trace.r[k], trace.y[k], trace.u[k], trace.d[k])
            )
        )
    return "\n".join(rows) + "\n"


def ref_mcurve_csv(points):
    rows = [MCURVE_HEADER]
    for pt in points:
        if pt.equivalent_gains is not None:
            g = pt.equivalent_gains
            gain_cells = [ref_fmt(g.kp), ref_fmt(g.ki), ref_fmt(g.kd)]
        else:
            gain_cells = ["", "", ""]
        zero_cells = (
            [ref_fmt(pt.s_zero.real), ref_fmt(pt.s_zero.imag)]
            if pt.s_zero is not None
            else ["", ""]
        )
        dom_cells = (
            [ref_fmt(pt.dominant_zeta), ref_fmt(pt.dominant_omega_n)]
            if pt.dominant_zeta is not None
            else ["", ""]
        )
        rows.append(
            ",".join(
                [ref_fmt(pt.q)]
                + gain_cells
                + zero_cells
                + dom_cells
                + [pt.wedge.value, "true" if pt.stable else "false"]
            )
        )
    return "\n".join(rows) + "\n"


def ref_tune_csv(report):
    rows = [TUNE_HEADER]
    for label, gains, pkg in (
        ("single-stage", report.single_stage_gains, report.riccati_lqr),
        ("suboptimal", report.suboptimal_gains, report.riccati_subopt),
    ):
        p = pkg.p
        values = (
            gains.kp, gains.ki, gains.kd,
            pkg.q_diag[0], pkg.q_diag[1], pkg.q_diag[2], pkg.r,
            p.a11, p.a12, p.a13, p.a22, p.a23, p.a33,
            pkg.care_residual,
        )
        rows.append(",".join([label] + [ref_fmt(v) for v in values]))
    return "\n".join(rows) + "\n"


def ref_metrics_lines(label, m):
    return [
        f"metrics ({label}):",
        f"  percent_overshoot: {ref_fmt(m.percent_overshoot)}",
        f"  rise_time_10_90: {ref_fmt(m.rise_time_10_90)}",
        f"  settling_time_2pct: {ref_fmt(m.settling_time_2pct)}",
        f"  peak_control: {ref_fmt(m.peak_control)}",
        f"  initial_control: {ref_fmt(m.initial_control)}",
        f"  iae: {ref_fmt(m.iae)}",
        f"  control_ise: {ref_fmt(m.control_ise)}",
        f"  settled: {'true' if m.settled else 'false'}",
    ]


def ref_plant(plant):
    return f"k={ref_fmt(plant.k)} zeta_ol={ref_fmt(plant.zeta_ol)} omega_n_ol={ref_fmt(plant.omega_n_ol)}"


def ref_target(target):
    return (
        f"zeta_cl={ref_fmt(target.zeta_cl)} omega_n_cl={ref_fmt(target.omega_n_cl)} "
        f"m={ref_fmt(target.m)}"
    )


def ref_gains(g):
    return f"kp={ref_fmt(g.kp)} ki={ref_fmt(g.ki)} kd={ref_fmt(g.kd)}"


def ref_riccati_lines(label, pkg):
    q, p = pkg.q_diag, pkg.p
    return [
        f"weights ({label}): q1={ref_fmt(q[0])} q2={ref_fmt(q[1])} q3={ref_fmt(q[2])} "
        f"r={ref_fmt(pkg.r)}",
        f"riccati p ({label}): p11={ref_fmt(p.a11)} p12={ref_fmt(p.a12)} p13={ref_fmt(p.a13)} "
        f"p22={ref_fmt(p.a22)} p23={ref_fmt(p.a23)} p33={ref_fmt(p.a33)}",
    ]


def ref_place(plant, target):
    gains = place_gains(plant, target)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DominanceWarning)
        report = closed_loop_poles(plant, gains)
    poles = ", ".join(
        f"{ref_fmt(s.real)}{'-' if s.imag < 0 else '+'}{ref_fmt(abs(s.imag))}j"
        for s in report.roots.roots
    )
    lines = [
        f"plant: {ref_plant(plant)}",
        f"target: {ref_target(target)}",
        f"gains: {ref_gains(gains)}",
        f"poles: {poles}",
        f"dominant: zeta={ref_fmt(report.dominant_zeta)} omega_n={ref_fmt(report.dominant_omega_n)}",
        f"real pole: {ref_fmt(report.real_pole)}",
        f"dominance ratio: {ref_fmt(report.dominance_ratio)}",
    ]
    return 0, "\n".join(lines) + "\n"


def ref_inverse(plant, target, r):
    gains = place_gains(plant, target)
    pkg = riccati_package(plant, gains, r)
    lines = [
        f"plant: {ref_plant(plant)}",
        f"gains: {ref_gains(gains)}",
        *ref_riccati_lines("inverse", pkg),
        f"care residual: {ref_fmt(pkg.care_residual)}",
    ]
    return 0, "\n".join(lines) + "\n"


def ref_tune(plant, target, desired, r):
    try:
        rep = two_stage_tune(plant, target, desired, r=r)
    except TargetUnreachable:
        return 4, ""
    lines = [
        f"plant: {ref_plant(plant)}",
        f"stage 1 target: {ref_target(target)}",
        f"stage-1 gains: {ref_gains(rep.stage1_gains)}",
        f"desired zeta: {ref_fmt(desired)}",
        f"chosen q: {ref_fmt(rep.chosen_q)}",
        f"achieved: zeta={ref_fmt(rep.achieved_zeta)} omega_n={ref_fmt(rep.achieved_omega_n)}",
        f"suboptimal gains: {ref_gains(rep.suboptimal_gains)}",
        f"single-stage gains: {ref_gains(rep.single_stage_gains)}",
        *ref_riccati_lines("single-stage", rep.riccati_lqr),
        *ref_riccati_lines("suboptimal", rep.riccati_subopt),
        "delta-p eigenvalues: " + " ".join(ref_fmt(e) for e in rep.delta_p_eigs),
        f"cost verdict: {rep.cost_verdict}",
        f"initial control (single-stage): {ref_fmt(rep.initial_control_lqr)}",
        f"initial control (suboptimal): {ref_fmt(rep.initial_control_subopt)}",
    ]
    return 0, "\n".join(lines) + "\n"


def _warned(fn, *args):
    # what fn returns, and the messages of the warnings it gave
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def _write_design(path, plant, target, desired, r):
    path.write_text(
        f"[plant]\nk = {plant.k!r}\nzeta_ol = {plant.zeta_ol!r}\nomega_n_ol = {plant.omega_n_ol!r}\n"
        f"[target]\nzeta_cl = {target.zeta_cl!r}\nomega_n_cl = {target.omega_n_cl!r}\n"
        f"m = {target.m!r}\n[tune]\ndesired_zeta = {desired!r}\nr = {r!r}\n"
    )
    return str(path)


def _random_design(rng):
    # the ranges of the benchmark's design sweep: every gain positive and the
    # dominance ratio near m, so place never warns
    loguniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))  # noqa: E731
    plant = Plant(loguniform(0.5, 50.0), loguniform(0.05, 5.0), loguniform(0.1, 20.0))
    zc = rng.uniform(0.5, 0.8)
    wc = plant.omega_n_ol * max(1.0, plant.zeta_ol) * rng.uniform(2.5, 5.0)
    target = ClosedLoopTarget(zc, wc, rng.uniform(6.0, 12.0))
    return plant, target, zc + (1.0 - zc) * rng.uniform(0.3, 0.75), loguniform(0.5, 2.0)


def test_reports_of_random_designs_match_reference(tmp_path):
    # stdout, and a stderr warning line for each distinct library warning
    rng = random.Random(16)
    tune_codes, warned = [], 0
    for i in range(40):
        plant, target, desired, r = _random_design(rng)
        path = _write_design(tmp_path / f"d{i}.ini", plant, target, desired, r)
        assert run_cli(["place", "--config", path]) == ref_place(plant, target)
        expected, warns = _warned(ref_inverse, plant, target, r)
        assert run_cli(["inverse", "--config", path], warns=dict.fromkeys(warns)) == expected
        warned += bool(warns)
        expected, warns = _warned(ref_tune, plant, target, desired, r)
        assert run_cli(["tune", "--config", path], warns=dict.fromkeys(warns)) == expected
        warned += bool(warns)
        tune_codes.append(expected[0])
    assert tune_codes.count(0) >= 30
    assert warned > 0, warned


def test_place_weak_dominance_warning_line(tmp_path):
    plant, target = Plant(9.0, 0.2, 3.0), ClosedLoopTarget(0.75, 7.0, 2.5)
    path = _write_design(tmp_path / "weak.ini", plant, target, 0.93, 1.0)
    warning = "relative dominance 2.5 is below 3; second-order behaviour is not guaranteed"
    assert run_cli(["place", "--config", path], warns=[warning]) == ref_place(plant, target)


def _preset(name):
    return Plant(*PRESETS[name]["plant"]), ClosedLoopTarget(*PRESETS[name]["target"])


@pytest.mark.parametrize("disturb", [False, True], ids=["plain", "disturb"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_trace_csv_and_metrics_match_reference(name, disturb):
    plant, target = _preset(name)
    gains = place_gains(plant, target)
    scenario = default_scenario(
        plant,
        target.zeta_cl,
        target.omega_n_cl,
        disturbance_amplitude=DISTURBANCE_FRACTION if disturb else 0.0,
    )
    trace = simulate_closed_loop(plant, gains, scenario)
    assert cli._trace_csv(trace) == ref_trace_csv(trace)
    m = metrics(trace, gains, scenario)
    block = cli._render([(f"metrics ({name})", cli._fields(m))])
    assert block == "\n".join(ref_metrics_lines(name, m)) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308,
                  9.999995, 123456.5, 1e16, -1e-5]


@pytest.mark.parametrize("rows", [1, 511, 512, 513, 1300])
def test_trace_csv_matches_reference_on_any_float(rows):
    # random bit patterns (NaN payloads, subnormals, infinities) and special
    # values, across the block boundaries of the writer
    bits = np.random.default_rng(rows).integers(0, 2**64, size=(5, rows), dtype=np.uint64)
    cols = bits.view(np.float64)
    n = min(len(SPECIAL_FLOATS), cols.size)
    cols.flat[:n] = SPECIAL_FLOATS[:n]
    trace = Trace(*cols)
    assert cli._trace_csv(trace) == ref_trace_csv(trace)


def _piecewise_trace(n, r_runs, d_runs, seed=0):
    """n rows of random bits whose r and d columns hold each ``(start, value)``
    of their runs, in order of start, until the next start."""
    cols = np.random.default_rng(seed).integers(0, 2**64, size=(5, n), dtype=np.uint64)
    cols = cols.view(np.float64)
    for c, runs in ((1, r_runs), (4, d_runs)):
        for start, value in runs:
            cols[c, start:] = value
    return Trace(*cols)


NAN_PAYLOAD = float(np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0])
RUN_VALUES = st.sampled_from(SPECIAL_FLOATS + [-math.nan, NAN_PAYLOAD]) | st.floats()


@st.composite
def piecewise_traces(draw):
    n = draw(st.integers(1, 1300))
    runs = []
    for _ in range(2):
        starts = sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=6))) | {0})
        runs.append([(start, draw(RUN_VALUES)) for start in starts])
    return _piecewise_trace(n, *runs, seed=draw(st.integers(0, 2**32 - 1)))


@given(piecewise_traces())
@example(_piecewise_trace(1300, [(0, 1.0), (1, 2.0), (1299, -1.0)],
                          [(0, 0.0), (511, 0.5), (512, -0.5), (513, 0.5), (1299, 0.0)]))
@example(_piecewise_trace(1300, [(0, 1.0), (511, 1.0), (512, 9.999995), (513, 1e16)],
                          [(0, 0.5), (1299, 0.5)]))
@example(_piecewise_trace(600, [(0, 0.0), (5, -0.0), (6, 0.0), (512, -0.0)],
                          [(0, -0.0), (1, 0.0), (599, -0.0)]))
@example(_piecewise_trace(600, [(0, math.nan), (3, NAN_PAYLOAD), (4, -math.nan), (513, math.nan)],
                          [(0, math.nan), (1, 1.0), (2, NAN_PAYLOAD), (599, math.nan)]))
@example(_piecewise_trace(1, [(0, -0.0)], [(0, math.nan)]))
@example(_piecewise_trace(2, [(0, 1.0)], [(0, 0.0), (1, 0.5)]))
def test_trace_csv_matches_reference_on_piecewise_inputs(trace):
    # r and d hold still between switches at random rows, the cases the writer
    # formats once per run: block edges, 0.0 next to -0.0, NaN next to NaN
    assert cli._trace_csv(trace) == ref_trace_csv(trace)


def _printed_traces(text):
    """Each trace CSV block a simulate command printed, in order."""
    blocks = []
    for chunk in text.split(TRACE_HEADER + "\n")[1:]:
        rows = itertools.takewhile(lambda row: ":" not in row, chunk.splitlines(keepends=True))
        blocks.append(TRACE_HEADER + "\n" + "".join(rows))
    return blocks


@pytest.mark.parametrize("end", ["first", "last"])
def test_simulate_prints_the_library_trace_when_the_load_switches_at_an_end(end):
    plant, target = _preset("p1")
    switch = 0.0 if end == "first" else default_scenario(plant, target.zeta_cl, target.omega_n_cl).t_end
    code, text = run_cli(
        ["simulate", "--preset", "p1", "--disturb", "--disturbance-time", repr(switch)]
    )
    assert code == 0
    scenario = default_scenario(
        plant, target.zeta_cl, target.omega_n_cl,
        disturbance_amplitude=DISTURBANCE_FRACTION, disturbance_time=switch,
    )
    trace = simulate_closed_loop(plant, place_gains(plant, target), scenario)
    # the load is on from the first sample, or on the last sample only
    n = trace.d.size
    assert np.flatnonzero(trace.d).tolist() == (list(range(n)) if end == "first" else [n - 1])
    assert _printed_traces(text) == [ref_trace_csv(trace)]


def test_simulate_compare_disturbed_prints_the_library_traces():
    code, text = run_cli(["simulate", "--preset", "p2", "--compare", "--disturb"])
    assert code == 0
    plant, target = _preset("p2")
    report = two_stage_tune(plant, target, PRESETS["p2"]["desired_zeta"])
    scenario = default_scenario(
        plant, report.achieved_zeta, report.achieved_omega_n,
        disturbance_amplitude=DISTURBANCE_FRACTION,
    )
    traces = [
        simulate_closed_loop(plant, gains, scenario)
        for gains in (report.suboptimal_gains, report.single_stage_gains)
    ]
    assert _printed_traces(text) == [ref_trace_csv(trace) for trace in traces]


def test_metrics_lines_unsettled_match_reference():
    m = ResponseMetrics(12.5, 0.25, math.nan, -3.0, -0.0, 1e-300, math.inf, False)
    block = cli._render([("metrics (x)", cli._fields(m))])
    assert block == "\n".join(ref_metrics_lines("x", m)) + "\n"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_mcurve_csv_matches_reference(name):
    plant, target = _preset(name)
    points = mcurve(plant, place_gains(plant, target), cli.Q_SWEEP_HIGH, cli.Q_SWEEP_LOW, 0.01)
    assert cli._mcurve_csv(points) == ref_mcurve_csv(points)


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_tune_csv_matches_reference(name):
    plant, target = _preset(name)
    report = two_stage_tune(plant, target, PRESETS[name]["desired_zeta"])
    assert cli._tune_csv(report) == ref_tune_csv(report)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(-0.0)
@example(math.nan)
@example(-math.inf)
@example(5e-324)
@example(9.999995)
def test_fmt_is_the_percent_rule(x):
    assert cli.fmt(x) == cli._cell(x) == "%.6g" % x == ref_fmt(x)


# ---------------------------------------------------------------------------
# import cost: numpy is loaded by the first array, not by the import
# ---------------------------------------------------------------------------

NUMPY_PROBE = """
import io, sys
import fracpid, fracpid.cli
print("import", "numpy" in sys.modules)
names = {}
exec("from fracpid import *", names)
print("unbound", sorted(set(fracpid.__all__) - set(names)))
for label, argv in (
    ("place", ["place", "--preset", "p1"]),
    ("mcurve", ["mcurve", "--preset", "p1"]),
    ("config", ["place", "--config", sys.argv[1]]),
    ("tune", ["tune", "--preset", "p1"]),
):
    code = fracpid.cli.main(argv, out=io.StringIO())
    print(label, code, "numpy" in sys.modules)
"""


def test_numpy_stays_off_the_import_path(tmp_path):
    config = tmp_path / "unknown.ini"
    config.write_text("[plant]\nk = 9\nzeta_ol = 0.2\nomega_n_ol = 3\nbogus = 1\n")
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(config)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines() == [
        "import False",
        "unbound []",
        "place 0 False",
        "mcurve 0 False",
        "config 2 False",
        "tune 0 True",
    ]
    assert done.stderr == "error: unknown key 'bogus' in section [plant]\n"


# ---------------------------------------------------------------------------
# warnings: one stderr line each, on every call of main
# ---------------------------------------------------------------------------

TWICE_PROBE = """
import io, sys
from fracpid.cli import main
for argv in (["simulate", "--config", sys.argv[1]], ["mcurve", "--config", sys.argv[2]]):
    for _ in range(2):
        print(main(argv, out=io.StringIO()))
        print("--", file=sys.stderr)
"""


def test_warnings_repeat_on_every_call_in_one_process(tmp_path):
    # a weak dominance for simulate; a target so close to the open loop that
    # kp < 0 for mcurve
    weak = _write_design(
        tmp_path / "weak.ini", Plant(9.0, 0.2, 3.0), ClosedLoopTarget(0.75, 7.0, 2.5), 0.93, 1.0
    )
    close = _write_design(
        tmp_path / "close.ini", Plant(1.0, 0.2, 10.0), ClosedLoopTarget(0.75, 2.0, 10.0), 0.93, 1.0
    )
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", TWICE_PROBE, weak, close],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines() == ["0"] * 4
    simulate_1, simulate_2, mcurve_1, mcurve_2, rest = done.stderr.split("--\n")
    assert simulate_1 == simulate_2 == (
        "warning: relative dominance 2.5 is below 3; second-order behaviour is not guaranteed\n"
    )
    assert mcurve_1 == mcurve_2 == (
        "warning: non-positive gain in PidGains(kp=-51.0, ki=60.0, kd=14.0); "
        "target too close to the open loop\n"
    )
    assert rest == ""
