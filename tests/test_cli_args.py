"""Command-line arguments: each parser's options, and errors that end a
command with exit code 2 and no traceback."""

import argparse
import contextlib
import io

import pytest

from fracpid import cli
from fracpid.cli import build_parser, main

HELP = ("-h", "--help"), "help", "help", None, "show this help message and exit"
CONFIG = ("--config",), "config", "store", None, "path to an INI config file"
PRESET = ("--preset",), "preset", "store", None, "named preset (p1, p2, p3, wang-oscillatory)"
OUT = ("--out",), "out", "store", None, "output path for CSV (default: stdout)"
GAINS = ("--gains",), "gains", "store", None, "controller gains kp,ki,kd"
DESIRED_ZETA = ("--desired-zeta",), "desired_zeta", "store", float, None
Q_STEP = ("--q-step",), "q_step", "store", float, None
R = ("--r",), "r", "store", float, None

# every option of each command: option strings, dest, action kind, type and
# help text, in the order the parser holds them
COMMAND_OPTIONS = {
    "place": [HELP, CONFIG, PRESET, OUT],
    "tune": [
        HELP, CONFIG, PRESET, OUT, DESIRED_ZETA, Q_STEP, R,
        (("--refine",), "refine", "store_true", None, None),
    ],
    "mcurve": [
        HELP, CONFIG, PRESET, OUT,
        (("--q-from",), "q_from", "store", float, None),
        (("--q-to",), "q_to", "store", float, None),
        Q_STEP,
        (("--gains",), "gains", "store", None, "explicit controller gains kp,ki,kd"),
    ],
    "simulate": [
        HELP, CONFIG, PRESET, OUT, GAINS,
        (("--gains2",), "gains2", "store", None, "second controller gains kp,ki,kd"),
        (("--compare",), "compare", "store_true", None,
         "simulate both two-stage and single-stage designs"),
        DESIRED_ZETA,
        (("--dt",), "dt", "store", float, None),
        (("--t-end",), "t_end", "store", float, None),
        (("--disturbance-amplitude",), "disturbance_amplitude", "store", float, None),
        (("--disturbance-time",), "disturbance_time", "store", float, None),
        (("--disturb",), "disturb", "store_true", None,
         "enable the default load disturbance (half the step, at 0.6 of the horizon)"),
    ],
    "inverse": [HELP, CONFIG, PRESET, OUT, GAINS, R],
}

COMMAND_HELP = [
    ("place", "pole-placement gains and pole report"),
    ("tune", "two-stage suboptimal tuning report"),
    ("mcurve", "fractional-order sweep as CSV"),
    ("simulate", "closed-loop step response as CSV"),
    ("inverse", "inverse Riccati package for gains"),
]

KINDS = {
    argparse._HelpAction: "help",
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
    argparse._SubParsersAction: "command",
}


def _rows(parser):
    return [
        (tuple(a.option_strings), a.dest, KINDS[type(a)], a.type, a.help)
        for a in parser._actions
    ]


def _commands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def test_top_level_parser_takes_help_and_one_command():
    parser = build_parser()
    assert parser.prog == "fracpid"
    assert _rows(parser) == [HELP, ((), "command", "command", None, None)]
    sub = _commands(parser)
    assert sub.required
    assert list(sub.choices) == [name for name, _ in COMMAND_HELP]
    assert [(a.dest, a.help) for a in sub._get_subactions()] == COMMAND_HELP


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_each_command_takes_its_options_in_order(command):
    assert _rows(_commands(build_parser()).choices[command]) == COMMAND_OPTIONS[command]


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_main_resolves_the_config_once_through_the_module(command, monkeypatch):
    calls, original = [], cli.resolve_config

    def resolve(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "resolve_config", resolve)
    run_cli([command, "--preset", "p1"])
    assert calls == [command]


def run_cli(argv):
    """Exit code, stdout and stderr of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["place", "--preset", "p1"],
        ["tune", "--preset", "p1"],
        ["mcurve", "--preset", "p1"],
        ["simulate", "--preset", "p1"],
        ["simulate", "--preset", "p1", "--compare"],
        ["inverse", "--preset", "p1"],
    ],
    ids=" ".join,
)
def test_unwritable_out_exits_2_without_a_traceback(argv, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, text, err = run_cli([*argv, "--out", str(path)])
    assert code == 2
    assert text == ""  # every output file is written before the report
    assert err.startswith("error: cannot write output file: ")
    assert str(tmp_path / "missing") in err
    assert "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tune", "--preset", "p1", "--q-step", "0"],
        ["mcurve", "--preset", "p1", "--q-step", "-0.01"],
    ],
    ids=" ".join,
)
def test_q_step_that_is_not_positive_exits_2(argv):
    assert run_cli(argv) == (2, "", "error: q_step must be positive\n")


@pytest.mark.parametrize("command", ["mcurve", "simulate", "inverse"])
def test_empty_gain_list_exits_2(command):
    code, text, err = run_cli([command, "--preset", "p1", "--gains="])
    assert (code, text, err) == (2, "", "error: --gains expects kp,ki,kd; got ''\n")
