"""The three benchmark workloads: seeded inputs, the op, and its oracle.

Every workload is closed-loop with one caller: the next op is issued only
after the previous one returned, as in a design study or a CLI user waiting
for each result. Inputs come from ``random.Random`` seeded with the workload
name, the seed and a stream label, so one seed always gives the same op
sequence however many ops a run completes. Op kinds are dealt from shuffled
decks, so every prefix of the sequence has nearly the same mix. Generated
values are drawn fresh for every op; only preset-based CLI calls repeat, as
a CLI user's would.

The generators draw only inside each function's documented domain and never
run the program to choose inputs. Oracles run outside the timed window and
call the library with tracing switched off.
"""

from __future__ import annotations

import io
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

# Published preset plants, stage-1 targets and desired damping, written out
# here so the oracles do not depend on the program's own preset table.
PRESETS = {
    "p1": ((9.0, 0.2, 3.0), (0.75, 7.0, 10.0), 0.93),
    "p2": ((25.0, 1.0, 5.0), (0.75, 10.0, 10.0), 0.92),
    "p3": ((1.0, 5.0, 1.0), (0.75, 5.0, 10.0), 0.91),
    "wang-oscillatory": ((1.0, 0.2, 0.1), (0.98, 2.0, 10.0), None),
}
# published stage-1 gains of each preset, the base for explicit --gains
PRESET_GAINS = {
    "p1": (65.6944, 285.8333, 6.8667),
    "p2": (48.0, 300.0, 3.2),
    "p3": (305.25, 937.5, 35.0),
    "wang-oscillatory": (80.822, 78.4, 23.48),
}
TUNABLE = ("p1", "p2", "p3")
ZETA_SLACK = 1e-8  # the stage-2 stop slack documented in fracpid.tuner
MCURVE_GRID = (1.3, 0.7, 0.01)  # the CLI's default sweep
TRACE_HEADER = "t,r,y,u,d"
CONFIG_POOL = 96  # generated config files per preset base
DISTURBANCE_FRACTION = 0.5  # documented --disturb amplitude, share of the step
DISTURBANCE_TIME_FRACTION = 0.6  # documented --disturb timing, share of t_end


def fmt(x: float) -> str:
    """The CLI's documented number format: 6 significant digits."""
    return format(float(x), ".6g")


def fmt_gains(g) -> str:
    return f"kp={fmt(g[0])} ki={fmt(g[1])} kd={fmt(g[2])}"


class Deck:
    """Deals op kinds in shuffled rounds that each hold the full mix."""

    def __init__(self, rng: random.Random, kinds: list) -> None:
        self.rng, self.kinds, self.hand = rng, kinds, []

    def draw(self):
        if not self.hand:
            self.hand = list(self.kinds)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _jitter_preset(rng: random.Random, base: str) -> dict:
    """A plant and stage-1 target within 10 % of a preset's.

    Inside this box every stage-1 gain stays positive and the w-plane zeros
    stay complex (4*ki*kd > kp^2 by a margin of at least 1.09).
    """
    (k, zo, wo), (zc, wc, m), desired = PRESETS[base]
    j = lambda: rng.uniform(0.9, 1.1)  # noqa: E731
    spec = {
        "base": base,
        "plant": (k * j(), zo * j(), wo * j()),
        "target": (min(0.99, zc + rng.uniform(-0.03, 0.02)), wc * j(), m * j()),
        "desired": None,
        "q_step": 0.005,
        "r": 1.0,
        "refine": False,
    }
    if desired is not None:
        # the presets reach their desired damping well inside the wedge
        spec["desired"] = desired + rng.uniform(-0.01, 0.02)
        spec["q_step"] = rng.choice((0.005, 0.005, 0.01))
        spec["refine"] = rng.random() < 0.25
    return spec


def _config_text(spec: dict, qgrid=None, bogus: bool = False) -> str:
    k, zo, wo = spec["plant"]
    zc, wc, m = spec["target"]
    lines = ["[plant]", f"k = {k!r}", f"zeta_ol = {zo!r}", f"omega_n_ol = {wo!r}"]
    if bogus:
        lines.append("gain_margin = 6")
    lines += ["[target]", f"zeta_cl = {zc!r}", f"omega_n_cl = {wc!r}", f"m = {m!r}"]
    if spec["desired"] is not None:
        lines += ["[tune]", f"desired_zeta = {spec['desired']!r}",
                  f"q_step = {spec['q_step']!r}",
                  f"refine = {'true' if spec['refine'] else 'false'}"]
    if qgrid is not None:
        lines += ["[qgrid]", f"q_from = {qgrid[0]!r}", f"q_to = {qgrid[1]!r}",
                  f"q_step = {qgrid[2]!r}"]
    return "\n".join(lines) + "\n"


def dominant_pairs(polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(zeta, omega_n) for each row of monic cubic coefficients, by the
    documented reading: the upper complex root if there is one, else the
    slowest real root with zeta 1. Roots are the eigenvalues of the
    companion matrices, as numpy.roots computes them, in one batched call."""
    n = polys.shape[0]
    companion = np.zeros((n, 3, 3))
    companion[:, 0, :] = -polys[:, 1:]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    upper = roots.imag > 1e-7 * np.abs(roots)
    dom = roots[np.arange(n), upper.argmax(axis=1)]
    has_pair = upper.any(axis=1)
    zeta = np.where(has_pair, -dom.real / np.abs(dom), 1.0)
    omega = np.where(has_pair, np.abs(dom), np.abs(roots.real).min(axis=1))
    return zeta, omega


def _roots_match(got: np.ndarray, want: list[complex], rel: float) -> bool:
    scale = max(abs(w) for w in want)
    return all(np.abs(got - w).min() <= rel * scale for w in want)


def _char_poly(plant, gains) -> list[float]:
    k, zo, wo = plant
    kp, ki, kd = gains
    return [1.0, 2.0 * zo * wo + k * kd, wo * wo + k * kp, k * ki]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _care_residual(plant, p: np.ndarray, q_diag, r: float) -> float:
    """Riccati residual of the regulator model, computed independently."""
    k, zo, wo = plant
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -wo * wo, -2.0 * zo * wo]])
    b = np.array([[0.0], [0.0], [-k]])
    q = np.diag(q_diag)
    res = a.T @ p + p @ a - (p @ b) @ (b.T @ p) / r + q
    return float(np.linalg.norm(res) / max(1.0, np.linalg.norm(q)))


def _gains(g) -> tuple[float, float, float]:
    return (g.kp, g.ki, g.kd)


# ---------------------------------------------------------------------------
# design-sweep
# ---------------------------------------------------------------------------

class DesignSweep:
    """One op: ``two_stage_tune`` on a random design, then ``mcurve`` over
    the default grid with its stage-1 gains, both through the library."""

    name = "design-sweep"
    trace_rate = 30.0  # traced-run ops per second of --seconds
    # 20-card deck: q_step tier and refine flag. 13 coarse, 3 medium and 4
    # fine designs put p90 inside the fine tier rather than on a tier edge.
    DECK = ([(0.005, False)] * 10 + [(0.005, True)] * 3
            + [(0.001, False)] * 2 + [(0.001, True)]
            + [(0.0002, False)] * 3 + [(0.0002, True)])

    def __init__(self, fracpid, seed: int, workdir: Path) -> None:
        self.fp, self.seed = fracpid, seed

    def ops(self, stream: str):
        rng = _rng(self.name, self.seed, stream)
        deck = Deck(rng, self.DECK)
        while True:
            q_step, refine = deck.draw()
            k = _loguniform(rng, 0.5, 50.0)
            zo = _loguniform(rng, 0.05, 5.0)
            wo = _loguniform(rng, 0.1, 20.0)
            zc = rng.uniform(0.5, 0.8)
            m = rng.uniform(6.0, 12.0)
            # omega_cl scaled from omega_ol and zeta_ol keeps every stage-1
            # gain positive and the w-plane zeros complex on this whole box
            wc = wo * max(1.0, zo) * rng.uniform(2.5, 5.0)
            yield {
                "plant": (k, zo, wo),
                "target": (zc, wc, m),
                "desired": zc + (1.0 - zc) * rng.uniform(0.3, 0.75),
                "q_step": q_step,
                "refine": refine,
                "r": _loguniform(rng, 0.5, 2.0),
            }

    def run(self, spec):
        fp = self.fp
        plant = fp.pole_placement.Plant(*spec["plant"])
        target = fp.pole_placement.ClosedLoopTarget(*spec["target"])
        try:
            report = fp.tuner.two_stage_tune(
                plant, target, spec["desired"], q_step=spec["q_step"],
                r=spec["r"], refine=spec["refine"],
            )
            stage1 = report.stage1_gains
        except fp.tuner.TargetUnreachable:
            report = None
            stage1 = fp.pole_placement.place_gains(plant, target)
        return report, fp.tuner.mcurve(plant, stage1, *MCURVE_GRID)

    def stats(self, spec, result, counts: Counter) -> None:
        counts[f"designs q_step={spec['q_step']:g}"] += 1
        counts["designs with refine"] += spec["refine"]
        counts["unreachable designs"] += result[0] is None
        counts["mcurve points"] += len(result[1])

    def check(self, spec, result) -> str | None:
        report, points = result
        plant = spec["plant"]
        expected_points = int((MCURVE_GRID[0] - MCURVE_GRID[1]) / MCURVE_GRID[2] + 1e-9) + 1
        if len(points) != expected_points:
            return f"mcurve gave {len(points)} points, expected {expected_points}"
        stable = [pt for pt in points if pt.stable]
        if stable:
            zeta, omega = dominant_pairs(np.array([_char_poly(plant, _gains(pt.equivalent_gains))
                                                   for pt in stable]))
            got_zeta = np.array([pt.dominant_zeta for pt in stable])
            got_omega = np.array([pt.dominant_omega_n for pt in stable])
            if not (np.allclose(got_zeta, zeta, rtol=1e-6, atol=1e-6)
                    and np.allclose(got_omega, omega, rtol=1e-6, atol=1e-6)):
                return "mcurve dominant pairs differ from the companion-matrix roots"
        if report is None:
            return None
        if report.achieved_zeta < spec["desired"] - ZETA_SLACK:
            return "achieved zeta below the desired damping"
        (zeta,), (omega,) = dominant_pairs(np.array([_char_poly(plant, _gains(report.suboptimal_gains))]))
        if not (_close(zeta, report.achieved_zeta, 1e-6) and _close(omega, report.achieved_omega_n, 1e-6)):
            return "suboptimal poles differ from numpy.roots"
        z, w, m = report.achieved_zeta, report.achieved_omega_n, spec["target"][2]
        pair = complex(-z * w, w * math.sqrt(max(0.0, 1.0 - z * z)))
        got = np.roots(_char_poly(plant, _gains(report.single_stage_gains)))
        if not _roots_match(got, [pair, pair.conjugate(), complex(-m * z * w, 0.0)], 1e-6):
            return "single-stage poles differ from numpy.roots"
        p_lqr = report.riccati_lqr.p.as_matrix()
        p_sub = report.riccati_subopt.p.as_matrix()
        eigs = np.linalg.eigvalsh(p_lqr - p_sub)
        scale = max(1.0, float(np.abs(eigs).max()))
        if np.abs(eigs - np.asarray(report.delta_p_eigs)).max() > 1e-9 * scale:
            return "delta-P eigenvalues differ from numpy.linalg.eigvalsh"
        for pkg, p in ((report.riccati_lqr, p_lqr), (report.riccati_subopt, p_sub)):
            if _care_residual(plant, p, pkg.q_diag, spec["r"]) > 1e-8:
                return "CARE residual above 1e-8"
        return None


# ---------------------------------------------------------------------------
# CLI-driven workloads share config generation and output helpers
# ---------------------------------------------------------------------------

class _CliWorkload:
    def __init__(self, fracpid, seed: int, workdir: Path) -> None:
        self.fp, self.seed = fracpid, seed
        self.workdir = workdir
        self.pools: dict[str, list[tuple[str, dict]]] = {}
        self.next_config: Counter = Counter()
        rng = _rng(self.name, seed, "configs")
        for base in PRESETS:
            self.pools[base] = [self._write(rng, base, f"{base}-{i}") for i in range(CONFIG_POOL)]

    def _write(self, rng, base: str, stem: str, bogus: bool = False):
        spec = _jitter_preset(rng, base)
        qgrid = (rng.uniform(1.1, 1.3), rng.uniform(0.7, 0.9), rng.choice((0.01, 0.02)))
        spec["qgrid"] = qgrid
        path = self.workdir / f"{stem}.ini"
        path.write_text(_config_text(spec, qgrid, bogus), encoding="utf-8")
        return str(path), spec

    def config(self, base: str):
        """The next generated config file of a preset base, in order."""
        i = self.next_config[base]
        self.next_config[base] += 1
        return self.pools[base][i % CONFIG_POOL]

    def run(self, spec):
        out = io.StringIO()
        try:
            code = self.fp.cli.main(spec["argv"], out=out)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        return code, out.getvalue()


# ---------------------------------------------------------------------------
# step-response
# ---------------------------------------------------------------------------

def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    a = a / 2.0**squarings
    term = np.eye(a.shape[0])
    result = term.copy()
    for i in range(1, 20):
        term = term @ a / i
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def exact_trace(plant, gains, step: float, dt: float, n: int, k_switch: int, load: float) -> np.ndarray:
    """Exact sampled closed loop, columns (y, u), from one augmented matrix
    exponential per constant-input segment (the C8 acceptance oracle)."""
    k, zo, wo = plant
    kp, ki, kd = gains
    ac = np.array([
        [0.0, 1.0, 0.0],
        [-(wo * wo + k * kp), -(2.0 * zo * wo + k * kd), k * ki],
        [-1.0, 0.0, 0.0],
    ])
    states = np.empty((n + 1, 4))
    z = np.array([0.0, 0.0, 0.0, 1.0])
    states[0] = z
    for lo, hi, d in ((0, k_switch, 0.0), (k_switch, n, load)):
        m4 = np.zeros((4, 4))
        m4[:3, :3] = ac
        m4[:3, 3] = (0.0, k * (kp * step + d), step)
        stepper = expm(m4 * dt)
        for i in range(lo, hi):
            z = stepper @ z
            states[i + 1] = z
    y, ydot, zint = states[:, 0], states[:, 1], states[:, 2]
    return np.column_stack((y, kp * (step - y) + ki * zint - kd * ydot))


def _trace_blocks(text: str) -> list[np.ndarray]:
    """Every printed ``t,r,y,u,d`` CSV block, as an (n, 5) array."""
    lines = text.split("\n")
    blocks = []
    for i, line in enumerate(lines):
        if line != TRACE_HEADER:
            continue
        j = i + 1
        while j < len(lines) and lines[j][:1] in "0123456789-" and lines[j]:
            j += 1
        cells = ",".join(lines[i + 1 : j]).split(",")
        blocks.append(np.array(cells, dtype=float).reshape(-1, 5))
    return blocks


class StepResponse(_CliWorkload):
    """One op: ``fracpid.cli.main(["simulate", ...])`` on a generated config,
    as plain placement, ``--disturb`` or ``--compare``, default horizons."""

    name = "step-response"
    trace_rate = 1.6
    DECK = [(base, mode) for base in TUNABLE for mode in ("plain", "disturb", "compare")] + [
        ("wang-oscillatory", "plain"), ("wang-oscillatory", "disturb"),
    ]

    def ops(self, stream: str):
        deck = Deck(_rng(self.name, self.seed, stream), self.DECK)
        while True:
            base, mode = deck.draw()
            path, spec = self.config(base)
            argv = ["simulate", "--config", path]
            if mode != "plain":
                argv.append(f"--{mode}")
            yield {"argv": argv, "mode": mode, "expect": 0, **spec}

    def stats(self, spec, result, counts: Counter) -> None:
        counts[f"simulate {spec['mode']}"] += 1
        counts["trace samples"] += sum(len(b) for b in _trace_blocks(result[1]))

    def _controllers(self, spec):
        fp = self.fp
        plant = fp.pole_placement.Plant(*spec["plant"])
        target = fp.pole_placement.ClosedLoopTarget(*spec["target"])
        if spec["mode"] == "compare":
            rep = fp.tuner.two_stage_tune(plant, target, spec["desired"], q_step=spec["q_step"])
            gains = [_gains(rep.suboptimal_gains), _gains(rep.single_stage_gains)]
            return gains, rep.achieved_zeta * rep.achieved_omega_n
        return [_gains(fp.pole_placement.place_gains(plant, target))], spec["target"][0] * spec["target"][1]

    def check(self, spec, result) -> str | None:
        code, text = result
        if code != spec["expect"]:
            return f"exit code {code}, expected {spec['expect']}"
        controllers, decay = self._controllers(spec)
        t_end = 20.0 / decay
        dt = min(1e-3, 0.01 / spec["plant"][2])
        n = int(math.floor(t_end / dt + 1e-9))
        load = DISTURBANCE_FRACTION if spec["mode"] == "disturb" else 0.0
        k_switch = n if load == 0.0 else min(max(int(round(DISTURBANCE_TIME_FRACTION * t_end / dt)), 0), n)
        blocks = _trace_blocks(text)
        if len(blocks) != len(controllers):
            return f"{len(blocks)} traces printed for {len(controllers)} controllers"
        for gains, got in zip(controllers, blocks):
            if got.shape[0] != n + 1:
                return f"trace has {got.shape[0]} rows, expected {n + 1}"
            if got[0, 3] != float(fmt(gains[0])):
                return f"u(0)={got[0, 3]!r} is not kp*step={fmt(gains[0])}"
            want = exact_trace(spec["plant"], gains, 1.0, dt, n, k_switch, load)
            # (printed, exact, allowance beyond 6-digit rounding): t, r and d
            # are exact; y gets the C8 simulator bound of 1e-6 per unit step;
            # u = kp*e + ki*z - kd*y' amplifies the integrator's state error,
            # which reaches 2e-6 of max|u| on designs with a real pole near
            # -150 rad/s at dt = 1 ms, so u gets 1e-5 of max|u|
            cols = {
                "t": (got[:, 0], np.arange(n + 1) * dt, 0.0),
                "r": (got[:, 1], np.ones(n + 1), 0.0),
                "y": (got[:, 2], want[:, 0], 1e-6),
                "u": (got[:, 3], want[:, 1], 1e-5 * float(np.abs(want[:, 1]).max())),
                "d": (got[:, 4], np.where(np.arange(n + 1) >= k_switch, load, 0.0), 0.0),
            }
            for label, (printed, exact, allowance) in cols.items():
                err = np.abs(printed - exact) - 5.0001e-6 * np.abs(exact)
                if np.any(err > allowance + 1e-12):
                    worst = int(np.argmax(err))
                    return f"trace column {label} row {worst}: {printed[worst]!r} vs exact {exact[worst]!r}"
        return None


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

class CliSession(_CliWorkload):
    """One op: one ``fracpid.cli.main`` call of place, inverse, tune or
    mcurve on a preset or a generated config, some invalid on purpose."""

    name = "cli-session"
    trace_rate = 120.0
    DECK = (["place-preset"] * 4 + ["place-config"] * 4
            + ["inverse-preset"] * 2 + ["inverse-config"] * 2
            + ["tune-preset"] * 2 + ["tune-config"] * 2
            + ["mcurve-preset", "mcurve-config"]
            + ["bad-key", "unstable-gains", "unreachable-zeta"])

    def __init__(self, fracpid, seed: int, workdir: Path) -> None:
        super().__init__(fracpid, seed, workdir)
        rng = _rng(self.name, seed, "bogus")
        self.bogus = [self._write(rng, rng.choice(TUNABLE), f"bogus-{i}", bogus=True)
                      for i in range(CONFIG_POOL)]

    def ops(self, stream: str):
        rng = _rng(self.name, self.seed, stream)
        deck = Deck(rng, self.DECK)
        count = 0
        while True:
            kind = deck.draw()
            command, source = kind.split("-", 1)
            base = rng.choice(TUNABLE if command in ("tune", "bad", "unstable", "unreachable")
                              else tuple(PRESETS))
            if source == "config":
                path, spec = self.config(base)
                spec = {**spec, "argv": [command, "--config", path]}
            else:
                (plant, target, desired) = PRESETS[base]
                spec = {"base": base, "plant": plant, "target": target, "desired": desired,
                        "q_step": 0.005, "r": 1.0, "refine": False,
                        "qgrid": MCURVE_GRID, "argv": [command, "--preset", base]}
            spec["kind"], spec["expect"], spec["gains"] = kind, 0, None
            if kind == "inverse-preset":
                g = tuple(v * rng.uniform(0.9, 1.1) for v in PRESET_GAINS[base])
                spec["gains"], spec["r"] = g, _loguniform(rng, 0.5, 2.0)
                spec["argv"] += ["--gains", ",".join(repr(v) for v in g), "--r", repr(spec["r"])]
            elif kind == "tune-preset":
                spec["desired"] = PRESETS[base][2] + rng.uniform(-0.01, 0.02)
                spec["argv"] += ["--desired-zeta", repr(spec["desired"])]
            elif kind == "mcurve-preset" and rng.random() < 0.5:
                spec["qgrid"] = (1.2, rng.uniform(0.7, 0.8), 0.005)
                spec["argv"] += ["--q-from", "1.2", "--q-to", repr(spec["qgrid"][1]), "--q-step", "0.005"]
            elif kind == "bad-key":
                path, _ = self.bogus[count % CONFIG_POOL]
                spec["argv"] = [rng.choice(("place", "tune")), "--config", path]
                spec["expect"] = 2
            elif kind == "unstable-gains":
                # a negative integral gain puts a closed-loop pole in the right half plane
                kp, ki, kd = (v * rng.uniform(0.9, 1.1) for v in PRESET_GAINS[base])
                spec["argv"] = ["inverse", "--preset", base, "--gains", f"{kp!r},{-ki!r},{kd!r}"]
                spec["expect"] = 3
            elif kind == "unreachable-zeta":
                # one q step of 0.25-0.3 jumps from q=1 to q <= 0.75, past the
                # wedge exit phi/pi (0.766 on p1, higher on p2 and p3), before
                # the target damping is met
                spec["argv"] = ["tune", "--preset", base,
                                "--desired-zeta", repr(rng.uniform(0.97, 0.995)),
                                "--q-step", repr(rng.uniform(0.25, 0.3))]
                spec["expect"] = 4
            count += 1
            yield spec

    def stats(self, spec, result, counts: Counter) -> None:
        counts[f"{spec['argv'][0]} exit {result[0]}"] += 1

    def check(self, spec, result) -> str | None:
        code, text = result
        if code != spec["expect"]:
            return f"{spec['kind']}: exit code {code}, expected {spec['expect']}"
        if code != 0:
            return None
        expected = getattr(self, f"_expect_{spec['argv'][0]}")(spec)
        if spec["argv"][0] == "mcurve":
            got = text.split("\n")[1:-1]
            if got != expected:
                return f"{spec['kind']}: mcurve rows differ from the library sweep"
            return None
        lines = set(text.split("\n"))
        for line in expected:
            if line not in lines:
                return f"{spec['kind']}: missing output line {line!r}"
        return None

    def _plant_target(self, spec):
        pp = self.fp.pole_placement
        return pp.Plant(*spec["plant"]), pp.ClosedLoopTarget(*spec["target"])

    def _expect_place(self, spec) -> list[str]:
        plant, target = self._plant_target(spec)
        gains = self.fp.pole_placement.place_gains(plant, target)
        rep = self.fp.pole_placement.closed_loop_poles(plant, gains)
        return [
            f"gains: {fmt_gains(_gains(gains))}",
            f"dominant: zeta={fmt(rep.dominant_zeta)} omega_n={fmt(rep.dominant_omega_n)}",
            f"real pole: {fmt(rep.real_pole)}",
            f"dominance ratio: {fmt(rep.dominance_ratio)}",
        ]

    def _expect_inverse(self, spec) -> list[str]:
        plant, target = self._plant_target(spec)
        pp = self.fp.pole_placement
        gains = pp.PidGains(*spec["gains"]) if spec["gains"] else pp.place_gains(plant, target)
        pkg = self.fp.lqr_inverse.riccati_package(plant, gains, spec["r"])
        p = pkg.p
        return [
            f"gains: {fmt_gains(_gains(gains))}",
            f"weights (inverse): q1={fmt(pkg.q_diag[0])} q2={fmt(pkg.q_diag[1])} "
            f"q3={fmt(pkg.q_diag[2])} r={fmt(pkg.r)}",
            f"riccati p (inverse): p11={fmt(p.a11)} p12={fmt(p.a12)} p13={fmt(p.a13)} "
            f"p22={fmt(p.a22)} p23={fmt(p.a23)} p33={fmt(p.a33)}",
            f"care residual: {fmt(pkg.care_residual)}",
        ]

    def _expect_tune(self, spec) -> list[str]:
        plant, target = self._plant_target(spec)
        rep = self.fp.tuner.two_stage_tune(
            plant, target, spec["desired"], q_step=spec["q_step"], r=spec["r"], refine=spec["refine"]
        )
        return [
            f"chosen q: {fmt(rep.chosen_q)}",
            f"achieved: zeta={fmt(rep.achieved_zeta)} omega_n={fmt(rep.achieved_omega_n)}",
            f"suboptimal gains: {fmt_gains(_gains(rep.suboptimal_gains))}",
            f"single-stage gains: {fmt_gains(_gains(rep.single_stage_gains))}",
            "delta-p eigenvalues: " + " ".join(fmt(e) for e in rep.delta_p_eigs),
            f"cost verdict: {rep.cost_verdict}",
        ]

    def _expect_mcurve(self, spec) -> list[str]:
        plant, target = self._plant_target(spec)
        stage1 = self.fp.pole_placement.place_gains(plant, target)
        rows = []
        for pt in self.fp.tuner.mcurve(plant, stage1, *spec["qgrid"]):
            cells = [fmt(pt.q)]
            cells += [fmt(v) for v in _gains(pt.equivalent_gains)] if pt.equivalent_gains else [""] * 3
            cells += [fmt(pt.s_zero.real), fmt(pt.s_zero.imag)] if pt.s_zero is not None else [""] * 2
            cells += ([fmt(pt.dominant_zeta), fmt(pt.dominant_omega_n)]
                      if pt.dominant_zeta is not None else [""] * 2)
            cells += [pt.wedge.value, "true" if pt.stable else "false"]
            rows.append(",".join(cells))
        return rows


WORKLOADS = {w.name: w for w in (DesignSweep, StepResponse, CliSession)}
