"""Closed-loop time-domain simulation of a second-order plant under ideal
PID control, with step set-point and optional input-side load disturbance.

The simulated state is ``(y, dy/dt, integral of error)``. The derivative
term acts on the error but the set-point step itself contributes no
impulse, so the control signal at the first sample of a step from rest is
exactly ``kp * step``. ``m_study`` simulates one placed design per
relative dominance ``m``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .numerics import NonFiniteState, _step_count, integrate_fixed_step
from .pole_placement import ClosedLoopTarget, PidGains, Plant, closed_loop_poles, place_gains

__all__ = [
    "ScenarioSpec",
    "Trace",
    "ResponseMetrics",
    "MStudyRecord",
    "InvalidScenario",
    "default_scenario",
    "simulate_closed_loop",
    "metrics",
    "m_study",
]

SETTLING_BAND = 0.02
# fraction of the step used for the default load disturbance, applied at
# 0.6 * t_end; neither value is prescribed by the method, both are exposed
DISTURBANCE_FRACTION = 0.5
DISTURBANCE_TIME_FRACTION = 0.6

# most samples a scenario may ask for; preset and benchmark traces stay
# below about 12 000
MAX_SAMPLES = 1_000_000


class InvalidScenario(UserWarning):
    """Step size too coarse for the dominant closed-loop frequency. The samples
    are exact at any step; this guards the sampling resolution of the metrics
    (peak, crossings, settling time, trapezoidal integrals)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Simulation scenario: horizon, step size, set-point step, and an
    optional input load disturbance stepping in at ``disturbance_time``
    (default 0.6 of the horizon when an amplitude is given)."""

    t_end: float  # s
    dt: float  # s
    step_amplitude: float = 1.0
    disturbance_amplitude: float = 0.0
    disturbance_time: float | None = None

    def __post_init__(self) -> None:
        values = (
            self.t_end,
            self.dt,
            self.step_amplitude,
            self.disturbance_amplitude,
            self.disturbance_time,
        )
        if not all(math.isfinite(v) for v in values if v is not None):
            raise ValueError("scenario values must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        # the trace holds floor(t_end/dt) + 1 samples (see simulate_closed_loop)
        steps = _step_count(self.t_end, self.dt)
        if steps >= MAX_SAMPLES:
            raise ValueError(
                f"scenario of {steps + 1} samples exceeds the cap of {MAX_SAMPLES}"
            )
        if self.disturbance_time is not None and not (
            0.0 <= self.disturbance_time <= self.t_end
        ):
            raise ValueError("disturbance_time must lie in [0, t_end]")

    def resolved_disturbance_time(self) -> float:
        if self.disturbance_time is not None:
            return self.disturbance_time
        return DISTURBANCE_TIME_FRACTION * self.t_end


@dataclass
class Trace:
    """Equal-length series: time, set-point, output, control, disturbance."""

    t: np.ndarray
    r: np.ndarray
    y: np.ndarray
    u: np.ndarray
    d: np.ndarray


@dataclass
class ResponseMetrics:
    """Step-response metrics over the pre-disturbance window.

    ``settled`` is False (and the settling time NaN) when the output never
    stays inside the 2 percent band. ``iae`` and ``control_ise`` integrate
    over the whole trace.
    """

    percent_overshoot: float
    rise_time_10_90: float  # s
    settling_time_2pct: float  # s
    peak_control: float
    initial_control: float
    iae: float
    control_ise: float
    settled: bool


@dataclass
class MStudyRecord:
    """One relative-dominance sample: gains plus step-response metrics."""

    m: float
    gains: PidGains
    metrics: ResponseMetrics


def default_scenario(plant: Plant, zeta_scale: float, omega_scale: float, **overrides) -> ScenarioSpec:
    """Scenario sized from a target point: horizon 20 dominant time
    constants, step capped at 1 ms or a hundredth of the plant period."""
    defaults = dict(
        t_end=20.0 / (zeta_scale * omega_scale),
        dt=min(1e-3, 0.01 / plant.omega_n_ol),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def simulate_closed_loop(plant: Plant, gains: PidGains, scenario: ScenarioSpec) -> Trace:
    """Sample the closed loop exactly through the scenario.

    The loop is linear and time-invariant with constant inputs before and
    after the load disturbance, which enters at the plant input and switches
    exactly on a grid point: one matrix exponential per segment. Raises
    UnstableClosedLoop, before sampling, when the gains do not stabilize the
    loop; warns DominanceWarning as closed_loop_poles does. Raises
    NonFiniteState when a state or the control effort overflows.
    """
    import numpy as np

    # roots come sorted by |Re|, the dominant pole first
    dom = abs(closed_loop_poles(plant, gains).roots.roots[0])
    if scenario.dt > 0.05 / dom:
        warnings.warn(
            f"dt={scenario.dt:g} is coarse for dominant frequency {dom:.3g} rad/s; "
            f"use dt <= {0.05 / dom:.3g}",
            InvalidScenario,
            stacklevel=2,
        )

    k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    step = scenario.step_amplitude
    dt = scenario.dt
    n_total = _step_count(scenario.t_end, dt)

    # a zero load, -0.0 too, is no disturbance: d is +0 in every sample
    load = scenario.disturbance_amplitude or 0.0
    k_switch = n_total
    if load != 0.0:
        k_switch = min(round(scenario.resolved_disturbance_time() / dt), n_total)

    # x = (y, dy/dt, integral of error): the open-loop plant, then the
    # feedback of u = kp*(step - y) + ki*zint - kd*ydot through its gain k
    loop = np.array([[0.0, 1.0, 0.0], [-wo * wo, -2.0 * zo * wo, 0.0], [-1.0, 0.0, 0.0]])
    loop[1] -= k * np.array([kp, kd, -ki])
    states = np.zeros((n_total + 1, 3))
    for lo, hi, segment_load in ((0, k_switch, 0.0), (k_switch, n_total, load)):
        if hi > lo:
            forcing = (0.0, k * (kp * step + segment_load), step)
            _, seg = integrate_fixed_step(loop, forcing, states[lo], (hi - lo) * dt, dt)
            states[lo : hi + 1] = seg

    t = np.arange(n_total + 1) * dt
    y, ydot, zint = states.T
    r = np.full(n_total + 1, step)
    d = np.where(np.arange(n_total + 1) >= k_switch, load, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow surfaces as the NonFiniteState check below
        u = kp * (r - y) + ki * zint - kd * ydot
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        raise NonFiniteState(f"non-finite control effort at t={t[bad[0]]:.6g}")
    return Trace(t=t, r=r, y=y, u=u, d=d)


def _first_crossing(t: np.ndarray, y: np.ndarray, level: float) -> float:
    """Linearly interpolated first crossing time of ``level``, NaN if never."""
    above = y >= level
    if not above.any():
        return math.nan
    idx = int(above.argmax())
    if idx == 0:
        return float(t[0])
    frac = (level - y[idx - 1]) / (y[idx] - y[idx - 1])
    return float(t[idx - 1] + frac * (t[idx] - t[idx - 1]))


def metrics(trace: Trace, gains: PidGains, scenario: ScenarioSpec) -> ResponseMetrics:
    """Extract step-response metrics from a trace.

    Overshoot, rise time, and settling are evaluated before a nonzero
    disturbance kicks in; control effort statistics cover the whole trace.
    The output is normalized by the step, so downward steps work too.
    Raises NonFiniteState when the peak or the integral of the squared
    control effort is not finite.
    """
    import numpy as np

    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 fallback
    step = scenario.step_amplitude
    if step == 0.0:
        raise ValueError("step-response metrics need a nonzero step amplitude")
    if scenario.disturbance_amplitude != 0.0 and scenario.resolved_disturbance_time() > 0.0:
        window = trace.t <= scenario.resolved_disturbance_time() + 1e-12
    else:
        window = np.ones(trace.t.size, dtype=bool)
    tw = trace.t[window]
    yw = trace.y[window] / step  # normalized response, rises 0 -> 1

    overshoot = max(0.0, (float(yw.max()) - 1.0) * 100.0)
    rise = _first_crossing(tw, yw, 0.9) - _first_crossing(tw, yw, 0.1)

    outside = np.abs(yw - 1.0) > SETTLING_BAND
    if not outside.any():
        settled, settling = True, float(tw[0])
    else:
        last_out = len(outside) - 1 - int(np.argmax(outside[::-1]))
        if last_out + 1 < len(tw):
            settled, settling = True, float(tw[last_out + 1])
        else:
            settled, settling = False, math.nan

    initial = float(trace.u[0])
    expected = gains.kp * step
    if abs(initial - expected) > 1e-6 * max(1.0, abs(expected)):
        warnings.warn(
            f"initial control {initial:.6g} differs from kp*step {expected:.6g}; "
            "trace does not start from rest",
            stacklevel=2,
        )
    peak = float(np.abs(trace.u).max())
    with np.errstate(over="ignore"):
        ise = float(trapezoid(trace.u**2, trace.t))
    if not (math.isfinite(peak) and math.isfinite(ise)):
        raise NonFiniteState(
            f"control effort overflows: peak {peak:.6g}, integral of squares {ise:.6g}"
        )
    return ResponseMetrics(
        percent_overshoot=overshoot,
        rise_time_10_90=rise,
        settling_time_2pct=settling,
        peak_control=peak,
        initial_control=initial,
        iae=float(trapezoid(np.abs(trace.r - trace.y), trace.t)),
        control_ise=ise,
        settled=settled,
    )


def m_study(
    plant: Plant,
    zeta_cl: float,
    omega_n_cl: float,
    m_values: list[float],
    scenario: ScenarioSpec | None = None,
) -> list[MStudyRecord]:
    """Place gains and collect unit-step metrics for each relative dominance.

    Records are returned in input order. With no scenario given, each run
    uses the default horizon and step size for the requested target.

    Under the simulator's set-point convention (derivative on the
    measurement) the loop r -> y is ``k*(kp*s + ki) / char(s)``, so its zero
    ``-ki/kp = -m*z*w**3 / (w**2*(1 + 2*m*z**2) - omega_n_ol**2)`` moves with
    ``m`` towards ``-w/(2*z)``. The response therefore converges, as O(1/m)
    and for any plant, to that of ``(2*z*w*s + w**2) / (s**2 + 2*z*w*s + w**2)``
    rather than to the bare dominant pair. On the oscillatory benchmark
    plant rise time has saturated by m = 10, while overshoot still closes
    about half its remaining gap to the limit each time m doubles.
    """
    if any(m <= 0.0 for m in m_values):
        raise ValueError("all m values must be positive")
    if scenario is None:
        scenario = default_scenario(plant, zeta_cl, omega_n_cl)
    records = []
    for m in m_values:
        gains = place_gains(plant, ClosedLoopTarget(zeta_cl, omega_n_cl, m))
        trace = simulate_closed_loop(plant, gains, scenario)
        records.append(MStudyRecord(m, gains, metrics(trace, gains, scenario)))
    return records
