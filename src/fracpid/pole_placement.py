"""PID gain synthesis by dominant pole placement for second-order plants.

The closed loop of a second-order plant under ideal PID control is third
order: one real pole plus a complex pair. Placing the real pole a factor
``m`` (the relative dominance) further left than the pair's real part makes
the loop behave like the specified second-order target. Matching the
closed-loop characteristic polynomial against the desired one gives the
gains in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .numerics import Cubic, RootTriple, solve_cubic

if TYPE_CHECKING:
    from .simulate import ResponseMetrics, ScenarioSpec

__all__ = [
    "Plant",
    "ClosedLoopTarget",
    "PidGains",
    "PoleReport",
    "MStudyRecord",
    "NonPositiveGain",
    "DominanceWarning",
    "UnstableClosedLoop",
    "place_gains",
    "desired_characteristic",
    "closed_loop_characteristic",
    "closed_loop_poles",
    "m_study",
]

# relative dominance below this is too weak for second-order-like behaviour
DOMINANCE_FLOOR = 3.0


class NonPositiveGain(UserWarning):
    """A synthesized gain is not positive; target is too close to the plant."""


class DominanceWarning(UserWarning):
    """The achieved relative dominance is below the guaranteed-placement floor."""


class UnstableClosedLoop(ValueError):
    """The closed loop has a pole with non-negative real part."""


@dataclass(frozen=True)
class Plant:
    """Second-order plant ``k / (s^2 + 2*zeta_ol*omega_n_ol*s + omega_n_ol^2)``."""

    k: float
    zeta_ol: float
    omega_n_ol: float  # rad/s

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.k, self.zeta_ol, self.omega_n_ol))):
            raise ValueError("plant parameters must be finite")
        if self.k == 0.0:
            raise ValueError("plant gain k must be nonzero")
        if self.zeta_ol < 0.0:
            raise ValueError("zeta_ol must be non-negative")
        if self.omega_n_ol <= 0.0:
            raise ValueError("omega_n_ol must be positive")


@dataclass(frozen=True)
class ClosedLoopTarget:
    """Desired dominant pair (zeta_cl, omega_n_cl) and relative dominance m."""

    zeta_cl: float
    omega_n_cl: float  # rad/s
    m: float = 10.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.zeta_cl, self.omega_n_cl, self.m))):
            raise ValueError("target parameters must be finite")
        if not 0.0 < self.zeta_cl <= 1.0:
            raise ValueError("zeta_cl must lie in (0, 1]")
        if self.omega_n_cl <= 0.0:
            raise ValueError("omega_n_cl must be positive")
        if self.m <= 0.0:
            raise ValueError("m must be positive")


@dataclass(frozen=True)
class PidGains:
    """Ideal PID gains ``kp + ki/s + kd*s``."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.kp, self.ki, self.kd))):
            raise ValueError("gains must be finite")


@dataclass
class PoleReport:
    """Achieved closed-loop pole pattern.

    ``dominance_ratio`` is |real pole| / |Re(dominant pair)|. When all three
    poles are real the slowest one is reported as dominant with zeta 1.0 and
    the next-slowest plays the role of the real pole.
    """

    roots: RootTriple
    dominant_zeta: float
    dominant_omega_n: float  # rad/s
    real_pole: float  # 1/s
    dominance_ratio: float


@dataclass
class MStudyRecord:
    """One relative-dominance sample: gains plus step-response metrics."""

    m: float
    gains: PidGains
    metrics: ResponseMetrics


def place_gains(plant: Plant, target: ClosedLoopTarget) -> PidGains:
    """Gains that place the dominant pair at the target and the real pole at
    ``-m * zeta_cl * omega_n_cl``.

    Warns NonPositiveGain when a gain comes out non-positive; the algebra is
    still exact, the caller decides whether the design is usable.
    """
    gains = PidGains(*(c / plant.k for c in _placement_shift(plant, target)))
    if min(gains.kp, gains.ki, gains.kd) <= 0.0:
        warnings.warn(
            f"non-positive gain in {gains}; target too close to the open loop",
            NonPositiveGain,
            stacklevel=2,
        )
    return gains


def desired_characteristic(target: ClosedLoopTarget) -> Cubic:
    """Monic target polynomial ``(s + m*z*w) * (s^2 + 2*z*w*s + w^2)``.

    Raises ValueError when the cube of the target frequency overflows.
    """
    zc, wc, m = target.zeta_cl, target.omega_n_cl, target.m
    try:
        wc3 = wc**3
    except OverflowError:
        raise ValueError(
            f"target frequency omega_n_cl={wc:g} is too large: its cube overflows"
        ) from None
    return Cubic(
        1.0,
        (2.0 + m) * zc * wc,
        wc * wc * (1.0 + 2.0 * m * zc * zc),
        m * zc * wc3,
    )


def _placement_shift(plant: Plant, target: ClosedLoopTarget) -> tuple[float, float, float]:
    # k*kp, k*ki and k*kd of the placing gains: each desired coefficient minus
    # the open-loop one it replaces (see closed_loop_characteristic)
    d = desired_characteristic(target)
    zo, wo = plant.zeta_ol, plant.omega_n_ol
    return d.a1 - wo * wo, d.a0, d.a2 - 2.0 * zo * wo


def closed_loop_characteristic(plant: Plant, gains: PidGains) -> Cubic:
    """Monic closed-loop denominator of the plant under the given PID."""
    k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
    return Cubic(
        1.0,
        2.0 * zo * wo + k * gains.kd,
        wo * wo + k * gains.kp,
        k * gains.ki,
    )


def closed_loop_poles(plant: Plant, gains: PidGains) -> PoleReport:
    """Solve the closed-loop cubic and report the dominant pole pattern.

    Raises UnstableClosedLoop unless every pole has a negative real part. Warns
    DominanceWarning when the achieved dominance ratio falls below 3, the
    floor under which the real pole visibly distorts the response.
    """
    triple = solve_cubic(closed_loop_characteristic(plant, gains))
    r0, r1, r2 = triple.roots
    if not (r0.real < 0.0 and r1.real < 0.0 and r2.real < 0.0):
        raise UnstableClosedLoop(f"closed-loop poles {triple.roots} are not all in the left half plane")

    # roots are sorted by |Re| then Im: a conjugate pair's upper root follows its lower one
    dom = r2 if r2.imag != 0.0 else r1
    if dom.imag != 0.0:
        omega = abs(dom)
        zeta = -dom.real / omega
        real_pole = (r0 if r0.imag == 0.0 else r1 if r1.imag == 0.0 else r2).real
    else:
        # all-real pattern: continuous limit of the pair collapsing onto the axis
        zeta = 1.0
        omega = abs(r0.real)
        real_pole = r1.real

    ratio = abs(real_pole) / (zeta * omega)
    if ratio < DOMINANCE_FLOOR:
        warnings.warn(
            f"relative dominance {ratio:.3g} is below {DOMINANCE_FLOOR:g}; "
            "second-order behaviour is not guaranteed",
            DominanceWarning,
            stacklevel=2,
        )
    return PoleReport(
        roots=triple,
        dominant_zeta=zeta,
        dominant_omega_n=omega,
        real_pole=real_pole,
        dominance_ratio=ratio,
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
    from . import simulate  # local import, simulate depends on this module

    if any(m <= 0.0 for m in m_values):
        raise ValueError("all m values must be positive")
    records = []
    for m in m_values:
        target = ClosedLoopTarget(zeta_cl, omega_n_cl, m)
        gains = place_gains(plant, target)
        scn = scenario
        if scn is None:
            scn = simulate.default_scenario(plant, zeta_cl, omega_n_cl)
        trace = simulate.simulate_closed_loop(plant, gains, scn)
        records.append(MStudyRecord(m, gains, simulate.metrics(trace, gains, scn)))
    return records
