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

from .numerics import Cubic, RootTriple, solve_cubic

__all__ = [
    "Plant",
    "ClosedLoopTarget",
    "PidGains",
    "PoleReport",
    "NonPositiveGain",
    "DominanceWarning",
    "UnstableClosedLoop",
    "place_gains",
    "desired_characteristic",
    "closed_loop_characteristic",
    "closed_loop_poles",
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
        if not (math.isfinite(self.kp) and math.isfinite(self.ki) and math.isfinite(self.kd)):
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
    return Cubic(*_closed_loop_coefficients(plant, gains.kp, gains.ki, gains.kd))


def _closed_loop_coefficients(plant: Plant, kp: float, ki: float, kd: float) -> tuple[float, float, float, float]:
    # (a3, a2, a1, a0) of closed_loop_characteristic
    k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
    return 1.0, 2.0 * zo * wo + k * kd, wo * wo + k * kp, k * ki


def _dominant_reading(r0: complex, r1: complex, r2: complex) -> tuple[float, float, float] | None:
    # (zeta, omega_n, real_pole) of roots sorted as solve_cubic sorts them, by
    # |Re| then Im, so a conjugate pair's upper root follows its lower one;
    # None unless every root has a negative real part
    if not (r0.real < 0.0 and r1.real < 0.0 and r2.real < 0.0):
        return None
    dom = r2 if r2.imag != 0.0 else r1
    if dom.imag != 0.0:
        omega = abs(dom)
        return -dom.real / omega, omega, (r0 if r0.imag == 0.0 else r1 if r1.imag == 0.0 else r2).real
    # all-real pattern: continuous limit of the pair collapsing onto the axis
    return 1.0, abs(r0.real), r1.real


def _stable_poles(plant: Plant, gains: PidGains) -> tuple[RootTriple, tuple[float, float, float]]:
    # the solved closed-loop roots and their (zeta, omega_n, real_pole);
    # raises UnstableClosedLoop unless every root has a negative real part
    triple = solve_cubic(closed_loop_characteristic(plant, gains))
    reading = _dominant_reading(*triple.roots)
    if reading is None:
        raise UnstableClosedLoop(f"closed-loop poles {triple.roots} are not all in the left half plane")
    return triple, reading


def closed_loop_poles(plant: Plant, gains: PidGains) -> PoleReport:
    """Solve the closed-loop cubic and report the dominant pole pattern.

    Raises UnstableClosedLoop unless every pole has a negative real part. Warns
    DominanceWarning when the achieved dominance ratio falls below 3, the
    floor under which the real pole visibly distorts the response.
    """
    triple, (zeta, omega, real_pole) = _stable_poles(plant, gains)
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
