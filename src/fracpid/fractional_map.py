"""Conformal mapping of PID controller zeros between the s- and w-planes.

A PID controller whose integral and derivative actions share a fractional
order ``q`` has two zeros in the w-plane (``w = s^q``). On the primary
Riemann sheet a w-plane zero at angle ``phi`` maps to an s-plane zero at
angle ``phi/q``, so sweeping ``q`` moves the controller zeros through the
s-plane while the w-plane geometry stays fixed. Only zeros inside the wedge
``pi*q/2 < phi < pi*q`` map to conventional oscillatory dynamics; the
equivalent integer-order PID of such a controller follows in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .pole_placement import PidGains

__all__ = [
    "WZeros",
    "WedgeClass",
    "RealZeros",
    "OutsideWedge",
    "w_zeros",
    "classify_wedge",
    "s_zeros",
    "equivalent_pid",
    "Q_SWEEP_HIGH",
    "Q_SWEEP_LOW",
]

# default fractional-order sweep range
Q_SWEEP_HIGH = 1.3
Q_SWEEP_LOW = 0.7


class RealZeros(ValueError):
    """Controller zeros are real in the w-plane (ultra-damped, not usable)."""


class OutsideWedge(ValueError):
    """The w-plane zeros fall outside the under-damped wedge for this order."""


class WedgeClass(enum.Enum):
    """Classification of a w-plane zero angle against the order-q wedge."""

    UNSTABLE = "unstable"
    UNDER_DAMPED = "under-damped"
    HYPER_DAMPED = "hyper-damped"
    ULTRA_DAMPED = "ultra-damped"


@dataclass(frozen=True)
class WZeros:
    """Conjugate w-plane zero pair in cartesian and polar form.

    ``phi`` is the principal angle of the upper zero, in (0, pi].
    """

    w1: complex
    w2: complex
    r: float
    phi: float


def _check_q(q: float) -> None:
    if not 0.0 < q <= 2.0:
        raise ValueError(f"fractional order q={q!r} outside (0, 2]")


def w_zeros(gains: PidGains) -> WZeros:
    """w-plane zeros of ``kd*w^2 + kp*w + ki``.

    Requires positive ki and kd and a negative discriminant, otherwise the
    zeros are real (RealZeros). The angle is computed with the two-argument
    arctangent so it stays correct for kp <= 0.
    """
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    if kd <= 0.0 or ki <= 0.0:
        raise ValueError("w_zeros requires ki > 0 and kd > 0")
    disc = 4.0 * ki * kd - kp * kp
    if disc <= 0.0:
        raise RealZeros(
            f"kp^2 >= 4*ki*kd for {gains}; zeros lie on the real w-axis"
        )
    re = -kp / (2.0 * kd)
    im = math.sqrt(disc) / (2.0 * kd)
    w1 = complex(re, im)
    return WZeros(w1=w1, w2=w1.conjugate(), r=math.sqrt(ki / kd), phi=math.atan2(im, re))


def classify_wedge(phi: float, q: float) -> WedgeClass:
    """Place a w-plane zero angle against the order-q stability wedge.

    The order is compared with ``edge = phi/pi``, the float that the
    stage-2 grid ends on. Boundaries are conservative: ``q >= 2*edge``
    counts as unstable and ``q == edge`` is labelled ultra-damped, so only
    strictly interior orders, ``edge < q < 2*edge``, qualify as under-damped.
    """
    _check_q(q)
    if not 0.0 < phi <= math.pi:
        raise ValueError(f"phi={phi!r} outside (0, pi]")
    edge = phi / math.pi
    if q >= 2.0 * edge:
        return WedgeClass.UNSTABLE
    if q > edge:
        return WedgeClass.UNDER_DAMPED
    if q == edge:
        return WedgeClass.ULTRA_DAMPED
    return WedgeClass.HYPER_DAMPED


def _phi_in_wedge(gains: PidGains, q: float) -> float:
    # w-plane zero angle, or OutsideWedge unless it maps to under-damped zeros
    phi = w_zeros(gains).phi
    wedge = classify_wedge(phi, q)
    if wedge is not WedgeClass.UNDER_DAMPED:
        raise OutsideWedge(f"zeros classify as {wedge.value} at q={q:g}")
    return phi


def s_zeros(gains: PidGains, q: float) -> tuple[complex, complex]:
    """Map the controller zeros back to the s-plane on the primary sheet.

    Returns the conjugate pair (upper, lower). Requires the under-damped
    wedge classification, otherwise the mapped zeros would not produce
    stable oscillatory dynamics (OutsideWedge). Raises ValueError when the
    mapped zero overflows the float range.
    """
    upper = _s_zero_at(gains, _phi_in_wedge(gains, q), q)
    return upper, upper.conjugate()


def _s_zero_at(gains: PidGains, phi: float, q: float) -> complex:
    # upper s-plane zero of gains whose w-plane angle phi is under-damped at q
    angle = phi / q
    try:
        mag = (gains.ki / gains.kd) ** (1.0 / (2.0 * q))
        if not 0.0 < mag < math.inf:  # ki/kd left the float range; take it in logs
            mag = math.exp((math.log(gains.ki) - math.log(gains.kd)) / (2.0 * q))
    except OverflowError as exc:
        raise ValueError(f"s-plane zero of {gains} overflows at q={q:g}") from exc
    return complex(mag * math.cos(angle), mag * math.sin(angle))


def equivalent_pid(gains: PidGains, q: float) -> PidGains:
    """Integer-order PID with its zeros at the order-q mapped positions.

    Identity at q=1. Inside the under-damped wedge ``cos(phi/q)`` is
    negative, so all three equivalent gains come out positive. Raises
    ValueError when a mapped gain overflows the float range.
    """
    return PidGains(*_gain_map(gains, _phi_in_wedge(gains, q))(q))


def _gain_map(gains: PidGains, phi: float):
    # q -> the (kp, ki, kd) of equivalent_pid as bare floats, for gains whose
    # w-plane angle phi is under-damped at q, with the gains and phi read
    # once; ValueError on overflow
    ki, kd = gains.ki, gains.kd
    kikd = ki * kd

    def mapped(q: float) -> tuple[float, float, float]:
        try:
            kp_q = -2.0 * kikd ** (1.0 / (2.0 * q)) * math.cos(phi / q)
            ki_q = ki ** (1.0 / q)
            kd_q = kd ** (1.0 / q)
            if not (math.isfinite(kp_q) and math.isfinite(ki_q) and math.isfinite(kd_q)):
                # finite gains map to a non-finite one only by overflow: ki*kd
                # past the float range, or a power that rounds to inf
                raise OverflowError
        except OverflowError as exc:
            raise ValueError(f"equivalent gains of {gains} overflow at q={q:g}") from exc
        return kp_q, ki_q, kd_q

    return mapped


def _rate_map(gains: PidGains, phi: float):
    # (q, mapped) -> d/dq of the gains _gain_map(gains, phi) maps q to, from
    # that result, with the logs of ki and kd taken once: with
    # a = (ki*kd)^(1/2q) = sqrt(ki(q)*kd(q)),
    #   kp(q) = -2a*cos(phi/q), so kp' = -(kp*ln(ki*kd)/2 + 2a*phi*sin(phi/q))/q^2,
    #   ki(q) = ki^(1/q), so ki' = -ki(q)*ln(ki)/q^2, and kd' alike
    log_ki, log_kd = math.log(gains.ki), math.log(gains.kd)
    log_kikd = log_ki + log_kd

    def rates(q: float, mapped: tuple[float, float, float]) -> tuple[float, float, float]:
        kp, ki, kd = mapped
        qq = q * q
        a = math.sqrt(ki) * math.sqrt(kd)
        return (
            -(0.5 * kp * log_kikd + 2.0 * a * phi * math.sin(phi / q)) / qq,
            -ki * log_ki / qq,
            -kd * log_kd / qq,
        )

    return rates
