"""Inverse-LQR construction for PID pole placement.

With the regulator state ``x = (integral of error, error, error rate)`` the
plant becomes a companion-form triple integrator chain and the PID gains act
as state feedback. For any stabilizing gains the algebraic Riccati solution
and the diagonal weights of the equivalent quadratic-cost problem follow in
closed form, so the control cost of two designs can be compared through the
eigenvalues of the difference of their Riccati solutions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .numerics import Sym3, eig_sym3
from .pole_placement import (
    ClosedLoopTarget,
    PidGains,
    Plant,
    UnstableClosedLoop,
    _placement_shift,
    _stable_poles,
)

__all__ = [
    "StateSpace3",
    "RiccatiPackage",
    "UnstableGains",
    "IndefiniteWeights",
    "system_matrices",
    "p_third_row",
    "p_from_gains",
    "q_from_p",
    "care_residual",
    "gains_from_p",
    "cost_for_initial_state",
    "delta_p_eigenvalues",
    "riccati_package",
]

PACKAGE_RESIDUAL_TOL = 1e-8


class UnstableGains(ValueError):
    """Gains do not stabilize the loop; the inverse problem is undefined."""


class IndefiniteWeights(UserWarning):
    """The reconstructed diagonal weights contain a negative entry."""


@dataclass
class StateSpace3:
    """Companion-form regulator model ``x' = a x + b u``."""

    a: np.ndarray  # 3x3
    b: np.ndarray  # 3-vector


@dataclass
class RiccatiPackage:
    """Riccati solution, diagonal weights, scalar effort weight, and the
    relative residual of the algebraic Riccati equation they satisfy."""

    p: Sym3
    q_diag: tuple[float, float, float]
    r: float
    care_residual: float


def system_matrices(plant: Plant) -> StateSpace3:
    """Regulator-state model of the plant: two shift rows plus the plant row."""
    import numpy as np

    wo2 = plant.omega_n_ol**2
    a = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, -wo2, -2.0 * plant.zeta_ol * plant.omega_n_ol],
        ]
    )
    b = np.array([0.0, 0.0, -plant.k])
    return StateSpace3(a, b)


def p_third_row(
    plant: Plant, target: ClosedLoopTarget, r: float = 1.0
) -> tuple[float, float, float]:
    """Third row (P13, P23, P33) of the Riccati solution, directly from the
    plant and the placement target. Linear in the effort weight ``r``."""
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive")
    kp_shift, ki_shift, kd_shift = _placement_shift(plant, target)
    g = r / (plant.k * plant.k)
    return ki_shift * g, kp_shift * g, kd_shift * g


def p_from_gains(plant: Plant, gains: PidGains, r: float = 1.0) -> Sym3:
    """Full symmetric Riccati solution equivalent to the given stabilizing
    gains.

    The third row is the gains scaled by ``r/k``; the remaining entries
    follow from the off-diagonal Riccati equations.
    """
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive")
    try:
        _stable_poles(plant, gains)  # the Hurwitz check, not dominance quality
    except UnstableClosedLoop as exc:
        raise UnstableGains(str(exc)) from exc

    k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
    g = k * k / r
    p13 = gains.ki * r / k
    p23 = gains.kp * r / k
    p33 = gains.kd * r / k
    p11 = wo * wo * p13 + g * p13 * p23
    p12 = 2.0 * zo * wo * p13 + g * p13 * p33
    p22 = 2.0 * zo * wo * p23 + g * p23 * p33 + wo * wo * p33 - p13
    return Sym3(p11, p12, p13, p22, p23, p33)


def q_from_p(plant: Plant, p: Sym3, r: float = 1.0) -> tuple[float, float, float]:
    """Diagonal weights that close the algebraic Riccati equation for ``p``.

    Warns IndefiniteWeights when a reconstructed entry is negative; the
    inverse problem does not force standard semi-definite weights. Raises
    ValueError when the square of an entry of ``p`` overflows; the entries
    grow linearly with ``r``.
    """
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive")
    k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
    g = k * k / r
    try:
        q1 = g * p.a13**2
        q2 = g * p.a23**2 - 2.0 * (p.a12 - wo * wo * p.a23)
        q3 = g * p.a33**2 - 2.0 * (p.a23 - 2.0 * zo * wo * p.a33)
    except OverflowError:
        raise ValueError(
            f"effort weight r={r:g} is too large: the Riccati solution's squares overflow"
        ) from None
    if q1 < 0.0 or q2 < 0.0 or q3 < 0.0:
        warnings.warn(
            f"reconstructed weights ({q1:.6g}, {q2:.6g}, {q3:.6g}) are indefinite",
            IndefiniteWeights,
            stacklevel=2,
        )
    return q1, q2, q3


def care_residual(
    ss: StateSpace3,
    p: Sym3,
    q_diag: tuple[float, float, float],
    r: float,
) -> float:
    """Frobenius norm of the algebraic Riccati equation residual, normalized
    by max(1, ||Q||_F) so the tolerance is scale-free."""
    import numpy as np

    a, b = ss.a, ss.b.reshape(3, 1)
    pm = p.as_matrix()
    q = np.diag(q_diag)
    res = a.T @ pm + pm @ a - (pm @ b) @ (b.T @ pm) / r + q
    return float(np.linalg.norm(res) / max(1.0, np.linalg.norm(q)))


def gains_from_p(p: Sym3, k: float, r: float = 1.0) -> PidGains:
    """Recover the state-feedback PID gains from a Riccati solution."""
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive")
    scale = k / r
    return PidGains(kp=scale * p.a23, ki=scale * p.a13, kd=scale * p.a33)


def cost_for_initial_state(p: Sym3, x0) -> float:
    """Quadratic regulator cost ``x0^T P x0`` for an initial state."""
    import numpy as np

    x = np.asarray(x0, dtype=float)
    return float(x @ p.as_matrix() @ x)


def delta_p_eigenvalues(
    p_a: Sym3, p_b: Sym3
) -> tuple[tuple[float, float, float], bool]:
    """Eigenvalues of ``p_a - p_b`` (ascending) and whether the difference is
    positive definite, i.e. whether design ``a`` costs more for every nonzero
    initial state."""
    eigs = eig_sym3(p_a - p_b)
    return eigs, all(e > 0.0 for e in eigs)


def riccati_package(plant: Plant, gains: PidGains, r: float = 1.0) -> RiccatiPackage:
    """Bundle the inverse construction for one gain set and verify it closes
    the Riccati equation."""
    p = p_from_gains(plant, gains, r)
    q_diag = q_from_p(plant, p, r)
    residual = care_residual(system_matrices(plant), p, q_diag, r)
    if residual > PACKAGE_RESIDUAL_TOL:
        raise ArithmeticError(
            f"inverse construction left a Riccati residual of {residual:.3e}"
        )
    return RiccatiPackage(p=p, q_diag=q_diag, r=r, care_residual=residual)
