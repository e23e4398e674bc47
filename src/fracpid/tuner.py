"""Fractional-order sweep and the two-stage suboptimal tuning procedure.

Stage one places the dominant poles at a deliberately low damping. Stage two
holds the controller's w-plane zero geometry fixed and lowers the fractional
order until the equivalent integer-order PID reaches the desired damping.
The resulting gains are compared against a single-stage placement at the
same achieved point through the inverse-LQR cost construction and the
initial control effort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fractional_map import (
    WedgeClass,
    _check_q,
    _gain_map,
    _rate_map,
    _s_zero_at,
    classify_wedge,
    w_zeros,
)
from .lqr_inverse import RiccatiPackage, delta_p_eigenvalues, riccati_package
from .numerics import _cubic_roots, _step_count
from .pole_placement import (
    ClosedLoopTarget,
    PidGains,
    Plant,
    _dominant_reading,
    place_gains,
)

__all__ = [
    "MCurvePoint",
    "TuningReport",
    "TargetUnreachable",
    "mcurve",
    "two_stage_tune",
]

# slack on the stage-2 damping stop test, so targets that are met exactly on
# a grid point terminate there instead of drifting one step further
ZETA_SLACK = 1e-8

# default stage-2 grid step; the strided search takes one such step per stride
DEFAULT_Q_STEP = 0.005

# relative margin by which the terms of the stage-2 slope must clear 0 before
# its sign is trusted: roots this close leave the root, and so the slope,
# ~1e-8 relative error (rounding ~1e-16 over the margin squared)
SLOPE_RTOL = 1e-4

# longest q grid a sweep may build or the stage-2 walk may search; the
# benchmark's grids peak near 5000 points (stage 2 at q_step 0.0002)
MAX_Q_POINTS = 100_000


class TargetUnreachable(RuntimeError):
    """No fractional order on the search grid reaches the desired damping."""


@dataclass
class MCurvePoint:
    """One sample of the controller-zero / dominant-pole trajectory.

    Gains, mapped zero, and dominant values are present only when the order
    keeps the zeros inside the under-damped wedge and the loop is stable.
    """

    q: float
    wedge: WedgeClass
    stable: bool
    equivalent_gains: PidGains | None = None
    s_zero: complex | None = None
    dominant_zeta: float | None = None
    dominant_omega_n: float | None = None


@dataclass
class TuningReport:
    """Everything the two-stage procedure produced, including the
    single-stage comparison at the achieved pole location."""

    stage1_gains: PidGains
    chosen_q: float
    suboptimal_gains: PidGains
    achieved_zeta: float
    achieved_omega_n: float
    single_stage_gains: PidGains
    riccati_lqr: RiccatiPackage
    riccati_subopt: RiccatiPackage
    delta_p_eigs: tuple[float, float, float]
    cost_verdict: str
    initial_control_lqr: float
    initial_control_subopt: float


def q_grid(q_from: float, q_to: float, q_step: float) -> list[float]:
    """Inclusive descending grid from q_from down to q_to.

    Both ends must lie inside (0, 2], else ValueError; inside it the grid is
    empty when q_from < q_to. A grid of more than MAX_Q_POINTS points raises
    ValueError before it is built.
    """
    return [q_from - i * q_step for i in range(_grid_size(q_from, q_to, q_step))]


def _grid_size(q_from: float, q_to: float, q_step: float) -> int:
    # the point count of q_grid, which raises what q_grid raises; point i
    # is q_from - i * q_step
    if not q_step > 0.0:
        raise ValueError("q_step must be positive")
    if not (0.0 < q_to <= 2.0 and 0.0 < q_from <= 2.0):
        raise ValueError("q grid must lie inside (0, 2]")
    if q_from < q_to:
        return 0
    steps = _step_count(q_from - q_to, q_step)
    if steps >= MAX_Q_POINTS:
        raise ValueError(f"q grid of {steps + 1} points exceeds the cap of {MAX_Q_POINTS}")
    return steps + 1


def _prober(plant: Plant, stage1_gains: PidGains, phi: float):
    # the probe core bound to one design, phi its stage-1 w-plane zero angle:
    # q -> None where the zeros leave the under-damped wedge at q, else the
    # equivalent gains (kp, ki, kd), the closed-loop roots they give, sorted
    # as solve_cubic sorts them, and the dominant reading of those roots,
    # None where the loop is unstable. The plant, edge and gains are read
    # once; a probe solves one cubic on bare floats and builds no PidGains or
    # report and warns nothing, since dominance belongs to designs
    k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
    a2, a1 = 2.0 * zo * wo, wo * wo  # the plant's terms of _closed_loop_coefficients
    edge = phi / math.pi
    edge2 = 2.0 * edge
    gain_map = _gain_map(stage1_gains, phi)

    def probe(q):
        _check_q(q)
        if not edge < q < edge2:  # classify_wedge's under-damped test
            return None
        gains = kp, ki, kd = gain_map(q)
        roots = _cubic_roots(1.0, a2 + k * kd, a1 + k * kp, k * ki)
        return gains, roots, _dominant_reading(*roots)

    return probe


def _sloper(plant: Plant, stage1_gains: PidGains, phi: float):
    # d(zeta)/dq bound to one design, as _prober binds the probe: (q, gains,
    # roots) -> the slope of the dominant pair at order q, from the gains and
    # roots the probe found there, with no second cubic. The plant's k and
    # the logs of the stage-1 ki and kd are read once. The loop coefficients
    # are affine in the mapped gains, so at a simple root s of the monic
    # cubic p implicit differentiation gives s' = -k(kd' s^2 + kp' s + ki')/p'(s),
    # with p'(s) = (s - a)(s - b) over the other two roots a, b. With
    # s = |s|(u + jv), zeta = -u and zeta' = (u v y' - v^2 x')/|s|, read in
    # unit-modulus terms so that no scale underflows. None where the sign is
    # not certain: a real dominant root, or a root separation, numerator or
    # slope within SLOPE_RTOL of 0 against the terms it sums
    k = plant.k
    rates = _rate_map(stage1_gains, phi)

    def slope(
        q: float, gains: tuple[float, float, float], roots: tuple[complex, complex, complex]
    ) -> float | None:
        r0, r1, r2 = roots
        s, a, b = (r2, r0, r1) if r2.imag != 0.0 else (r1, r0, r2)
        if s.imag == 0.0:
            return None
        size = abs(s)
        if not (
            abs(s - a) > SLOPE_RTOL * (size + abs(a)) and abs(s - b) > SLOPE_RTOL * (size + abs(b))
        ):
            return None
        dkp, dki, dkd = rates(q, gains)
        num = k * (dkd * s * s + dkp * s + dki)
        if not abs(num) > SLOPE_RTOL * abs(k) * (abs(dkd) * size * size + abs(dkp) * size + abs(dki)):
            return None
        ds = -num / ((s - a) * (s - b))
        u, v = s.real / size, s.imag / size
        top = u * v * ds.imag - v * v * ds.real
        if not abs(top) > SLOPE_RTOL * abs(v) * (abs(u) + abs(v)) * abs(ds):
            return None
        return top / size

    return slope


def mcurve(
    plant: Plant,
    stage1_gains: PidGains,
    q_from: float,
    q_to: float,
    q_step: float,
) -> list[MCurvePoint]:
    """Sweep the fractional order over a descending grid.

    Each point carries the equivalent gains, the upper mapped zero, and the
    dominant closed-loop pole, or just the wedge/stability flags where the
    mapping or the loop fails.
    """
    phi = w_zeros(stage1_gains).phi
    probe = _prober(plant, stage1_gains, phi)
    points = []
    for q in q_grid(q_from, q_to, q_step):
        found = probe(q)
        if found is None:
            points.append(MCurvePoint(q, classify_wedge(phi, q), False))
            continue
        gains, _, reading = found
        zeta, omega = reading[:2] if reading else (None, None)
        points.append(MCurvePoint(
            q, WedgeClass.UNDER_DAMPED, reading is not None, PidGains(*gains),
            _s_zero_at(stage1_gains, phi, q), zeta, omega,
        ))
    return points


def two_stage_tune(
    plant: Plant,
    stage1_target: ClosedLoopTarget,
    desired_zeta: float,
    q_step: float = DEFAULT_Q_STEP,
    r: float = 1.0,
    refine: bool = False,
) -> TuningReport:
    """Run the two-stage procedure and the single-stage comparison.

    Steps: place gains at the low-damping stage-1 target; search q down
    from 1 in steps of ``q_step`` for the first order whose dominant damping
    reaches ``desired_zeta``; place single-stage gains at the achieved
    (zeta, omega_n) with the stage-1 dominance; build both inverse Riccati
    packages; compare costs via the difference eigenvalues and initial
    efforts via the proportional gains (unit-step basis). With ``refine``
    the step is halved twice after the first hit to edge the chosen order
    closer to the damping boundary.

    The search strides S = max(1, floor(DEFAULT_Q_STEP/q_step + 1e-9)) grid
    steps, one default step in q (the 1e-9 mirrors q_grid's rounding). From
    a clear index i (stable, damping below the target) it probes j = i+S and
    skips i+1..j-1 only when j is clear and the closed-form slope d(zeta)/dq
    at j is certainly negative, so that the damping rises past j as q falls;
    otherwise it walks i+1..j in order. The slope comes from the one probe
    at j, with no second cubic; where its sign is not certain (a real
    dominant root, a double root, or a slope within rounding of 0) the
    search walks. It returns what a walk over every grid order would, unless
    the damping turns twice, or a stability pocket opens (or a probe
    raises), strictly inside a stride that it skips. At q_step >=
    DEFAULT_Q_STEP the stride is 1 and the search is the walk.

    The zeros stay under-damped only while q > phi/pi (phi the stage-1
    w-plane zero angle), so the search probes each of at most
    floor((1 - phi/pi)/q_step) + 1 grid orders at most once, and raises
    ValueError up front when that exceeds MAX_Q_POINTS. Raises
    TargetUnreachable where the loop is unstable or the zeros leave the
    wedge at the first grid order that is not clear, and when the grid above
    phi/pi runs out, before the desired damping is met.
    """
    if not stage1_target.zeta_cl < desired_zeta < 1.0:
        raise ValueError(
            "desired_zeta must lie strictly between the stage-1 damping and 1"
        )

    stage1_gains = place_gains(plant, stage1_target)
    phi = w_zeros(stage1_gains).phi
    probe = _prober(plant, stage1_gains, phi)
    slope_at = _sloper(plant, stage1_gains, phi)

    zeta_floor = desired_zeta - ZETA_SLACK
    # the q_grid from 1 down to phi/pi, whose point k is 1 - k*q_step; at fine
    # steps it runs to thousands of orders, of which the search probes tens
    size = _grid_size(1.0, phi / math.pi, q_step)
    stride = max(1, _step_count(DEFAULT_Q_STEP, q_step))
    seen = {}

    def look(k):
        # the probe at grid index k, made once, or None where the zeros leave
        # the wedge or the loop is unstable; what it raises waits until the
        # walk reaches k
        if k not in seen:
            try:
                found = probe(1.0 - k * q_step)
                seen[k] = None if found is None or found[2] is None else found
            except Exception as exc:
                seen[k] = exc
        return seen[k]

    def skips(j):
        # whether the stride may skip to index j: j is clear, stable with its
        # damping below the floor, and the slope there is certainly negative
        found = look(j)
        if not (isinstance(found, tuple) and found[2][0] < zeta_floor):
            return False
        slope = slope_at(1.0 - j * q_step, *found[:2])
        return slope is not None and slope < 0.0

    i = stop = 0  # the walk stands at i; at stop it tries the next stride
    while i < size:
        chosen = look(i)
        if isinstance(chosen, Exception):
            raise chosen
        if chosen is None:
            raise TargetUnreachable(
                f"loop unstable or zeros outside the under-damped wedge "
                f"at q={1.0 - i * q_step:g} before damping {desired_zeta:g} was reached"
            )
        if chosen[2][0] >= zeta_floor:
            break
        if i == stop:
            j = stop = i + stride
            if stride > 1 and j < size and skips(j):
                i = j
                continue
        i += 1
    else:
        raise TargetUnreachable(
            f"no order on the {q_step:g} grid above phi/pi="
            f"{phi / math.pi:g} reaches damping {desired_zeta:g}"
        )
    chosen_q = 1.0 - i * q_step
    if refine:
        for half in (0.5 * q_step, 0.25 * q_step):
            if chosen_q + half <= 1.0:
                candidate = probe(chosen_q + half)
                if candidate and candidate[2] and candidate[2][0] >= zeta_floor:
                    chosen_q, chosen = chosen_q + half, candidate

    gains, _, (zeta, omega, _) = chosen
    suboptimal_gains = PidGains(*gains)
    achieved = ClosedLoopTarget(zeta, omega, stage1_target.m)
    single_stage_gains = place_gains(plant, achieved)
    pkg_lqr = riccati_package(plant, single_stage_gains, r)
    pkg_sub = riccati_package(plant, suboptimal_gains, r)
    eigs, definite = delta_p_eigenvalues(pkg_lqr.p, pkg_sub.p)
    return TuningReport(
        stage1_gains=stage1_gains,
        chosen_q=chosen_q,
        suboptimal_gains=suboptimal_gains,
        achieved_zeta=achieved.zeta_cl,
        achieved_omega_n=achieved.omega_n_cl,
        single_stage_gains=single_stage_gains,
        riccati_lqr=pkg_lqr,
        riccati_subopt=pkg_sub,
        delta_p_eigs=eigs,
        cost_verdict="lqr-higher" if definite else "indefinite",
        initial_control_lqr=single_stage_gains.kp,
        initial_control_subopt=suboptimal_gains.kp,
    )
