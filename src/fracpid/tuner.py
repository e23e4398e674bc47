"""Fractional-order sweep and the two-stage suboptimal tuning procedure.

Stage one places the dominant poles at a deliberately low damping. Stage two
holds the controller's w-plane zero geometry fixed and lowers the fractional
order until the equivalent integer-order PID reaches the desired damping.
The resulting gains are compared against a single-stage placement at the
same achieved point through the inverse-LQR cost construction and the
initial control effort.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .fractional_map import (
    WedgeClass,
    classify_wedge,
    equivalent_pid,
    s_zeros,
    w_zeros,
)
from .lqr_inverse import RiccatiPackage, delta_p_eigenvalues, riccati_package
from .pole_placement import (
    ClosedLoopTarget,
    DominanceWarning,
    PidGains,
    Plant,
    PoleReport,
    UnstableClosedLoop,
    closed_loop_poles,
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


def _poles_quiet(plant: Plant, gains: PidGains) -> PoleReport:
    # sweeps scan arbitrary dominance ratios; the warning belongs to designs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DominanceWarning)
        return closed_loop_poles(plant, gains)


def q_grid(q_from: float, q_to: float, q_step: float) -> list[float]:
    """Inclusive descending grid from q_from down to q_to.

    Empty when q_from < q_to. Grid values must stay inside (0, 2].
    """
    if not q_step > 0.0:
        raise ValueError("q_step must be positive")
    if q_from < q_to:
        return []
    if not (0.0 < q_to <= 2.0 and 0.0 < q_from <= 2.0):
        raise ValueError("q grid must lie inside (0, 2]")
    count = int((q_from - q_to) / q_step + 1e-9) + 1
    return [q_from - i * q_step for i in range(count)]


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
    wz = w_zeros(stage1_gains)
    points = []
    for q in q_grid(q_from, q_to, q_step):
        wedge = classify_wedge(wz.phi, q)
        point = MCurvePoint(q=q, wedge=wedge, stable=False)
        if wedge is WedgeClass.UNDER_DAMPED:
            gains = equivalent_pid(stage1_gains, q)
            point.equivalent_gains = gains
            point.s_zero = s_zeros(stage1_gains, q)[0]
            try:
                report = _poles_quiet(plant, gains)
            except UnstableClosedLoop:
                pass
            else:
                point.stable = True
                point.dominant_zeta = report.dominant_zeta
                point.dominant_omega_n = report.dominant_omega_n
        points.append(point)
    return points


def two_stage_tune(
    plant: Plant,
    stage1_target: ClosedLoopTarget,
    desired_zeta: float,
    q_step: float = 0.005,
    r: float = 1.0,
    refine: bool = False,
) -> TuningReport:
    """Run the two-stage procedure and the single-stage comparison.

    Steps: place gains at the low-damping stage-1 target; walk q down from 1
    in steps of ``q_step`` until the dominant damping reaches
    ``desired_zeta``; place single-stage gains at the achieved (zeta,
    omega_n) with the stage-1 dominance; build both inverse Riccati
    packages; compare costs via the difference eigenvalues and initial
    efforts via the proportional gains (unit-step basis).

    With ``refine`` the step is halved twice after the first hit to edge the
    chosen order closer to the damping boundary. Raises TargetUnreachable
    when the grid exits the under-damped wedge (or runs out of orders)
    before the desired damping is met.
    """
    if not stage1_target.zeta_cl < desired_zeta < 1.0:
        raise ValueError(
            "desired_zeta must lie strictly between the stage-1 damping and 1"
        )
    if not q_step > 0.0:
        raise ValueError("q_step must be positive")

    stage1_gains = place_gains(plant, stage1_target)
    phi = w_zeros(stage1_gains).phi

    def probe(q: float) -> tuple[PidGains, PoleReport] | None:
        if classify_wedge(phi, q) is not WedgeClass.UNDER_DAMPED:
            return None
        gains = equivalent_pid(stage1_gains, q)
        try:
            return gains, _poles_quiet(plant, gains)
        except UnstableClosedLoop:
            return None

    chosen = None
    step_count = 0
    while True:
        q = 1.0 - step_count * q_step
        if q <= 0.0:
            raise TargetUnreachable(
                f"no order in (0, 1] reaches damping {desired_zeta:g} "
                f"on a {q_step:g} grid"
            )
        result = probe(q)
        if result is None:
            raise TargetUnreachable(
                f"zeros left the under-damped wedge at q={q:g} before "
                f"damping {desired_zeta:g} was reached"
            )
        if result[1].dominant_zeta >= desired_zeta - ZETA_SLACK:
            chosen = (q, *result)
            break
        step_count += 1

    if refine:
        q, gains, report = chosen
        half = q_step
        for _ in range(2):
            half *= 0.5
            candidate = q + half
            if candidate > 1.0:
                continue
            result = probe(candidate)
            if result is not None and result[1].dominant_zeta >= desired_zeta - ZETA_SLACK:
                q, gains, report = candidate, *result
        chosen = (q, gains, report)

    chosen_q, suboptimal_gains, report = chosen
    achieved = ClosedLoopTarget(
        report.dominant_zeta, report.dominant_omega_n, stage1_target.m
    )
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
