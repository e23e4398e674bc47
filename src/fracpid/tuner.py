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
import warnings
from dataclasses import dataclass

from .fractional_map import WedgeClass, _equivalent_at, _s_zero_at, classify_wedge, w_zeros
from .lqr_inverse import RiccatiPackage, delta_p_eigenvalues, riccati_package
from .pole_placement import (
    ClosedLoopTarget,
    DominanceWarning,
    PidGains,
    Plant,
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

# default stage-2 grid step; the strided search takes one such step per stride
DEFAULT_Q_STEP = 0.005

# longest q grid a sweep or the stage-2 walk may build; the benchmark's
# grids peak near 5000 points (stage 2 at q_step 0.0002)
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

    Empty when q_from < q_to. Grid values must stay inside (0, 2]; a grid
    of more than MAX_Q_POINTS points raises ValueError before it is built.
    """
    if not q_step > 0.0:
        raise ValueError("q_step must be positive")
    if q_from < q_to:
        return []
    if not (0.0 < q_to <= 2.0 and 0.0 < q_from <= 2.0):
        raise ValueError("q grid must lie inside (0, 2]")
    steps = (q_from - q_to) / q_step + 1e-9
    if steps >= MAX_Q_POINTS:
        count = int(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(f"q grid of {count} points exceeds the cap of {MAX_Q_POINTS}")
    return [q_from - i * q_step for i in range(int(steps) + 1)]


def _probe(plant: Plant, stage1_gains: PidGains, phi: float, q: float) -> MCurvePoint:
    # one M-curve point without its s-plane zero, phi the stage-1 w-plane
    # zero angle; callers ignore DominanceWarning around their whole walk, as
    # it belongs to designs
    point = MCurvePoint(q=q, wedge=classify_wedge(phi, q), stable=False)
    if point.wedge is WedgeClass.UNDER_DAMPED:
        point.equivalent_gains = _equivalent_at(stage1_gains, phi, q)
        try:
            report = closed_loop_poles(plant, point.equivalent_gains)
        except UnstableClosedLoop:
            return point
        point.stable = True
        point.dominant_zeta = report.dominant_zeta
        point.dominant_omega_n = report.dominant_omega_n
    return point


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
    points = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DominanceWarning)
        for q in q_grid(q_from, q_to, q_step):
            point = _probe(plant, stage1_gains, phi, q)
            if point.equivalent_gains is not None:
                point.s_zero = _s_zero_at(stage1_gains, phi, q)
            points.append(point)
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
    j+1, and skips i+1..j-1 only when both are clear and the damping rises
    from j to j+1; otherwise it walks i+1..j in order. It returns what a
    walk over every grid order would, unless the damping turns twice, or a
    stability pocket opens (or a probe raises), strictly inside a stride
    whose ends are clear, the far one rising. At q_step >= DEFAULT_Q_STEP
    the stride is 1 and the search is the walk.

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

    zeta_floor = desired_zeta - ZETA_SLACK
    grid = q_grid(1.0, phi / math.pi, q_step)
    stride = max(1, int(DEFAULT_Q_STEP / q_step + 1e-9))
    seen = {}

    def look(k):
        # probe grid index k once; what it raises waits until the walk reaches k
        if k not in seen:
            try:
                seen[k] = _probe(plant, stage1_gains, phi, grid[k])
            except Exception as exc:
                seen[k] = exc
        return seen[k]

    def zeta(k):
        # damping at index k while k is clear (stable, below the floor), else
        # NaN, so that every rise test on k fails
        point = look(k)
        clear = isinstance(point, MCurvePoint) and point.stable and point.dominant_zeta < zeta_floor
        return point.dominant_zeta if clear else math.nan

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DominanceWarning)
        i = stop = 0  # the walk stands at i; at stop it tries the next stride
        while i < len(grid):
            chosen = look(i)
            if isinstance(chosen, Exception):
                raise chosen
            if not chosen.stable:
                raise TargetUnreachable(
                    f"loop unstable or zeros outside the under-damped wedge "
                    f"at q={grid[i]:g} before damping {desired_zeta:g} was reached"
                )
            if chosen.dominant_zeta >= zeta_floor:
                break
            if i == stop:
                j = stop = i + stride
                if stride > 1 and j + 1 < len(grid) and zeta(j) < zeta(j + 1):
                    i = j
                    continue
            i += 1
        else:
            raise TargetUnreachable(
                f"no order on the {q_step:g} grid above phi/pi="
                f"{phi / math.pi:g} reaches damping {desired_zeta:g}"
            )
        if refine:
            for half in (0.5 * q_step, 0.25 * q_step):
                if chosen.q + half <= 1.0:
                    candidate = _probe(plant, stage1_gains, phi, chosen.q + half)
                    if candidate.stable and candidate.dominant_zeta >= zeta_floor:
                        chosen = candidate

    suboptimal_gains = chosen.equivalent_gains
    achieved = ClosedLoopTarget(
        chosen.dominant_zeta, chosen.dominant_omega_n, stage1_target.m
    )
    single_stage_gains = place_gains(plant, achieved)
    pkg_lqr = riccati_package(plant, single_stage_gains, r)
    pkg_sub = riccati_package(plant, suboptimal_gains, r)
    eigs, definite = delta_p_eigenvalues(pkg_lqr.p, pkg_sub.p)
    return TuningReport(
        stage1_gains=stage1_gains,
        chosen_q=chosen.q,
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
