"""Fractional-order sweep and the two-stage tuning procedure."""

import math

import pytest
from numpy.testing import assert_allclose

from fracpid import (
    TargetUnreachable,
    WedgeClass,
    closed_loop_poles,
    equivalent_pid,
    mcurve,
    place_gains,
    two_stage_tune,
    w_zeros,
)
from fracpid.tuner import q_grid

from cases import BENCHMARKS, gains_tuple, max_rel_err

P1 = BENCHMARKS[0]


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_q_grid_descending_inclusive():
    assert_allclose(q_grid(1.1, 0.9, 0.1), [1.1, 1.0, 0.9], rtol=1e-12)
    assert_allclose(q_grid(1.0, 1.0, 0.1), [1.0], rtol=0.0)


def test_q_grid_empty_when_reversed():
    assert q_grid(0.9, 1.1, 0.1) == []


def test_q_grid_validation():
    with pytest.raises(ValueError):
        q_grid(1.1, 0.9, 0.0)
    with pytest.raises(ValueError):
        q_grid(2.5, 0.9, 0.1)
    with pytest.raises(ValueError):
        q_grid(1.1, -0.1, 0.1)


def test_q_grid_rejects_nan_step():
    with pytest.raises(ValueError, match="q_step must be positive"):
        q_grid(1.1, 0.9, float("nan"))
    with pytest.raises(ValueError, match="q_step must be positive"):
        mcurve(P1.plant, P1.lqr_gains, 1.0, 0.8, float("nan"))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_mcurve_around_unit_order():
    gains = place_gains(P1.plant, P1.stage1)
    points = mcurve(P1.plant, gains, 1.1, 0.9, 0.1)
    assert [round(p.q, 10) for p in points] == [1.1, 1.0, 0.9]
    assert all(p.wedge is WedgeClass.UNDER_DAMPED and p.stable for p in points)

    raised, unit, lowered = points
    assert_allclose(unit.dominant_zeta, 0.75, rtol=1e-6)
    assert_allclose(unit.dominant_omega_n, 7.0, rtol=1e-6)
    assert_allclose(lowered.dominant_zeta, 0.934001, rtol=1e-5)
    assert_allclose(lowered.dominant_omega_n, 8.87916, rtol=1e-5)
    # raising the order above 1 degrades the damping sharply
    assert raised.dominant_zeta < 0.75
    assert_allclose(raised.dominant_zeta, 0.565264, rtol=1e-5)


def test_mcurve_single_point_matches_stage1():
    gains = place_gains(P1.plant, P1.stage1)
    (point,) = mcurve(P1.plant, gains, 1.0, 1.0, 0.1)
    assert max_rel_err(gains_tuple(point.equivalent_gains), gains_tuple(gains)) <= 1e-9
    assert_allclose(point.dominant_zeta, P1.stage1.zeta_cl, rtol=1e-9)


def test_mcurve_flags_flip_once_at_wedge_exit():
    gains = place_gains(P1.plant, P1.stage1)
    points = mcurve(P1.plant, gains, 1.0, 0.72, 0.01)
    stable_flags = [p.stable for p in points]
    flips = sum(1 for a, b in zip(stable_flags, stable_flags[1:]) if a != b)
    assert flips == 1
    exit_q = w_zeros(gains).phi / math.pi
    for p in points:
        if p.q > exit_q:
            assert p.wedge is WedgeClass.UNDER_DAMPED and p.stable
            assert p.dominant_zeta is not None
        else:
            assert p.wedge is WedgeClass.HYPER_DAMPED and not p.stable
            assert p.equivalent_gains is None and p.dominant_zeta is None


# ---------------------------------------------------------------------------
# two-stage procedure
# ---------------------------------------------------------------------------

def test_two_stage_underdamped_benchmark():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005)
    assert_allclose(report.chosen_q, 0.9, rtol=1e-12)
    assert_allclose(report.achieved_zeta, 0.9340007966, rtol=1e-9)
    assert_allclose(report.achieved_omega_n, 8.8791641783, rtol=1e-9)
    assert max_rel_err(
        gains_tuple(report.suboptimal_gains), gains_tuple(P1.equivalent_gains)
    ) <= 5e-3
    assert max_rel_err(
        gains_tuple(report.single_stage_gains), gains_tuple(P1.lqr_gains)
    ) <= 1e-2
    assert all(e > 0.0 for e in report.delta_p_eigs)
    assert report.cost_verdict == "lqr-higher"
    assert report.initial_control_lqr == report.single_stage_gains.kp
    assert report.initial_control_subopt == report.suboptimal_gains.kp
    assert report.initial_control_lqr > report.initial_control_subopt
    assert report.riccati_lqr.care_residual <= 1e-8
    assert report.riccati_subopt.care_residual <= 1e-8


def test_two_stage_report_consistency():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93)
    sub = closed_loop_poles(P1.plant, report.suboptimal_gains)
    assert_allclose(sub.dominant_zeta, report.achieved_zeta, rtol=1e-9)
    assert_allclose(sub.dominant_omega_n, report.achieved_omega_n, rtol=1e-9)
    comp = closed_loop_poles(P1.plant, report.single_stage_gains)
    assert_allclose(comp.dominant_zeta, report.achieved_zeta, rtol=1e-6)
    assert_allclose(comp.dominant_omega_n, report.achieved_omega_n, rtol=1e-6)


def test_two_stage_critically_damped_benchmark():
    bench = BENCHMARKS[1]
    report = two_stage_tune(bench.plant, bench.stage1, desired_zeta=0.92)
    assert_allclose(report.chosen_q, 0.9, rtol=1e-12)
    assert_allclose(report.achieved_zeta, bench.achieved[0], rtol=1e-2)
    assert_allclose(report.achieved_omega_n, bench.achieved[1], rtol=1e-2)


def test_two_stage_search_stops_at_first_grid_hit():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005)
    previous_q = report.chosen_q + 0.005
    gains_prev = equivalent_pid(place_gains(P1.plant, P1.stage1), previous_q)
    prev = closed_loop_poles(P1.plant, gains_prev)
    assert prev.dominant_zeta < 0.93


def test_two_stage_degenerate_target_stays_at_unit_order():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.75 + 1e-9)
    assert report.chosen_q == 1.0
    assert max_rel_err(
        gains_tuple(report.suboptimal_gains), gains_tuple(report.stage1_gains)
    ) <= 1e-9


def test_two_stage_refinement_tightens_the_order():
    coarse = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005)
    refined = two_stage_tune(
        P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005, refine=True
    )
    assert coarse.chosen_q < refined.chosen_q < coarse.chosen_q + 0.005
    assert refined.achieved_zeta >= 0.93 - 1e-8


def test_two_stage_unreachable_when_grid_skips_the_wedge():
    # a quarter-step grid jumps from q=1 straight past the wedge exit
    with pytest.raises(TargetUnreachable):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.99, q_step=0.25)


def test_two_stage_validates_preconditions():
    with pytest.raises(ValueError):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.5)
    with pytest.raises(ValueError):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=1.0)
    with pytest.raises(ValueError):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=-0.1)


def test_two_stage_rejects_nan_step():
    with pytest.raises(ValueError, match="q_step must be positive"):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=float("nan"))


def test_single_stage_gains_exceed_suboptimal_on_benchmarks():
    for bench in BENCHMARKS:
        report = two_stage_tune(bench.plant, bench.stage1, bench.desired_zeta)
        sub, single = report.suboptimal_gains, report.single_stage_gains
        assert single.kp > sub.kp
        assert single.ki > sub.ki
        assert single.kd > sub.kd
