"""Closed-loop simulation and step-response metrics."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fracpid import (
    ClosedLoopTarget,
    DominanceWarning,
    InvalidScenario,
    NonFiniteState,
    PidGains,
    Plant,
    ScenarioSpec,
    UnstableClosedLoop,
    default_scenario,
    metrics,
    place_gains,
    simulate_closed_loop,
)
from fracpid.cli import PRESETS
from fracpid.simulate import DISTURBANCE_FRACTION, MAX_SAMPLES

from cases import BENCHMARKS, OSCILLATORY

P1 = Plant(9, 0.2, 3)
P1_STAGE1 = PidGains(65.6944, 285.8333, 6.8667)


def expm_step_response(plant, gains, step, t_end, dt, load=0.0, k_switch=None):
    """Exact sampled solution ``(y, u)`` of the closed loop via one augmented
    matrix exponential per constant-input segment, the load stepping in at
    sample ``k_switch`` (never by default); independent oracle for the
    simulator."""
    k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
    ac = np.array(
        [
            [0.0, 1.0, 0.0],
            [-(wo**2 + k * gains.kp), -(2 * zo * wo + k * gains.kd), k * gains.ki],
            [-1.0, 0.0, 0.0],
        ]
    )
    n = int(math.floor(t_end / dt + 1e-9))
    k_switch = n if k_switch is None else k_switch
    aug = np.array([0.0, 0.0, 0.0, 1.0])
    states = np.empty((n + 1, 4))
    states[0] = aug
    for lo, hi, d in ((0, k_switch, 0.0), (k_switch, n, load)):
        m = np.zeros((4, 4))
        m[:3, :3] = ac
        m[:3, 3] = (0.0, k * (gains.kp * step + d), step)
        stepper = expm(m * dt)
        for i in range(lo, hi):
            aug = stepper @ aug
            states[i + 1] = aug
    y, ydot, zint = states[:, 0], states[:, 1], states[:, 2]
    return y, gains.kp * (step - y) + gains.ki * zint - gains.kd * ydot


def test_step_reaches_setpoint():
    scenario = ScenarioSpec(t_end=10.0 / (0.75 * 7.0), dt=1e-3)
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    assert abs(trace.y[-1] - 1.0) <= 1e-4


def test_matches_matrix_exponential_oracle():
    scenario = ScenarioSpec(t_end=20.0 / (0.75 * 7.0), dt=1e-3)
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    oracle, _ = expm_step_response(P1, P1_STAGE1, 1.0, scenario.t_end, scenario.dt)
    assert np.abs(trace.y - oracle).max() <= 1e-6


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("disturbed", [False, True], ids=["plain", "disturb"])
def test_preset_traces_match_exact_solution(preset, disturbed):
    # the scenario and gains of ``fracpid simulate --preset NAME [--disturb]``
    plant = Plant(*PRESETS[preset]["plant"])
    target = ClosedLoopTarget(*PRESETS[preset]["target"])
    gains = place_gains(plant, target)
    scenario = default_scenario(
        plant,
        target.zeta_cl,
        target.omega_n_cl,
        disturbance_amplitude=DISTURBANCE_FRACTION if disturbed else 0.0,
    )
    trace = simulate_closed_loop(plant, gains, scenario)
    load, dt = scenario.disturbance_amplitude, scenario.dt
    k_switch = round(scenario.resolved_disturbance_time() / dt) if disturbed else None
    y, u = expm_step_response(plant, gains, 1.0, scenario.t_end, dt, load, k_switch)
    assert np.abs(trace.y - y).max() <= 1e-9
    assert np.abs(trace.u - u).max() <= 1e-9 * np.abs(u).max()


def test_initial_control_equals_kp_times_step():
    scenario = ScenarioSpec(t_end=1.0, dt=1e-3, step_amplitude=2.5)
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    assert_allclose(trace.u[0], P1_STAGE1.kp * 2.5, rtol=1e-12)
    assert_allclose(trace.r, 2.5, rtol=0.0)


def test_effort_ordering_and_overlap_underdamped_benchmark():
    bench = BENCHMARKS[0]
    zeta, omega = bench.achieved
    scenario = ScenarioSpec(t_end=20.0 / (zeta * omega), dt=1e-3)
    trace_sub = simulate_closed_loop(bench.plant, bench.equivalent_gains, scenario)
    trace_lqr = simulate_closed_loop(bench.plant, bench.lqr_gains, scenario)
    m_sub = metrics(trace_sub, bench.equivalent_gains, scenario)
    m_lqr = metrics(trace_lqr, bench.lqr_gains, scenario)
    assert m_sub.initial_control < m_lqr.initial_control
    assert m_sub.peak_control < m_lqr.peak_control
    # responses nearly coincide while the control effort drops
    assert np.abs(trace_sub.y - trace_lqr.y).max() < 0.1


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
@pytest.mark.parametrize("which", ["suboptimal", "single-stage"])
def test_disturbance_rejection(bench, which):
    gains = bench.equivalent_gains if which == "suboptimal" else bench.lqr_gains
    zeta, omega = bench.achieved
    t_end = 40.0 / (zeta * omega)
    scenario = ScenarioSpec(
        t_end=t_end, dt=2e-3, disturbance_amplitude=0.5, disturbance_time=0.5 * t_end
    )
    trace = simulate_closed_loop(bench.plant, gains, scenario)
    assert abs(trace.y[-1] - 1.0) <= 0.02
    assert trace.d[0] == 0.0 and trace.d[-1] == 0.5


def test_disturbance_column_switches_on_grid():
    scenario = ScenarioSpec(
        t_end=2.0, dt=5e-3, disturbance_amplitude=0.3, disturbance_time=1.0
    )
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    switch = int(round(1.0 / 5e-3))
    assert np.all(trace.d[:switch] == 0.0)
    assert np.all(trace.d[switch:] == 0.3)


def test_destabilizing_gains_rejected_before_sampling():
    # a pole at +105.7: over 30 s the samples overflow, over 1 s they stay
    # finite (max|y| ~ 1e45) and only the poles show the loop is unstable
    bad = PidGains(-200.0, 10.0, -10.0)
    for scenario in (ScenarioSpec(t_end=30.0, dt=1e-2), ScenarioSpec(t_end=1.0, dt=1e-3)):
        with pytest.raises(UnstableClosedLoop):
            simulate_closed_loop(P1, bad, scenario)


def test_coarse_step_warning():
    with pytest.warns(InvalidScenario):
        simulate_closed_loop(P1, P1_STAGE1, ScenarioSpec(t_end=2.0, dt=0.05))


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(t_end=0.01, dt=0.1)
    with pytest.raises(ValueError):
        ScenarioSpec(t_end=1.0, dt=0.01, disturbance_time=2.0)


@pytest.mark.parametrize(
    "t_end,dt,count",
    [(1.0, 1e-12, "1000000000001"), (4e6, 1e-3, "4000000001"), (1e300, 1e-300, "inf")],
)
def test_scenario_caps_the_sample_count_before_sampling(t_end, dt, count):
    with pytest.raises(ValueError, match=f"^scenario of {count} samples exceeds the cap of {MAX_SAMPLES}$"):
        ScenarioSpec(t_end=t_end, dt=dt)


def test_overflowing_control_effort_is_a_typed_error():
    # a load of 1e307 drives the effort past the float range while the state
    # stays finite; at 1e300 the effort is finite but its square is not. The
    # suite turns warnings into errors, so numpy's RuntimeWarning would fail too.
    scenario = default_scenario(P1, 0.75, 7.0, disturbance_amplitude=1e307)
    with pytest.raises(NonFiniteState, match="^non-finite control effort at t="):
        simulate_closed_loop(P1, P1_STAGE1, scenario)
    scenario = default_scenario(P1, 0.75, 7.0, disturbance_amplitude=1e300)
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    assert np.isfinite(trace.u).all()
    overflow = r"^control effort overflows: peak 5\.30\d+e\+301, integral of squares inf$"
    with pytest.raises(NonFiniteState, match=overflow):
        metrics(trace, P1_STAGE1, scenario)


@pytest.mark.parametrize(
    "field", ["t_end", "dt", "step_amplitude", "disturbance_amplitude", "disturbance_time"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_scenario_rejects_non_finite(field, value):
    spec = {"t_end": 1.0, "dt": 0.01, field: value}
    with pytest.raises(ValueError, match="finite"):
        ScenarioSpec(**spec)


def test_default_scenario_scales():
    spec = default_scenario(OSCILLATORY, 0.98, 2.0)
    assert_allclose(spec.t_end, 20.0 / (0.98 * 2.0), rtol=1e-12)
    assert spec.dt == 1e-3  # min(1 ms, 0.01 / 0.1)
    fast = default_scenario(Plant(1.0, 0.2, 50.0), 0.8, 60.0)
    assert_allclose(fast.dt, 0.01 / 50.0, rtol=1e-12)


def test_metrics_initial_control_published_gains():
    bench = BENCHMARKS[0]
    zeta, omega = bench.achieved
    scenario = ScenarioSpec(t_end=20.0 / (zeta * omega), dt=1e-3)
    trace = simulate_closed_loop(bench.plant, bench.lqr_gains, scenario)
    m = metrics(trace, bench.lqr_gains, scenario)
    assert_allclose(m.initial_control, 160.6263, rtol=1e-6)
    trace = simulate_closed_loop(bench.plant, bench.equivalent_gains, scenario)
    m = metrics(trace, bench.equivalent_gains, scenario)
    assert_allclose(m.initial_control, 120.4848, rtol=1e-6)


def test_metrics_on_critically_damped_design():
    # dominant pair placed at unit damping; overshoot then comes only from
    # the closed-loop zero and must match the exact sampled solution
    gains = place_gains(OSCILLATORY, ClosedLoopTarget(1.0, 2.0, 10.0))
    scenario = ScenarioSpec(t_end=10.0, dt=1e-3)
    # all three poles are real, so the reported dominance is 1, below the floor
    with pytest.warns(DominanceWarning):
        trace = simulate_closed_loop(OSCILLATORY, gains, scenario)
    oracle_y, _ = expm_step_response(OSCILLATORY, gains, 1.0, scenario.t_end, scenario.dt)
    assert np.abs(trace.y - oracle_y).max() <= 1e-6
    m = metrics(trace, gains, scenario)
    oracle_overshoot = max(0.0, (oracle_y.max() - 1.0) * 100.0)
    assert_allclose(m.percent_overshoot, oracle_overshoot, rtol=1e-6)


def test_metrics_fields_consistency():
    scenario = ScenarioSpec(t_end=20.0 / (0.75 * 7.0), dt=1e-3)
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    m = metrics(trace, P1_STAGE1, scenario)
    assert m.settled
    assert m.percent_overshoot >= 0.0
    assert m.rise_time_10_90 > 0.0
    assert m.settling_time_2pct > m.rise_time_10_90
    assert m.peak_control >= m.initial_control
    assert m.iae > 0.0 and m.control_ise > 0.0


def test_metrics_window_excludes_disturbance():
    t_end = 8.0
    with_dist = ScenarioSpec(
        t_end=t_end, dt=1e-3, disturbance_amplitude=0.5, disturbance_time=4.0
    )
    without = ScenarioSpec(t_end=4.0, dt=1e-3)
    m_with = metrics(
        simulate_closed_loop(P1, P1_STAGE1, with_dist), P1_STAGE1, with_dist
    )
    m_without = metrics(
        simulate_closed_loop(P1, P1_STAGE1, without), P1_STAGE1, without
    )
    assert_allclose(m_with.percent_overshoot, m_without.percent_overshoot, rtol=1e-9)
    assert_allclose(m_with.rise_time_10_90, m_without.rise_time_10_90, rtol=1e-9)


def test_metrics_stable_under_step_halving():
    zeta, omega = BENCHMARKS[0].achieved
    base = ScenarioSpec(t_end=20.0 / (zeta * omega), dt=2e-3)
    fine = ScenarioSpec(t_end=base.t_end, dt=1e-3)
    gains = BENCHMARKS[0].equivalent_gains
    m_base = metrics(simulate_closed_loop(P1, gains, base), gains, base)
    m_fine = metrics(simulate_closed_loop(P1, gains, fine), gains, fine)
    assert abs(m_base.percent_overshoot - m_fine.percent_overshoot) <= 1e-4 * max(
        1.0, m_fine.percent_overshoot
    )
    assert abs(m_base.iae - m_fine.iae) <= 1e-4 * m_fine.iae


def test_metrics_handle_downward_step():
    scenario = ScenarioSpec(t_end=3.0, dt=1e-3, step_amplitude=-2.0)
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    m = metrics(trace, P1_STAGE1, scenario)
    up = ScenarioSpec(t_end=3.0, dt=1e-3, step_amplitude=2.0)
    m_up = metrics(simulate_closed_loop(P1, P1_STAGE1, up), P1_STAGE1, up)
    # the loop is linear: normalized metrics match the upward run exactly
    assert_allclose(m.percent_overshoot, m_up.percent_overshoot, rtol=1e-12)
    assert_allclose(m.rise_time_10_90, m_up.rise_time_10_90, rtol=1e-12)
    assert_allclose(m.initial_control, -m_up.initial_control, rtol=1e-12)


def test_metrics_reject_zero_step():
    scenario = ScenarioSpec(t_end=1.0, dt=1e-3, step_amplitude=0.0)
    trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    with pytest.raises(ValueError):
        metrics(trace, P1_STAGE1, scenario)


def test_not_settled_flag():
    # a horizon shorter than the settling transient leaves the band unmet
    scenario = ScenarioSpec(t_end=0.05, dt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InvalidScenario)
        trace = simulate_closed_loop(P1, P1_STAGE1, scenario)
    m = metrics(trace, P1_STAGE1, scenario)
    assert not m.settled
    assert math.isnan(m.settling_time_2pct)
