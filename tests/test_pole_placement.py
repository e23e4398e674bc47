"""Pole-placement gain synthesis and the achieved pole pattern."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracpid import (
    ClosedLoopTarget,
    DominanceWarning,
    NonPositiveGain,
    PidGains,
    Plant,
    RootTriple,
    ScenarioSpec,
    UnstableClosedLoop,
    closed_loop_characteristic,
    closed_loop_poles,
    desired_characteristic,
    m_study,
    place_gains,
    pole_placement,
    solve_cubic,
)

from cases import OSCILLATORY, gains_tuple, max_rel_err


# published gain triples for the four worked designs (kp, ki, kd)
PLACEMENT_CASES = [
    (Plant(9, 0.2, 3), ClosedLoopTarget(0.75, 7, 10), (65.6944, 285.8333, 6.8667)),
    (Plant(1, 0.2, 0.1), ClosedLoopTarget(0.98, 2, 10), (80.822, 78.400, 23.480)),
    (Plant(1, 5, 1), ClosedLoopTarget(0.75, 5, 10), (305.25, 937.5, 35.0)),
    (Plant(25, 1, 5), ClosedLoopTarget(0.75, 10, 10), (48.0, 300.0, 3.2)),
]


@pytest.mark.parametrize("plant,target,expected", PLACEMENT_CASES)
def test_place_gains_published_values(plant, target, expected):
    gains = place_gains(plant, target)
    assert max_rel_err(gains_tuple(gains), expected) <= 5e-4


def test_desired_characteristic_expansion():
    # oracle: expand (s + m z w)(s^2 + 2 z w s + w^2) with polynomial products
    target = ClosedLoopTarget(0.75, 7.0, 10.0)
    zw = target.zeta_cl * target.omega_n_cl
    oracle = np.polymul([1.0, target.m * zw], [1.0, 2.0 * zw, target.omega_n_cl**2])
    cubic = desired_characteristic(target)
    assert_allclose(cubic.coefficients(), oracle, rtol=1e-12)
    assert_allclose(cubic.coefficients(), (1.0, 63.0, 600.25, 2572.5), rtol=1e-12)


def test_desired_characteristic_triple_pole():
    cubic = desired_characteristic(ClosedLoopTarget(1.0, 1.0, 1.0))
    assert_allclose(cubic.coefficients(), (1.0, 3.0, 3.0, 1.0), rtol=0.0)


def test_desired_characteristic_roundtrip_through_solver():
    target = ClosedLoopTarget(0.934, 8.88, 10.0)
    triple = solve_cubic(desired_characteristic(target))
    zw = target.zeta_cl * target.omega_n_cl
    pair = triple.conjugate_pair()
    assert_allclose(pair[1].real, -zw, rtol=1e-9)
    assert_allclose(
        pair[1].imag, target.omega_n_cl * np.sqrt(1 - target.zeta_cl**2), rtol=1e-9
    )
    real = next(r.real for r in triple.roots if r.imag == 0)
    assert_allclose(real, -target.m * zw, rtol=1e-9)
    # display values: roots sit near -82.94 and -8.294 +/- 3.17j
    assert_allclose(real, -82.94, rtol=1e-3)
    assert_allclose(pair[1].real, -8.294, rtol=1e-3)
    assert_allclose(abs(pair[1].imag), 3.17, rtol=2e-3)


def test_closed_loop_poles_design_point():
    plant = Plant(9, 0.2, 3)
    report = closed_loop_poles(plant, PidGains(65.6944, 285.8333, 6.8667))
    assert_allclose(report.dominant_zeta, 0.75, rtol=1e-4)
    assert_allclose(report.dominant_omega_n, 7.0, rtol=1e-4)
    assert_allclose(report.real_pole, -52.5, rtol=1e-4)
    assert_allclose(report.dominance_ratio, 10.0, rtol=1e-3)


def test_closed_loop_poles_equivalent_design():
    plant = Plant(9, 0.2, 3)
    report = closed_loop_poles(plant, PidGains(120.4848, 535.8142, 8.5059))
    assert_allclose(report.dominant_zeta, 0.934, rtol=1e-3)
    assert_allclose(report.dominant_omega_n, 8.88, rtol=1e-3)


def test_closed_loop_poles_rejects_marginal_loop():
    with pytest.raises(UnstableClosedLoop):
        closed_loop_poles(Plant(1, 0.2, 0.1), PidGains(0.0, 0.0, 0.0))


def test_closed_loop_poles_rejects_nan_root(monkeypatch):
    # a NaN real part compares False against 0 either way; it is not stable
    nan_root = RootTriple((complex(math.nan, 0.0), complex(-1.0, -2.0), complex(-1.0, 2.0)))
    monkeypatch.setattr(pole_placement, "solve_cubic", lambda c: nan_root)
    with pytest.raises(UnstableClosedLoop):
        closed_loop_poles(Plant(9, 0.2, 3), PidGains(65.6944, 285.8333, 6.8667))


def test_roundtrip_property_random_designs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        plant = Plant(
            k=float(rng.uniform(0.2, 30.0)),
            zeta_ol=float(rng.uniform(0.0, 4.0)),
            omega_n_ol=float(rng.uniform(0.05, 10.0)),
        )
        target = ClosedLoopTarget(
            zeta_cl=float(rng.uniform(0.2, 0.95)),
            omega_n_cl=float(rng.uniform(0.5, 20.0)),
            m=float(rng.uniform(3.0, 15.0)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPositiveGain)
            gains = place_gains(plant, target)
        report = closed_loop_poles(plant, gains)
        assert_allclose(report.dominant_zeta, target.zeta_cl, rtol=1e-9)
        assert_allclose(report.dominant_omega_n, target.omega_n_cl, rtol=1e-9)
        assert_allclose(report.dominance_ratio, target.m, rtol=1e-9)


def test_coefficient_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        plant = Plant(
            k=float(rng.uniform(0.2, 30.0)),
            zeta_ol=float(rng.uniform(0.0, 4.0)),
            omega_n_ol=float(rng.uniform(0.05, 10.0)),
        )
        target = ClosedLoopTarget(
            zeta_cl=float(rng.uniform(0.2, 0.95)),
            omega_n_cl=float(rng.uniform(0.5, 20.0)),
            m=float(rng.uniform(3.0, 15.0)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPositiveGain)
            gains = place_gains(plant, target)
        built = closed_loop_characteristic(plant, gains).coefficients()
        wanted = desired_characteristic(target).coefficients()
        assert max_rel_err(built, wanted) <= 1e-10
        # the placement formula spelled out term by term, to the last bit
        zc, wc, m = target.zeta_cl, target.omega_n_cl, target.m
        k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
        assert gains == PidGains(
            (wc * wc * (1.0 + 2.0 * m * zc * zc) - wo * wo) / k,
            m * zc * wc**3 / k,
            ((2.0 + m) * zc * wc - 2.0 * zo * wo) / k,
        )


def test_non_positive_gain_warning():
    # target slower than the open loop drives kp negative
    with pytest.warns(NonPositiveGain):
        place_gains(Plant(1, 0.9, 5), ClosedLoopTarget(0.2, 0.1, 3))


def test_dominance_warning_threshold():
    plant = Plant(9, 0.2, 3)
    with pytest.warns(DominanceWarning):
        closed_loop_poles(plant, place_gains(plant, ClosedLoopTarget(0.75, 7, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DominanceWarning)
        closed_loop_poles(plant, place_gains(plant, ClosedLoopTarget(0.75, 7, 3.5)))


def test_type_validation():
    with pytest.raises(ValueError):
        Plant(0.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        Plant(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        Plant(1.0, 0.2, 0.0)
    with pytest.raises(ValueError):
        ClosedLoopTarget(0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        ClosedLoopTarget(1.2, 1.0, 10.0)
    with pytest.raises(ValueError):
        ClosedLoopTarget(0.5, 1.0, 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "cls,args",
    [
        (Plant, (NAN, 0.2, 3.0)),
        (Plant, (9.0, INF, 3.0)),
        (Plant, (9.0, 0.2, NAN)),
        (ClosedLoopTarget, (NAN, 7.0)),
        (ClosedLoopTarget, (0.75, INF)),
        (ClosedLoopTarget, (0.75, 7.0, INF)),
        (PidGains, (NAN, 1.0, 1.0)),
        (PidGains, (1.0, -INF, 1.0)),
        (PidGains, (1.0, 1.0, NAN)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(map(str, v)),
)
def test_non_finite_parameters_rejected(cls, args):
    with pytest.raises(ValueError, match="finite"):
        cls(*args)


def test_gains_keep_any_finite_sign():
    # destabilizing gains are representable; the loop checks reject them later
    assert PidGains(-1.0, -2.0, 0.0).ki == -2.0


# m-study uses a coarser grid than the defaults to keep the suite quick; the
# acceptance suite re-runs it at the default resolution
_STUDY_SCENARIO = ScenarioSpec(t_end=10.2, dt=2e-3)


def test_m_study_metrics_improve_and_saturate():
    records = m_study(OSCILLATORY, 0.98, 2.0, [3, 5, 10, 20], _STUDY_SCENARIO)
    assert [r.m for r in records] == [3, 5, 10, 20]
    overshoot = [r.metrics.percent_overshoot for r in records]
    rise = [r.metrics.rise_time_10_90 for r in records]
    assert overshoot[0] > overshoot[1] > overshoot[2] > overshoot[3]
    assert rise[0] > rise[1] > rise[2]
    # saturation: the 10 -> 20 step barely moves the rise time
    assert abs(rise[3] - rise[2]) / rise[2] < 0.05


def test_m_study_single_entry_matches_direct_run():
    from fracpid import metrics, simulate_closed_loop

    records = m_study(OSCILLATORY, 0.98, 2.0, [10], _STUDY_SCENARIO)
    gains = place_gains(OSCILLATORY, ClosedLoopTarget(0.98, 2.0, 10))
    trace = simulate_closed_loop(OSCILLATORY, gains, _STUDY_SCENARIO)
    direct = metrics(trace, gains, _STUDY_SCENARIO)
    assert records[0].gains == gains
    assert records[0].metrics == direct


def test_m_study_duplicates_are_deterministic():
    records = m_study(OSCILLATORY, 0.98, 2.0, [10, 10], _STUDY_SCENARIO)
    assert records[0].gains == records[1].gains
    assert records[0].metrics == records[1].metrics


def test_m_study_rejects_bad_m():
    with pytest.raises(ValueError):
        m_study(OSCILLATORY, 0.98, 2.0, [10, -1], _STUDY_SCENARIO)
