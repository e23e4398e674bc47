"""Pole-placement gain synthesis and the achieved pole pattern."""

import math
import re
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
from frozen_solver import frozen_dominant_reading, frozen_solve_cubic


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


def test_desired_characteristic_of_a_huge_frequency_is_a_value_error():
    # (1e150)**3 overflows the float range; wc**3 raises OverflowError itself
    target = ClosedLoopTarget(0.75, 1e150, 10.0)
    message = re.escape("target frequency omega_n_cl=1e+150 is too large: its cube overflows")
    with pytest.raises(ValueError, match=message) as caught:
        desired_characteristic(target)
    assert not isinstance(caught.value, OverflowError)
    with pytest.raises(ValueError, match=message):
        place_gains(Plant(9, 0.2, 3), target)
    # just inside the range every coefficient keeps the bits of wc**3
    wc = 1e100
    cubic = desired_characteristic(ClosedLoopTarget(0.75, wc, 10.0))
    assert cubic.a0 == 10.0 * 0.75 * wc**3


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


# sorted root triples with the patterns the dominant-pole reading tells apart
EDGE_TRIPLES = {
    "pair slower than the real pole": ((-2 - 3j), (-2 + 3j), (-9 + 0j)),
    "pair faster than the real pole": ((-1 + 0j), (-4 - 1j), (-4 + 1j)),
    "pair tying the real pole's |Re|": ((-1 - 1j), (-1 + 0j), (-1 + 1j)),
    "all real": ((-1 + 0j), (-2 + 0j), (-3 + 0j)),
    "repeated real": ((-1 + 0j), (-1 + 0j), (-3 + 0j)),
    "repeated real, faster": ((-1 + 0j), (-3 + 0j), (-3 + 0j)),
    "triple": ((-2 + 0j), (-2 + 0j), (-2 + 0j)),
    "collapsed pair with signed zeros": (complex(-1, -0.0), complex(-1, 0.0), (-5 + 0j)),
}


def _report(plant, gains):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DominanceWarning)
        r = closed_loop_poles(plant, gains)
    return r.dominant_zeta, r.dominant_omega_n, r.real_pole, r.dominance_ratio


@pytest.mark.parametrize("name", EDGE_TRIPLES)
def test_dominant_reading_matches_the_conjugate_pair_reading(name, monkeypatch):
    roots = EDGE_TRIPLES[name]
    monkeypatch.setattr(pole_placement, "solve_cubic", lambda c: RootTriple(roots))
    got = _report(Plant(9, 0.2, 3), PidGains(65.6944, 285.8333, 6.8667))
    assert got == frozen_dominant_reading(roots)


# plant 1/(s^2 + s + 1): kd = a2 - 1, kp = a1 - 1, ki = a0 for a monic
# closed loop s^3 + a2 s^2 + a1 s + a0
@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, 6.0, 11.0, 6.0),  # (s+1)(s+2)(s+3)
        (1.0, 5.0, 7.0, 3.0),  # (s+1)^2 (s+3)
        (1.0, 6.0, 12.0, 8.0),  # (s+2)^3
        (1.0, 3.0, 4.0, 2.0),  # (s+1)(s^2+2s+2): pair and real pole share |Re|
        (1.0, 10.0, 29.0, 100.0),
    ],
)
def test_closed_loop_poles_of_edge_cubics_match_the_frozen_pipeline(coeffs):
    _, a2, a1, a0 = coeffs
    got = _report(Plant(1.0, 0.5, 1.0), PidGains(a1 - 1.0, a0, a2 - 1.0))
    assert got == frozen_dominant_reading(frozen_solve_cubic(*coeffs))


def test_closed_loop_poles_under_a_huge_derivative_gain():
    # kd = 1e20 puts the real pole near -9e20 and the dominant pair near
    # 1e-10: the cubic is solved rescaled, and the pair keeps its own digits.
    # Dividing (s + R) out of s^3 + a2 s^2 + a1 s + a0 leaves
    # s^2 + b s + g with g = a0 / R and b = (a1 - g) / R.
    a2, a1, a0 = 0.4 * 3.0 + 9.0 * 1e20, 9.0 + 9.0 * 1.0, 9.0 * 1.0
    rep = closed_loop_poles(Plant(9.0, 0.2, 3.0), PidGains(1.0, 1.0, 1e20))
    real = a2  # R = a2 - b, and b ~ 2e-20
    g = a0 / real
    b = (a1 - g) / real
    assert rep.real_pole == pytest.approx(-real, rel=1e-12)
    assert rep.dominant_omega_n == pytest.approx(math.sqrt(g), rel=1e-12)
    assert rep.dominant_zeta == pytest.approx(b / (2.0 * math.sqrt(g)), rel=1e-9)


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
