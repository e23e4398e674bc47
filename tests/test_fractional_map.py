"""Conformal s/w-plane mapping of the controller zeros."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracpid import (
    OutsideWedge,
    PidGains,
    RealZeros,
    WedgeClass,
    classify_wedge,
    equivalent_pid,
    place_gains,
    s_zeros,
    w_zeros,
)

from cases import BENCHMARKS, gains_tuple, max_rel_err

P1_STAGE1 = PidGains(65.6944, 285.8333, 6.8667)


def quadratic_roots(kd, kp, ki):
    """Root oracle for kd*x^2 + kp*x + ki, upper root first."""
    roots = sorted(np.roots([kd, kp, ki]), key=lambda z: -z.imag)
    return roots[0], roots[1]


# ---------------------------------------------------------------------------
# w-plane zeros
# ---------------------------------------------------------------------------

def test_w_zeros_against_quadratic_oracle():
    wz = w_zeros(P1_STAGE1)
    upper, lower = quadratic_roots(P1_STAGE1.kd, P1_STAGE1.kp, P1_STAGE1.ki)
    assert abs(wz.w1 - upper) <= 1e-9 * abs(upper)
    assert abs(wz.w2 - lower) <= 1e-9 * abs(lower)
    assert_allclose(wz.r, abs(upper), rtol=1e-9)
    assert_allclose(wz.phi, cmath.phase(upper), rtol=1e-9)
    # display values
    assert_allclose(wz.r, 6.452, rtol=1e-3)
    assert_allclose(wz.phi, 2.406, rtol=1e-3)


def test_w_zeros_polar_invariants():
    wz = w_zeros(P1_STAGE1)
    assert wz.w2 == wz.w1.conjugate()
    assert_allclose(wz.r, math.sqrt(P1_STAGE1.ki / P1_STAGE1.kd), rtol=1e-12)
    assert_allclose(
        wz.r * math.cos(wz.phi), -P1_STAGE1.kp / (2 * P1_STAGE1.kd), rtol=1e-12
    )
    assert 0.0 < wz.phi <= math.pi


def test_w_zeros_boundary_discriminant():
    with pytest.raises(RealZeros):
        w_zeros(PidGains(2.0, 1.0, 1.0))  # kp^2 == 4 ki kd


def test_w_zeros_requires_positive_ki_kd():
    with pytest.raises(ValueError):
        w_zeros(PidGains(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        w_zeros(PidGains(1.0, 1.0, 0.0))


def test_w_zeros_vanishing_kp_limit():
    wz = w_zeros(PidGains(1e-12, 1.0, 1.0))
    assert wz.phi > math.pi / 2
    assert_allclose(wz.phi, math.pi / 2, atol=1e-12)
    assert_allclose(wz.r, 1.0, rtol=1e-12)


def test_w_zeros_negative_kp_first_quadrant():
    # negative proportional gain puts the zero in the first quadrant; the
    # two-argument angle form keeps working
    wz = w_zeros(PidGains(-1.0, 1.0, 1.0))
    assert 0.0 < wz.phi < math.pi / 2


# ---------------------------------------------------------------------------
# wedge classification
# ---------------------------------------------------------------------------

def test_classify_wedge_regions():
    assert classify_wedge(2.406, 0.9) is WedgeClass.UNDER_DAMPED
    assert classify_wedge(1.0, 0.9) is WedgeClass.UNSTABLE
    assert classify_wedge(3.0, 0.9) is WedgeClass.HYPER_DAMPED


def test_classify_wedge_boundaries_are_conservative():
    q = 0.8
    assert classify_wedge(math.pi * q / 2, q) is WedgeClass.UNSTABLE
    assert classify_wedge(math.pi * q, q) is WedgeClass.ULTRA_DAMPED


def test_classify_wedge_validation():
    with pytest.raises(ValueError):
        classify_wedge(0.0, 0.9)
    with pytest.raises(ValueError):
        classify_wedge(4.0, 0.9)
    with pytest.raises(ValueError):
        classify_wedge(1.0, 0.0)
    with pytest.raises(ValueError):
        classify_wedge(1.0, 2.5)


# ---------------------------------------------------------------------------
# mapped s-plane zeros
# ---------------------------------------------------------------------------

def test_s_zeros_identity_at_unit_order():
    upper, lower = s_zeros(P1_STAGE1, 1.0)
    want_upper, want_lower = quadratic_roots(P1_STAGE1.kd, P1_STAGE1.kp, P1_STAGE1.ki)
    assert abs(upper - want_upper) <= 1e-9 * abs(want_upper)
    assert abs(lower - want_lower) <= 1e-9 * abs(want_lower)


def test_s_zeros_at_benchmark_order():
    # frozen from the mapping formulas; cross-checked against the roots of
    # the published equivalent-gain quadratic
    upper, _ = s_zeros(P1_STAGE1, 0.9)
    assert_allclose(upper.real, -7.0824633, rtol=1e-4)
    assert_allclose(upper.imag, 3.5822245, rtol=1e-4)
    published_upper, _ = quadratic_roots(8.5059, 120.4848, 535.8142)
    assert abs(upper - published_upper) <= 1e-4 * abs(published_upper)


def test_s_zeros_conjugate_with_negative_real_part():
    upper, lower = s_zeros(P1_STAGE1, 0.9)
    assert lower == upper.conjugate()
    assert upper.real < 0.0


def test_s_zeros_outside_wedge():
    # below the wedge-exit order the zeros would be hyper-damped
    with pytest.raises(OutsideWedge):
        s_zeros(P1_STAGE1, 0.7)


def test_s_zeros_low_order_boundary_limit():
    # zero angle just above the unstable boundary at q = 0.5 maps close to
    # the imaginary axis: damping collapses toward zero
    phi_target = math.pi / 4 + 0.01
    span = math.tan(phi_target)
    kikd = (span * span + 1.0) / 4.0
    gains = PidGains(-1.0, math.sqrt(kikd), math.sqrt(kikd))
    upper, _ = s_zeros(gains, 0.5)
    damping = -upper.real / abs(upper)
    assert upper.real < 0.0
    assert damping < 0.05


# ---------------------------------------------------------------------------
# equivalent integer-order gains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_equivalent_pid_published_values(bench):
    got = equivalent_pid(bench.stage1_gains, 0.9)
    assert max_rel_err(gains_tuple(got), gains_tuple(bench.equivalent_gains)) <= 5e-3


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_equivalent_pid_identity_at_unit_order(bench):
    got = equivalent_pid(bench.stage1_gains, 1.0)
    assert max_rel_err(gains_tuple(got), gains_tuple(bench.stage1_gains)) <= 1e-9


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_equivalent_pid_zero_roundtrip(bench):
    for q in (1.0, 0.97, 0.93, 0.9, 0.85):
        ghat = equivalent_pid(bench.stage1_gains, q)
        mapped_upper, _ = s_zeros(bench.stage1_gains, q)
        root_upper, _ = quadratic_roots(ghat.kd, ghat.kp, ghat.ki)
        assert abs(root_upper - mapped_upper) <= 1e-9 * abs(mapped_upper)


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_equivalent_pid_positive_inside_wedge(bench):
    from fracpid import w_zeros as wz_fn

    phi = wz_fn(bench.stage1_gains).phi
    for q in np.arange(1.3, phi / math.pi + 0.01, -0.01):
        q = float(q)
        if classify_wedge(phi, q) is not WedgeClass.UNDER_DAMPED:
            continue
        ghat = equivalent_pid(bench.stage1_gains, q)
        assert ghat.kp > 0.0 and ghat.ki > 0.0 and ghat.kd > 0.0


def test_equivalent_pid_outside_wedge():
    with pytest.raises(OutsideWedge):
        equivalent_pid(P1_STAGE1, 0.7)


@pytest.mark.parametrize("q", [0.6, 0.7])
def test_equivalent_pid_overflow_names_the_order(q):
    # at 0.6 ki**(1/q) overflows the float range, at 0.7 ki*kd overflows to inf;
    # both gains are finite, so "gains must be finite" would blame the input
    gains = PidGains(1e3, 1e200, 1e200)
    assert classify_wedge(w_zeros(gains).phi, q) is WedgeClass.UNDER_DAMPED
    with pytest.raises(ValueError, match=f"overflow at q={q:g}$"):
        equivalent_pid(gains, q)


@st.composite
def _gains_inside_the_wedge(draw):
    """Positive gains with complex w-plane zeros, and an order q strictly
    inside their under-damped wedge phi/pi < q < 2 phi/pi."""
    ki, kd = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    # kp below 2 sqrt(ki kd) keeps the zeros complex; 1 % margins keep the
    # mapped pair off the double root and the identity off a vanishing kp
    kp = 2.0 * math.sqrt(ki * kd) * draw(st.floats(0.01, 0.99))
    gains = PidGains(kp, ki, kd)
    phi = w_zeros(gains).phi
    return gains, (1.0 + draw(st.floats(0.01, 0.99))) * phi / math.pi


@settings(max_examples=300, deadline=None)
@given(_gains_inside_the_wedge())
def test_equivalent_pid_zeros_are_the_mapped_zeros(case):
    gains, q = case
    ghat = equivalent_pid(gains, q)
    assert ghat.kp > 0.0 and ghat.ki > 0.0 and ghat.kd > 0.0
    mapped_upper, mapped_lower = s_zeros(gains, q)
    root_upper, root_lower = quadratic_roots(ghat.kd, ghat.kp, ghat.ki)
    assert abs(root_upper - mapped_upper) <= 1e-9 * abs(mapped_upper)
    assert abs(root_lower - mapped_lower) <= 1e-9 * abs(mapped_lower)


@settings(max_examples=300, deadline=None)
@given(_gains_inside_the_wedge())
def test_equivalent_pid_is_the_identity_at_unit_order_for_any_gains(case):
    gains, _ = case
    assert max_rel_err(gains_tuple(equivalent_pid(gains, 1.0)), gains_tuple(gains)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(_gains_inside_the_wedge())
def test_equivalent_pid_rejects_both_wedge_boundaries(case):
    gains, _ = case
    phi = w_zeros(gains).phi
    lower, upper = phi / math.pi, 2.0 * phi / math.pi
    # classify_wedge compares phi with the rounded pi*q, which for ~7 % of
    # angles puts the float phi/pi (or 2 phi/pi) one ulp inside the wedge;
    # one ulp further out is the boundary as the classifier reads it
    if math.pi * lower > phi:
        lower = math.nextafter(lower, 0.0)
    if math.pi * upper / 2.0 < phi:
        upper = math.nextafter(upper, 2.0)
    for q in (lower, upper):
        with pytest.raises(OutsideWedge):
            equivalent_pid(gains, q)


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_zero_angle_tightens_as_order_drops(bench):
    # the mapped zeros swing toward the negative real axis as q decreases
    angles = []
    for q in (1.0, 0.95, 0.9):
        upper, _ = s_zeros(bench.stage1_gains, q)
        angles.append(math.pi - abs(cmath.phase(upper)))
    assert angles[0] > angles[1] > angles[2]


def test_stage1_gains_of_benchmarks_have_complex_zeros():
    for bench in BENCHMARKS:
        gains = place_gains(bench.plant, bench.stage1)
        assert gains.kp**2 < 4.0 * gains.ki * gains.kd
