"""Cubic solver, symmetric eigenvalues, and exact fixed-step sampler."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fracpid import (
    Cubic,
    DegenerateLeadingCoefficient,
    NonFiniteState,
    Sym3,
    eig_sym3,
    integrate_fixed_step,
    solve_cubic,
)

from cases import P_HIGH_PUBLISHED, P_LOW_PUBLISHED, DELTA_EIGS_ORACLE


def sorted_np_roots(coeffs):
    """Companion-matrix root oracle with the package's sort order."""
    roots = np.roots(coeffs)
    return sorted(roots, key=lambda z: (abs(z.real), z.imag))


# ---------------------------------------------------------------------------
# solve_cubic
# ---------------------------------------------------------------------------

def test_cubic_factored_construction():
    triple = solve_cubic(Cubic(1, 6, 11, 6))
    assert_allclose([r.real for r in triple.roots], [-1, -2, -3], atol=1e-12)
    assert all(r.imag == 0 for r in triple.roots)


def test_cubic_repeated_root():
    triple = solve_cubic(Cubic(1, 3, 3, 1))
    assert_allclose([r.real for r in triple.roots], [-1, -1, -1], atol=1e-9)


def test_cubic_benchmark_characteristic():
    # closed-loop characteristic of the underdamped benchmark's equivalent
    # controller; expectations frozen from the companion-matrix oracle
    triple = solve_cubic(Cubic(1, 77.753, 1093.36, 4822.33))
    expected = [
        complex(-8.293058699604753, -3.1723936774198083),
        complex(-8.293058699604753, 3.1723936774198083),
        complex(-61.1668826007905, 0.0),
    ]
    for got, want in zip(triple.roots, expected):
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
    # dominant pair corresponds to zeta=0.934, omega_n=8.88
    dom = triple.roots[1]
    assert_allclose(-dom.real / abs(dom), 0.934, rtol=5e-4)
    assert_allclose(abs(dom), 8.88, rtol=5e-4)


def test_cubic_residual_bound():
    c = Cubic(1, 77.753, 1093.36, 4822.33)
    scale = max(abs(v) for v in c.coefficients())
    for root in solve_cubic(c).roots:
        assert abs(c(root)) <= 1e-9 * scale


def test_cubic_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_cubic(Cubic(1e-16, 1.0, 2.0, 3.0))
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_cubic(Cubic(0.0, 1.0, 2.0, 3.0))


def test_cubic_sorting_and_conjugate_pairing():
    triple = solve_cubic(Cubic(1.0, 10.0, 29.0, 100.0))  # roots -10, ~(0 +/- 3j)-ish
    magnitudes = [abs(r.real) for r in triple.roots]
    assert magnitudes == sorted(magnitudes)
    pair = triple.conjugate_pair()
    assert pair is not None
    assert pair[0] == pair[1].conjugate()
    assert pair[0].imag + pair[1].imag == 0.0


def _random_stable_cubic(rng):
    """Monic cubic with all roots in the open left half plane."""
    if rng.random() < 0.5:
        re = -rng.uniform(0.05, 50.0)
        im = rng.uniform(0.05, 50.0)
        real = -rng.uniform(0.05, 80.0)
        roots = [complex(re, im), complex(re, -im), complex(real, 0.0)]
    else:
        roots = [complex(-rng.uniform(0.05, 80.0), 0.0) for _ in range(3)]
    coeffs = np.real(np.poly(roots))
    return Cubic(*coeffs), roots


def test_cubic_vs_companion_matrix_oracle():
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        cubic, _ = _random_stable_cubic(rng)
        ours = solve_cubic(cubic).roots
        oracle = sorted_np_roots(cubic.coefficients())
        for got, want in zip(ours, oracle):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_cubic_near_collapse_regression():
    # nearly repeated pair next to a far-off third root; the branch
    # discriminant cancels catastrophically here and deflation must hold
    roots = [-68.01146110603337, -68.01146720847196, -576.7387269287435]
    cubic = Cubic(*np.real(np.poly(roots)))
    for got in solve_cubic(cubic).roots:
        assert min(abs(got - t) for t in roots) <= 1e-7 * abs(got)


def test_cubic_hostile_scales_stay_close_to_true_roots():
    rng = np.random.default_rng(555)
    for _ in range(2000):
        kind = rng.integers(0, 4)
        s = 10.0 ** rng.uniform(-5, 5)
        if kind == 0:
            roots = [complex(-s * 10.0 ** rng.uniform(-2, 2), 0) for _ in range(3)]
        elif kind == 1:
            re = -s * 10.0 ** rng.uniform(-2, 2)
            im = s * 10.0 ** rng.uniform(-2, 2)
            roots = [complex(re, im), complex(re, -im),
                     complex(-s * 10.0 ** rng.uniform(-2, 2), 0)]
        elif kind == 2:
            a = -s
            roots = [complex(a, 0), complex(a * (1 + 10.0 ** rng.uniform(-8, -3)), 0),
                     complex(-s * rng.uniform(0.1, 10.0), 0)]
        else:
            re = -s
            im = s * 10.0 ** rng.uniform(-8, -3)
            roots = [complex(re, im), complex(re, -im),
                     complex(-s * rng.uniform(0.1, 10.0), 0)]
        coeffs = np.real(np.poly(roots)) * 10.0 ** rng.uniform(-3, 3)
        try:
            got = solve_cubic(Cubic(*coeffs)).roots
        except DegenerateLeadingCoefficient:
            continue  # extreme products legitimately trip the leading check
        for g in got:
            # nearly repeated roots are ill-conditioned; 1e-6 covers the
            # intrinsic square-root-of-eps split uncertainty with margin
            assert min(abs(g - t) for t in roots) <= 1e-6 * max(1.0, abs(g))


def test_cubic_sum_product_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a2, a1, a0 = rng.uniform(-20, 20, size=3)
        if abs(a0) < 1e-3:
            a0 += 1.0
        c = Cubic(1.0, a2, a1, a0)
        roots = solve_cubic(c).roots
        total = sum(roots)
        prod = roots[0] * roots[1] * roots[2]
        assert abs(total - (-a2)) <= 1e-8 * max(1.0, abs(a2))
        assert abs(prod - (-a0)) <= 1e-8 * max(1.0, abs(a0))


# ---------------------------------------------------------------------------
# eig_sym3
# ---------------------------------------------------------------------------

def test_eig_diagonal():
    values = eig_sym3(Sym3(1, 0, 0, 2, 0, 3))
    assert_allclose(values, (1, 2, 3), atol=1e-14)


def test_eig_published_riccati_difference():
    delta = Sym3.from_matrix(P_HIGH_PUBLISHED - P_LOW_PUBLISHED)
    values = eig_sym3(delta)
    assert_allclose(values, DELTA_EIGS_ORACLE, rtol=1e-8)


def test_eig_vs_characteristic_cubic_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = rng.uniform(-5, 5, size=(3, 3))
        m = m + m.T
        sym = Sym3.from_matrix(m)
        values = eig_sym3(sym)
        # oracle: roots of the characteristic polynomial det(lambda I - M),
        # through both the package solver and the companion matrix
        coeffs = np.real(np.poly(m))
        oracle = sorted(r.real for r in np.roots(coeffs))
        assert_allclose(values, oracle, rtol=1e-8, atol=1e-10)
        own_solver = sorted(r.real for r in solve_cubic(Cubic(*coeffs)).roots)
        assert_allclose(values, own_solver, rtol=1e-8, atol=1e-10)


def test_eig_trace_determinant_invariants():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.uniform(-5, 5, size=(3, 3))
        m = m + m.T
        values = eig_sym3(Sym3.from_matrix(m))
        assert_allclose(sum(values), np.trace(m), rtol=1e-10, atol=1e-12)
        det = np.linalg.det(m)
        assert abs(values[0] * values[1] * values[2] - det) <= 1e-8 * max(1.0, abs(det))


def test_sym3_from_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        Sym3.from_matrix(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]]))


# ---------------------------------------------------------------------------
# integrate_fixed_step
# ---------------------------------------------------------------------------

def test_integrate_constant():
    t, states = integrate_fixed_step([[0.0]], [0.0], [1.0], 1.0, 0.1)
    assert states.shape == (11, 1)
    assert_allclose(states[:, 0], 1.0, atol=0.0)


def test_integrate_exponential_decay():
    _, states = integrate_fixed_step([[-1.0]], [0.0], [1.0], 1.0, 1e-3)
    assert abs(states[-1, 0] - math.exp(-1.0)) <= 1e-12


def test_integrate_is_exact_at_coarse_steps():
    # a fourth-order one-step method at this step is off by ~3e-7; exact
    # sampling of x' = -x + 1 is not
    t, states = integrate_fixed_step([[-1.0]], [1.0], [0.0], 5.0, 0.1)
    assert len(t) == 51
    assert np.abs(states[:, 0] - (1.0 - np.exp(-t))).max() <= 1e-13


def test_integrate_matches_matrix_exponential():
    # regulator-state closed loop of the oscillatory plant under the
    # high-damping feedback gains
    k, zo, wo = 1.0, 0.2, 0.1
    ki, kp, kd = 78.400, 80.822, 23.480
    a = np.array([[0, 1, 0], [0, 0, 1], [0, -wo**2, -2 * zo * wo]])
    b = np.array([0, 0, -k])
    # feedback u = -(ki, kp, kd) . x closes the loop as a + b (ki, kp, kd)
    ac = a + np.outer(b, np.array([ki, kp, kd]))
    x0 = np.array([0.0, 1.0, 0.0])
    dt, t_end = 1e-3, 2.0

    t, states = integrate_fixed_step(ac, np.zeros(3), x0, t_end, dt)
    step_matrix = expm(ac * dt)
    x = x0.copy()
    worst = 0.0
    for row in states[1:]:
        x = step_matrix @ x
        worst = max(worst, float(np.abs(row - x).max()))
    assert worst <= 1e-12


def test_integrate_nonfinite_state():
    with pytest.raises(NonFiniteState):
        integrate_fixed_step([[100.0]], [0.0], [1.0], 20.0, 0.01)


def test_integrate_rejects_bad_steps():
    with pytest.raises(ValueError):
        integrate_fixed_step([[-1.0]], [0.0], [1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_fixed_step([[-1.0]], [0.0], [1.0], 0.05, 0.1)


def test_integrate_trajectory_length():
    t, states = integrate_fixed_step([[-1.0]], [0.0], [1.0], 0.55, 0.1)
    assert len(t) == 6 and states.shape[0] == 6
    assert_allclose(t, np.arange(6) * 0.1)
