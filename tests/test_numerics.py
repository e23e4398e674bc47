"""Cubic solver, symmetric eigenvalues, and exact fixed-step sampler."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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

from fracpid import numerics
from cases import P_HIGH_PUBLISHED, P_LOW_PUBLISHED, DELTA_EIGS_ORACLE, true_cubic_roots
from frozen_solver import FrozenDegenerate, frozen_solve_cubic


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
    with pytest.raises(DegenerateLeadingCoefficient, match="is zero"):
        solve_cubic(Cubic(0.0, 1.0, 2.0, 3.0))
    # a small leading coefficient is a large root, not a degenerate cubic:
    # -1 +- 1.414j beside a root near -1e16
    got = solve_cubic(Cubic(1e-16, 1.0, 2.0, 3.0)).roots
    for t, _ in true_cubic_roots((1e-16, 1.0, 2.0, 3.0)):
        assert min(abs(g - t) for g in got) <= 1e-14 * abs(t)


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
# solve_cubic against its frozen earlier copy, and at hostile scales
# ---------------------------------------------------------------------------

def _magnitude(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _signed(magnitude):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(lambda t: t[0] * t[1])


_ROOT = _signed(_magnitude(-6, 6))
_SPLIT = _magnitude(-12, -3)  # relative gap of a nearly repeated root


@st.composite
def _window_cubics(draw):
    """Coefficients of cubics whose largest root lies well inside the
    unscaled window: both branches, near-repeated roots and exact triple
    roots, scaled by 1e+-12, and raw coefficients within 1e+-9 (ratios below
    2**63, so their largest root lies inside too)."""
    kind = draw(st.sampled_from(("real", "pair", "near-real", "near-pair", "triple", "raw")))
    if kind == "raw":
        coeffs = [draw(_signed(_magnitude(-9, 9)))]
        coeffs += [draw(st.one_of(st.just(0.0), _signed(_magnitude(-9, 9)))) for _ in range(3)]
        return coeffs
    if kind == "triple":
        # exact in binary, so p == q == 0 is reachable
        r = draw(st.integers(-4096, 4096)) / 64.0
        return [1.0, -3.0 * r, 3.0 * r * r, -r * r * r]
    a, b = draw(_ROOT), draw(_ROOT)
    if kind == "real":
        roots = [a, b, draw(_ROOT)]
    elif kind == "pair":
        roots = [complex(a, b), complex(a, -b), draw(_ROOT)]
    elif kind == "near-real":
        roots = [a, a * (1.0 + draw(_SPLIT)), b]
    else:
        im = abs(a) * draw(_SPLIT)
        roots = [complex(a, im), complex(a, -im), b]
    scale = draw(_signed(_magnitude(-12, 12)))
    return [float(x) for x in np.real(np.poly(roots)) * scale]


def _spread(roots):
    # the largest root's magnitude over the smallest's
    big, small = max(map(abs, roots)), min(map(abs, roots))
    return big / small if small else math.inf if big else 1.0


def _assert_normwise(coeffs, got):
    # every root within 1e-6 of the largest one's magnitude of a root of the
    # companion matrix, and every root of it as close to one of ours
    want = np.roots(coeffs)
    tol = 1e-6 * max(abs(want))
    for g in got:
        assert min(abs(g - want)) <= tol, (coeffs, got, want)
    for w in want:
        assert min(abs(g - w) for g in got) <= tol, (coeffs, got, want)


def _assert_own_digits(coeffs, got):
    """Each root an exact root of a cubic within 1e-12 of the given one,
    coefficient by coefficient; and where a true root's condition number is
    at most 1e6, it and our nearest root lie within 1e-6 of its magnitude.

    A cluster of roots is too ill-conditioned for a forward bound: for
    (s + 1e5)^2 (s + 100010), whose roots all have condition numbers above
    8e8, numpy's roots are 7e-7 of their magnitude off."""
    true = true_cubic_roots(coeffs)
    with mpmath.workdps(40):
        for g in got:
            z = mpmath.mpc(g.real, g.imag)
            residual = abs(sum(mpmath.mpf(a) * z ** (3 - k) for k, a in enumerate(coeffs)))
            size = sum(abs(a) * abs(z) ** (3 - k) for k, a in enumerate(coeffs))
            assert residual <= 1e-12 * size, (coeffs, got)
            t, kappa = min(true, key=lambda tk: abs(g - tk[0]))
            assert kappa > 1e6 or abs(g - t) <= 1e-6 * abs(t), (coeffs, got, true)
    for t, kappa in true:
        assert kappa > 1e6 or min(abs(g - t) for g in got) <= 1e-6 * abs(t), (coeffs, got, true)


@settings(max_examples=400, deadline=None)
@given(_window_cubics())
@example([1.0, 6.0, 11.0, 6.0])  # three real roots: trigonometric branch
@example([1.0, 10.0, 29.0, 100.0])  # a conjugate pair: Cardano branch
@example([1.0, -3.0, 3.0, -1.0])  # exact triple root
@example(list(np.real(np.poly([-68.01146110603337, -68.01146720847196, -576.7387269287435]))))
@example([1e-16, 1.0, 2.0, 3.0])  # the frozen solver's "negligible" leading coefficient
@example([1.0, 3.0, 3.0, 1e-200])  # roots of very different size: the largest
@example([1.0, 1.0, 1.0, 1e-300])  # root sets the scale, so these stay unscaled
@example([-1.0, -300010.0, -3.0002e10, -1.0001e15])  # -(s + 1e5)^2 (s + 100010)
def test_cubic_inside_the_window_is_bit_identical_to_the_frozen_solver(coeffs):
    # bit for bit where the frozen solver solves and the roots span at most
    # 2**20; beyond that the smaller roots are taken again from the largest,
    # and each keeps the digits of its own magnitude
    assert numerics._rescale_exponent(*coeffs, max(map(abs, coeffs))) == 0
    got = solve_cubic(Cubic(*coeffs)).roots
    try:
        frozen = frozen_solve_cubic(*coeffs)
    except FrozenDegenerate:
        frozen = None
    if frozen is not None and _spread(frozen) <= 2.0**20:
        assert got == frozen
    else:
        _assert_own_digits(coeffs, got)


_HOSTILE = _signed(_magnitude(-150, 150))


def _near_a_root(coeffs, z, rel, floor):
    """Whether a root of the cubic lies within ``rel*|z| + floor`` of z.

    Exact rational arithmetic: since f'/f = sum 1/(z - r) over the roots r,
    the nearest root is at most 3 |f(z) / f'(z)| away from z.
    """
    x, y = Fraction(z.real), Fraction(z.imag)
    fr = fi = dr = di = Fraction(0)
    for a in coeffs:  # Horner for f and f' together
        dr, di = dr * x - di * y + fr, dr * y + di * x + fi
        fr, fi = fr * x - fi * y + Fraction(a), fr * y + fi * x
    # 9 |f|^2 <= (rel^2 |z|^2 + floor^2) |f'|^2 gives 3 |f/f'| <= rel |z| + floor
    bound = rel * rel * (x * x + y * y) + floor * floor
    return 9 * (fr * fr + fi * fi) <= bound * (dr * dr + di * di)


@settings(max_examples=400, deadline=None)
@given(
    st.tuples(_HOSTILE, *[st.one_of(_HOSTILE, _HOSTILE, st.just(0.0))] * 3).map(list)
)
@example([1.0, 1.2, 10.0, 5.29e231])  # the closed loop of a large-gain M-curve point
@example([1.0, 9e-110, 1.225e-219, 0.0])  # roots near 1e-110 and one at 0
@example([1e-150, 1e150, 1e-150, 1e150])
@example([1.0, 1e20, 1.0, 1.0])  # the real root is the largest: a pair near 1e-10
@example([1.0, 0.0, 1e200, 1.0])  # the pair is the largest: a real root near -1e-200
@example([1.8667405948247853e-90, -5.568131396154788e-78, -0.08716197748379814,
          1.255361100244539e-30])  # real roots near +-2e44 and 1.4e-29
@example([-4.919130147881512e56, 9.323575550221703e132, 1.2006785644995907e-95,
          0.0])  # roots near 1.9e76, -1.3e-228 and 0
def test_cubic_hostile_scales_keep_every_root_to_its_own_digits(coeffs):
    try:
        got = solve_cubic(Cubic(*coeffs)).roots
    except DegenerateLeadingCoefficient:
        # only where the frozen solver gave up too
        with pytest.raises(FrozenDegenerate):
            frozen_solve_cubic(*coeffs)
        return
    assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in got)
    _assert_normwise(coeffs, got)
    if numerics._rescale_exponent(*coeffs, max(map(abs, coeffs))) == 0 and _spread(got) <= 2.0**20:
        return  # neither rescaled nor retaken: the frozen solver's bits
    # each root within 1e-6 of its own magnitude, down to the normal floats,
    # and together they are the cubic's three roots
    for g in got:
        assert _near_a_root(coeffs, g, Fraction(1, 10**6), Fraction(2) ** -1022), (coeffs, got)
    a3, a0 = Fraction(coeffs[0]), Fraction(coeffs[3])
    if a0 and all(abs(g) >= 2.0**-1022 for g in got):
        pr, pi = Fraction(1), Fraction(0)
        for g in got:
            x, y = Fraction(g.real), Fraction(g.imag)
            pr, pi = pr * x - pi * y, pr * y + pi * x
        assert (a3 * pr + a0) ** 2 + (a3 * pi) ** 2 <= Fraction(1, 10**8) * a0 * a0, (coeffs, got)


# unit-scale cubics whose largest-root exponent is exactly 0: three real
# roots, a conjugate pair and an exact triple root
@pytest.mark.parametrize(
    "coeffs", [(1.0, 1.75, 0.875, 0.125), (1.0, 1.5, 1.0, 0.5), (1.0, 1.5, 0.75, 0.125)]
)
@pytest.mark.parametrize("k", [2.0**300, 2.0**-300])
def test_cubic_far_outside_the_window_solves_as_at_unit_scale(coeffs, k):
    # s -> s / k moves the roots to ~k; the rescaled cubic is the unit-scale
    # one times a power of two, so the roots carry over exactly
    a3, a2, a1, a0 = coeffs
    moved = Cubic(a3, a2 * k, a1 * k * k, a0 * k * k * k)
    assert solve_cubic(moved).roots == tuple(z * k for z in solve_cubic(Cubic(*coeffs)).roots)


def test_cubic_outside_the_window_keeps_its_small_roots():
    # s^3 + 1e20 s^2 + s + 1 has a root near -1e20 and a pair near
    # -5e-21 +- 1e-10j; the frozen solver gave up on it
    lo, hi, big = solve_cubic(Cubic(1.0, 1e20, 1.0, 1.0)).roots
    assert big == pytest.approx(-1e20, rel=1e-15)
    assert lo.real == pytest.approx(-5e-21, rel=1e-9) and lo.imag == pytest.approx(-1e-10, rel=1e-12)
    assert hi == lo.conjugate()
    with pytest.raises(FrozenDegenerate):
        frozen_solve_cubic(1.0, 1e20, 1.0, 1.0)
    # inside the window the same rule holds: a pair near -5e-16 +- 3.16e-8j
    # beside a root near -1e15, which the frozen solver gave up on too
    lo, hi, big = solve_cubic(Cubic(1.0, 1e15, 1.0, 1.0)).roots
    assert big == pytest.approx(-1e15, rel=1e-15)
    assert lo.real == pytest.approx(-5e-16, rel=1e-9) and lo.imag == pytest.approx(-3.1622776601683795e-8, rel=1e-12)
    assert hi == lo.conjugate()
    with pytest.raises(FrozenDegenerate):
        frozen_solve_cubic(1.0, 1e15, 1.0, 1.0)
    # a pair near -0.5 +- 0.87j beside a root near -1e300: rescaled by 2**997,
    # a0 falls below the floats
    with pytest.raises(DegenerateLeadingCoefficient, match="span more than the float range"):
        solve_cubic(Cubic(1.0, 1e300, 1e300, 1e300))
    # inside the window, coefficients near 1e237 are scaled to a3 in [1, 2)
    # first, so no square in the deflation overflows: roots near +-1.07e4 and
    # -1.5e-193, each to its own digits
    coeffs = (3.9428103264534904e229, -2.2222213520242053e-48, -4.5080465070278544e237, -6.876338230204625e44)
    assert numerics._rescale_exponent(*coeffs, max(map(abs, coeffs))) == 0
    got = solve_cubic(Cubic(*coeffs)).roots
    for t, _ in true_cubic_roots(coeffs):
        assert min(abs(g - t) for g in got) <= 1e-12 * abs(t)
    # a root near -1e600 cannot be returned
    with pytest.raises(DegenerateLeadingCoefficient, match="beyond the float range"):
        solve_cubic(Cubic(1e-300, 1e300, 0.0, 0.0))


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
