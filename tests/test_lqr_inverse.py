"""Inverse-LQR construction: Riccati solution, weights, costs."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracpid import (
    ClosedLoopTarget,
    IndefiniteWeights,
    PidGains,
    Plant,
    Sym3,
    UnstableGains,
    care_residual,
    cost_for_initial_state,
    delta_p_eigenvalues,
    gains_from_p,
    p_from_gains,
    p_third_row,
    place_gains,
    q_from_p,
    riccati_package,
    system_matrices,
)

from cases import (
    BENCHMARKS,
    OSCILLATORY,
    OSC_GAINS_HIGH,
    OSC_GAINS_LOW,
    OSC_TARGET_HIGH,
    OSC_TARGET_LOW,
    P_HIGH_PUBLISHED,
    P_LOW_PUBLISHED,
    Q_HIGH_PUBLISHED,
    Q_LOW_PUBLISHED,
    gains_tuple,
    max_rel_err,
    p_rows,
)


def numpy_care_residual(plant, p, q_diag, r):
    """Independent residual check built directly with numpy algebra."""
    wo = plant.omega_n_ol
    a = np.array([[0, 1, 0], [0, 0, 1], [0, -wo**2, -2 * plant.zeta_ol * wo]])
    b = np.array([[0.0], [0.0], [-plant.k]])
    pm = p.as_matrix()
    res = a.T @ pm + pm @ a - pm @ b @ b.T @ pm / r + np.diag(q_diag)
    return np.linalg.norm(res)


# ---------------------------------------------------------------------------
# system matrices and the analytic third row
# ---------------------------------------------------------------------------

def test_system_matrices_oscillatory():
    ss = system_matrices(OSCILLATORY)
    assert_allclose(ss.a[2], [0.0, -0.01, -0.04], rtol=1e-12)
    assert_allclose(ss.b, [0.0, 0.0, -1.0], rtol=0.0)
    assert_allclose(ss.a[:2], [[0, 1, 0], [0, 0, 1]], rtol=0.0)


def test_system_matrices_underdamped_benchmark():
    ss = system_matrices(Plant(9, 0.2, 3))
    assert_allclose(ss.a[2], [0.0, -9.0, -1.2], rtol=1e-12)
    assert_allclose(ss.b, [0.0, 0.0, -9.0], rtol=0.0)


def test_system_matrices_undamped():
    ss = system_matrices(Plant(1, 0, 1))
    assert_allclose(ss.a[2], [0.0, -1.0, 0.0], rtol=0.0)


def test_p_third_row_oscillatory():
    row = p_third_row(OSCILLATORY, OSC_TARGET_HIGH, 1.0)
    assert_allclose(row, (78.4, 80.822, 23.48), rtol=1e-12)
    # published display: (0.0784, 0.0808, 0.0235) x 1e3
    assert max_rel_err(row, (78.4, 80.8, 23.5)) <= 5e-3


def test_p_third_row_benchmark_lqr():
    bench = BENCHMARKS[0]
    row = p_third_row(bench.plant, ClosedLoopTarget(*bench.achieved, 10.0), 1.0)
    published_row = (bench.lqr_p[2], bench.lqr_p[4], bench.lqr_p[5])
    assert max_rel_err(row, published_row) <= 5e-4


def test_p_third_row_linear_in_r():
    row1 = p_third_row(OSCILLATORY, OSC_TARGET_HIGH, 1.0)
    row2 = p_third_row(OSCILLATORY, OSC_TARGET_HIGH, 2.0)
    assert_allclose(row2, tuple(2.0 * v for v in row1), rtol=1e-12)


# ---------------------------------------------------------------------------
# full inverse construction
# ---------------------------------------------------------------------------

def test_p_from_gains_published_high_damping():
    p = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    assert max_rel_err(p_rows(p), p_rows(Sym3.from_matrix(P_HIGH_PUBLISHED))) <= 5e-3
    assert numpy_care_residual(OSCILLATORY, p, q_from_p(OSCILLATORY, p), 1.0) <= 1e-9


def test_p_from_gains_published_low_damping():
    p = p_from_gains(OSCILLATORY, OSC_GAINS_LOW, 1.0)
    assert max_rel_err(p_rows(p), p_rows(Sym3.from_matrix(P_LOW_PUBLISHED))) <= 5e-3


def test_p_from_gains_benchmark_suboptimal_row():
    bench = BENCHMARKS[0]
    p = p_from_gains(bench.plant, bench.equivalent_gains, 1.0)
    assert max_rel_err((p.a13, p.a23, p.a33), (59.5349, 13.3872, 0.9451)) <= 5e-4


def test_p_from_gains_rejects_unstable():
    with pytest.raises(UnstableGains):
        p_from_gains(OSCILLATORY, PidGains(0.0, 0.0, 0.0), 1.0)


def test_q_from_p_published_values():
    p_high = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    assert max_rel_err(q_from_p(OSCILLATORY, p_high), Q_HIGH_PUBLISHED) <= 5e-3
    p_low = p_from_gains(OSCILLATORY, OSC_GAINS_LOW, 1.0)
    assert max_rel_err(q_from_p(OSCILLATORY, p_low), Q_LOW_PUBLISHED) <= 5e-3


def test_q_from_p_benchmark_suboptimal():
    bench = BENCHMARKS[0]
    p = p_from_gains(bench.plant, bench.equivalent_gains, 1.0)
    assert max_rel_err(q_from_p(bench.plant, p), bench.subopt_q) <= 5e-3


def test_q_from_p_indefinite_warning():
    # integral-heavy gains drive the second weight negative
    plant = Plant(1, 0.5, 1)
    p = p_from_gains(plant, PidGains(0.5, 2.0, 10.0), 1.0)
    with pytest.warns(IndefiniteWeights):
        q = q_from_p(plant, p)
    assert min(q) < 0.0


def test_care_residual_constructed_packages():
    rng = np.random.default_rng(17)
    for _ in range(50):
        plant = Plant(
            k=float(rng.uniform(0.2, 20.0)),
            zeta_ol=float(rng.uniform(0.0, 3.0)),
            omega_n_ol=float(rng.uniform(0.1, 8.0)),
        )
        target = ClosedLoopTarget(
            zeta_cl=float(rng.uniform(0.3, 0.95)),
            omega_n_cl=float(rng.uniform(0.5, 15.0)),
            m=float(rng.uniform(3.0, 12.0)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gains = place_gains(plant, target)
            p = p_from_gains(plant, gains, 1.0)
            q = q_from_p(plant, p, 1.0)
        assert care_residual(system_matrices(plant), p, q, 1.0) <= 1e-8


def test_care_residual_published_rounding():
    # the published matrices are rounded to 4-5 digits, residual stays small
    p = Sym3.from_matrix(P_HIGH_PUBLISHED)
    res = care_residual(system_matrices(OSCILLATORY), p, Q_HIGH_PUBLISHED, 1.0)
    assert res <= 1e-3


def test_care_residual_increases_under_perturbation():
    p = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    q = q_from_p(OSCILLATORY, p)
    ss = system_matrices(OSCILLATORY)
    base = care_residual(ss, p, q, 1.0)
    bumped = Sym3(p.a11 + 1.0, p.a12, p.a13, p.a22, p.a23, p.a33)
    assert care_residual(ss, bumped, q, 1.0) > base


def test_gains_from_p_published():
    gains = gains_from_p(Sym3.from_matrix(P_HIGH_PUBLISHED), k=1.0, r=1.0)
    assert max_rel_err(gains_tuple(gains), gains_tuple(OSC_GAINS_HIGH)) <= 5e-3
    gains_low = gains_from_p(Sym3.from_matrix(P_LOW_PUBLISHED), k=1.0, r=1.0)
    assert max_rel_err(gains_tuple(gains_low), gains_tuple(OSC_GAINS_LOW)) <= 5e-3


def test_gains_from_p_roundtrip():
    p = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    back = gains_from_p(p, OSCILLATORY.k, 1.0)
    assert max_rel_err(gains_tuple(back), gains_tuple(OSC_GAINS_HIGH)) <= 1e-12


def test_cost_for_initial_state():
    p_high = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    assert cost_for_initial_state(p_high, [0.0, 0.0, 0.0]) == 0.0
    # unit error state reads out the central entry
    assert_allclose(cost_for_initial_state(p_high, [0.0, 1.0, 0.0]), p_high.a22, rtol=1e-12)
    assert_allclose(p_high.a22, 1822.8, rtol=5e-4)

    p_low = p_from_gains(OSCILLATORY, OSC_GAINS_LOW, 1.0)
    rng = np.random.default_rng(23)
    for _ in range(50):
        x0 = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(x0) < 1e-6:
            continue
        assert cost_for_initial_state(p_high, x0) > cost_for_initial_state(p_low, x0)


def test_delta_p_eigenvalues_published_pair():
    eigs, definite = delta_p_eigenvalues(
        Sym3.from_matrix(P_HIGH_PUBLISHED), Sym3.from_matrix(P_LOW_PUBLISHED)
    )
    assert definite
    assert max_rel_err(eigs, (4.5, 778.8, 3620.3)) <= 1e-2


def test_delta_p_eigenvalues_identical_matrices():
    p = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    eigs, definite = delta_p_eigenvalues(p, p)
    assert not definite
    assert_allclose(eigs, (0.0, 0.0, 0.0), atol=1e-12)


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_delta_p_eigenvalues_benchmark_rows(bench):
    p_lqr = p_from_gains(bench.plant, bench.lqr_gains, 1.0)
    p_sub = p_from_gains(bench.plant, bench.equivalent_gains, 1.0)
    eigs, definite = delta_p_eigenvalues(p_lqr, p_sub)
    assert definite
    assert all(e > 0.0 for e in eigs)


def test_scale_law_in_r():
    scale = 3.7
    p1 = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    p2 = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, scale)
    assert_allclose(p2.as_matrix(), scale * p1.as_matrix(), rtol=1e-12)
    q1 = q_from_p(OSCILLATORY, p1, 1.0)
    q2 = q_from_p(OSCILLATORY, p2, scale)
    assert_allclose(q2, tuple(scale * v for v in q1), rtol=1e-12)
    g1 = gains_from_p(p1, OSCILLATORY.k, 1.0)
    g2 = gains_from_p(p2, OSCILLATORY.k, scale)
    assert max_rel_err(gains_tuple(g2), gains_tuple(g1)) <= 1e-12


def test_third_row_consistency_with_full_construction():
    rng = np.random.default_rng(31)
    for _ in range(50):
        plant = Plant(
            k=float(rng.uniform(0.2, 20.0)),
            zeta_ol=float(rng.uniform(0.0, 3.0)),
            omega_n_ol=float(rng.uniform(0.1, 8.0)),
        )
        target = ClosedLoopTarget(
            zeta_cl=float(rng.uniform(0.3, 0.95)),
            omega_n_cl=float(rng.uniform(0.5, 15.0)),
            m=float(rng.uniform(3.0, 12.0)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gains = place_gains(plant, target)
            p = p_from_gains(plant, gains, 1.0)
        r = float(rng.uniform(0.5, 2.0))
        row = p_third_row(plant, target, r)
        assert max_rel_err((p.a13 * r, p.a23 * r, p.a33 * r), row) <= 1e-10
        # the placement formula spelled out term by term, to the last bit
        zc, wc, m = target.zeta_cl, target.omega_n_cl, target.m
        k, zo, wo = plant.k, plant.zeta_ol, plant.omega_n_ol
        g = r / (k * k)
        assert row == (
            m * zc * wc**3 * g,
            (wc * wc * (1.0 + 2.0 * m * zc * zc) - wo * wo) * g,
            ((2.0 + m) * zc * wc - 2.0 * zo * wo) * g,
        )


def test_riccati_package_bundles_and_validates():
    pkg = riccati_package(OSCILLATORY, OSC_GAINS_HIGH, 1.0)
    assert pkg.care_residual <= 1e-8
    assert pkg.r == 1.0
    assert max_rel_err(pkg.q_diag, Q_HIGH_PUBLISHED) <= 5e-3


def test_r_validation():
    with pytest.raises(ValueError):
        p_third_row(OSCILLATORY, OSC_TARGET_LOW, 0.0)
    with pytest.raises(ValueError):
        p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, -1.0)
    with pytest.raises(ValueError):
        gains_from_p(p_from_gains(OSCILLATORY, OSC_GAINS_HIGH), 1.0, 0.0)


@pytest.mark.parametrize("r", [float("nan"), float("inf")])
def test_r_validation_rejects_non_finite(r):
    p = p_from_gains(OSCILLATORY, OSC_GAINS_HIGH)
    for call in (
        lambda: p_third_row(OSCILLATORY, OSC_TARGET_LOW, r),
        lambda: p_from_gains(OSCILLATORY, OSC_GAINS_HIGH, r),
        lambda: q_from_p(OSCILLATORY, p, r),
        lambda: gains_from_p(p, 1.0, r),
        lambda: riccati_package(OSCILLATORY, OSC_GAINS_HIGH, r),
    ):
        with pytest.raises(ValueError, match="r must be positive"):
            call()
