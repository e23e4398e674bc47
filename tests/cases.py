"""Benchmark plants and published reference results shared across the suite.

The three second-order benchmark plants (underdamped, critically damped,
overdamped) come with published tuning results: stage-1 placement gains,
the equivalent gains and dominant poles at fractional order 0.9, the
single-stage gains placed at the achieved point, and the Riccati solutions
and weights of both designs. The oscillatory plant carries the published
high/low-damping Riccati pairs used for the cost-comparison regressions.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from fracpid import ClosedLoopTarget, PidGains, Plant


@dataclass(frozen=True)
class Benchmark:
    name: str
    plant: Plant
    stage1: ClosedLoopTarget
    stage1_gains: PidGains
    achieved: tuple[float, float]  # dominant (zeta, omega_n) at q = 0.9
    equivalent_gains: PidGains  # at q = 0.9
    lqr_gains: PidGains  # single-stage placement at the achieved point
    # Riccati entries ordered (p11, p12, p13, p22, p23, p33)
    lqr_p: tuple[float, ...]
    subopt_p: tuple[float, ...]
    subopt_q: tuple[float, float, float]
    desired_zeta: float  # two-stage search target that lands on q = 0.9


BENCHMARKS = (
    Benchmark(
        name="p1",
        plant=Plant(9.0, 0.2, 3.0),
        stage1=ClosedLoopTarget(0.75, 7.0, 10.0),
        stage1_gains=PidGains(65.6944, 285.8333, 6.8667),
        achieved=(0.934, 8.88),
        equivalent_gains=PidGains(120.4848, 535.8142, 8.5059),
        lqr_gains=PidGains(160.6263, 726.6801, 10.9252),
        lqr_p=(117450.0, 8036.0, 80.7422, 1706.5, 17.8474, 1.2139),
        subopt_p=(65093.0, 4629.0, 59.5349, 989.8673, 13.3872, 0.9451),
        subopt_q=(287100.0, 5499.5, 47.8442),
        desired_zeta=0.93,
    ),
    Benchmark(
        name="p2",
        plant=Plant(25.0, 1.0, 5.0),
        stage1=ClosedLoopTarget(0.75, 10.0, 10.0),
        stage1_gains=PidGains(48.0, 300.0, 3.2),
        achieved=(0.927, 13.7),
        equivalent_gains=PidGains(83.166, 565.4015, 3.6415),
        lqr_gains=PidGains(135.5376, 953.4577, 5.696),
        lqr_p=(130180.0, 5812.2, 38.1383, 793.7882, 5.4215, 0.2278),
        subopt_p=(47588.0, 2285.1, 22.6161, 317.1408, 3.3266, 0.1457),
        subopt_q=(319680.0, 2512.8, 9.5204),
        desired_zeta=0.92,
    ),
    Benchmark(
        name="p3",
        plant=Plant(1.0, 5.0, 1.0),
        stage1=ClosedLoopTarget(0.75, 5.0, 10.0),
        stage1_gains=PidGains(305.25, 937.5, 35.0),
        achieved=(0.914, 6.31),
        equivalent_gains=PidGains(619.9069, 2005.4, 51.9555),
        lqr_gains=PidGains(704.0603, 2296.3, 59.2081),
        lqr_p=(1619100.0, 158920.0, 2296.3, 46490.0, 704.0603, 59.2081),
        subopt_p=(1245200.0, 124250.0, 2005.4, 36453.0, 619.9069, 51.9555),
        subopt_q=(4021600.0, 137030.0, 2498.7),
        desired_zeta=0.91,
    ),
)

# highly oscillatory plant used for the dominance study and the published
# high/low-damping inverse-Riccati pair
OSCILLATORY = Plant(1.0, 0.2, 0.1)
OSC_TARGET_HIGH = ClosedLoopTarget(0.98, 2.0, 10.0)
OSC_TARGET_LOW = ClosedLoopTarget(0.75, 2.0, 10.0)
OSC_GAINS_HIGH = PidGains(80.822, 78.400, 23.480)
OSC_GAINS_LOW = PidGains(48.99, 60.00, 17.96)

P_HIGH_PUBLISHED = np.array(
    [
        [6.3372, 1.8440, 0.0784],
        [1.8440, 1.8228, 0.0808],
        [0.0784, 0.0808, 0.0235],
    ]
) * 1e3
Q_HIGH_PUBLISHED = (6146.6, 2845.9, 391.5)
P_LOW_PUBLISHED = np.array(
    [
        [2.940, 1.080, 0.060],
        [1.080, 0.822, 0.049],
        [0.060, 0.049, 0.018],
    ]
) * 1e3
Q_LOW_PUBLISHED = (3600.0, 241.0, 226.0)

# published eigenvalues of the high-minus-low Riccati difference
DELTA_EIGS_PUBLISHED = (4.5, 778.8, 3620.3)
# same eigenvalues recomputed at full precision from the published matrices
# (companion-matrix oracle, frozen)
DELTA_EIGS_ORACLE = (4.4722722621, 778.7837955454, 3620.2439321925)


def rel_err(actual: float, expected: float) -> float:
    return abs(actual - expected) / abs(expected)


def max_rel_err(actual, expected) -> float:
    return max(rel_err(a, e) for a, e in zip(actual, expected))


def gains_tuple(g: PidGains) -> tuple[float, float, float]:
    return (g.kp, g.ki, g.kd)


def p_rows(p) -> tuple[float, ...]:
    """Sym3 entries ordered like the published tables."""
    return (p.a11, p.a12, p.a13, p.a22, p.a23, p.a33)


def true_cubic_roots(coeffs) -> list[tuple[complex, float]]:
    """Each root of ``a3 s^3 + a2 s^2 + a1 s + a0`` to ~30 digits of its own
    magnitude, with its condition number kappa = sum |ak| |r|**k / (|r| |f'(r)|).

    Exact zero roots are divided out first; a simple one has kappa 1. The
    rest come from the closed forms (quadratic formula, Cardano) in mpmath
    and three Newton steps, at a precision that grows with the span of the
    coefficients, which bounds how far the smallest root lies below the
    largest, so cancellation cannot reach the digits kept.
    """
    a3, a2, a1, a0 = coeffs = [float(c) for c in coeffs]
    head = list(coeffs)
    while head[-1] == 0.0:
        head.pop()
    zeros = 4 - len(head)
    roots = [(0j, 1.0 if zeros == 1 else math.inf)] * zeros
    span = max(map(abs, head)) / min(abs(x) for x in head if x)
    with mpmath.workdps(60 + 2 * int(math.log10(span))):
        c = [mpmath.mpf(x) / head[0] for x in head[1:]]
        if len(c) == 1:
            found = [-c[0]]
        elif len(c) == 2:
            d = mpmath.sqrt(c[0] ** 2 - 4 * c[1])
            found = [(-c[0] + d) / 2, (-c[0] - d) / 2]
        elif len(c) == 3:
            b = c[0]
            p = c[1] - b * b / 3
            q = 2 * b**3 / 27 - b * c[1] / 3 + c[2]
            d = mpmath.sqrt(q * q / 4 + p**3 / 27)
            u = max(-q / 2 + d, -q / 2 - d, key=abs)
            w = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
            found = [-b / 3] * 3 if u == 0 else [
                mpmath.cbrt(u) * w**k - p / (3 * mpmath.cbrt(u) * w**k) - b / 3 for k in range(3)
            ]
        else:
            found = []
        for r in found:
            for _ in range(3):
                slope = (3 * a3 * r + 2 * a2) * r + a1
                if slope:
                    r -= (((a3 * r + a2) * r + a1) * r + a0) / slope
            slope = abs((3 * a3 * r + 2 * a2) * r + a1)
            size = ((abs(a3) * abs(r) + abs(a2)) * abs(r) + abs(a1)) * abs(r) + abs(a0)
            roots.append((complex(r), float(size / (abs(r) * slope)) if slope else math.inf))
    return roots
