"""Foundational numerical routines: analytic cubic root solving, eigenvalues
of symmetric 3x3 matrices, and exact sampling of constant-input LTI systems.

Everything in this module is a pure function of its inputs and deterministic,
so results can be frozen into regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Cubic",
    "RootTriple",
    "Sym3",
    "DegenerateLeadingCoefficient",
    "NonFiniteState",
    "solve_cubic",
    "eig_sym3",
    "integrate_fixed_step",
]

_TWO_PI = 2.0 * math.pi
_THIRD = 1.0 / 3.0

# solve_cubic rescales s unless the largest root's magnitude lies in about
# 2**±64 (see _rescale_exponent)
_SCALE_WINDOW = 64
_SPREAD = 2.0**20  # a larger root spread retakes the smaller roots from the largest
_RATIO_LO, _RATIO_HI = 2.0**-63, 2.0**63
_NORMAL_MIN = 2.0**-1022  # below it a float carries fewer than 53 bits


class DegenerateLeadingCoefficient(ValueError):
    """Leading cubic coefficient is numerically zero."""


class NonFiniteState(RuntimeError):
    """Sampling produced a non-finite state (an overflowing unstable system)."""


@dataclass(frozen=True)
class Cubic:
    """Real cubic ``a3*s^3 + a2*s^2 + a1*s + a0`` (descending degree)."""

    a3: float
    a2: float
    a1: float
    a0: float

    def __call__(self, s: complex) -> complex:
        return ((self.a3 * s + self.a2) * s + self.a1) * s + self.a0

    def derivative(self, s: complex) -> complex:
        return (3.0 * self.a3 * s + 2.0 * self.a2) * s + self.a1

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.a3, self.a2, self.a1, self.a0)


@dataclass(frozen=True)
class RootTriple:
    """Three cubic roots sorted by ascending |Re|, ties by ascending Im.

    Complex roots always appear as exact conjugate pairs; purely real roots
    carry an exactly zero imaginary part.
    """

    roots: tuple[complex, complex, complex]

    def conjugate_pair(self) -> tuple[complex, complex] | None:
        """The (lower, upper) conjugate pair, or None if all roots are real."""
        pair = [r for r in self.roots if r.imag != 0.0]
        if not pair:
            return None
        pair.sort(key=lambda r: r.imag)
        return pair[0], pair[1]


@dataclass(frozen=True)
class Sym3:
    """Symmetric 3x3 real matrix stored as its six independent entries."""

    a11: float
    a12: float
    a13: float
    a22: float
    a23: float
    a33: float

    def as_matrix(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [
                [self.a11, self.a12, self.a13],
                [self.a12, self.a22, self.a23],
                [self.a13, self.a23, self.a33],
            ],
            dtype=float,
        )

    @classmethod
    def from_matrix(cls, m: np.ndarray, tol: float = 1e-9) -> "Sym3":
        """Build from a 3x3 array, averaging the off-diagonal halves.

        Raises ValueError if the asymmetry exceeds ``tol`` relative to the
        largest entry.
        """
        import numpy as np

        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > tol * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        return cls(
            a11=float(m[0, 0]),
            a12=float(0.5 * (m[0, 1] + m[1, 0])),
            a13=float(0.5 * (m[0, 2] + m[2, 0])),
            a22=float(m[1, 1]),
            a23=float(0.5 * (m[1, 2] + m[2, 1])),
            a33=float(m[2, 2]),
        )

    def __sub__(self, other: "Sym3") -> "Sym3":
        return Sym3(
            self.a11 - other.a11,
            self.a12 - other.a12,
            self.a13 - other.a13,
            self.a22 - other.a22,
            self.a23 - other.a23,
            self.a33 - other.a33,
        )


def _polish_real(a3: float, a2: float, a1: float, a0: float, x: float) -> float:
    # two guarded Newton steps: keep a step only if it reduces the residual
    f = ((a3 * x + a2) * x + a1) * x + a0
    best = abs(f)
    for _ in range(2):
        d = (3.0 * a3 * x + 2.0 * a2) * x + a1
        if d == 0.0:
            break
        candidate = x - f / d
        if not math.isfinite(candidate):
            break
        f = ((a3 * candidate + a2) * candidate + a1) * candidate + a0
        if abs(f) >= best:
            break
        x, best = candidate, abs(f)
    return x


def _deflated_pair(
    a3: float, a2: float, a1: float, a0: float, anchor: float, from_constant: bool = False
) -> list[complex]:
    """Remaining two roots after dividing out ``(s - anchor)``.

    Synthetic division followed by the cancellation-free quadratic formula;
    this keeps a nearly repeated pair accurate where the depressed-cubic
    discriminant has already lost its digits. Division runs from the leading
    end, or from the constant end when the anchor is the largest root and
    the other two would drown in its rounding; those two are then solved at
    their own power-of-two scale, so their squares cannot underflow. A
    complex pair comes lower root first, after one guarded Newton step on
    its upper root.
    """
    k = 0
    if from_constant:
        b0 = -a0 / anchor
        b1 = (b0 - a1) / anchor
        # the pair's roots are those of the cubic a3 u**3 + b1 u**2 + b0 u besides 0
        k = _rescale_exponent(a3, b1, b0, 0.0, max(abs(a3), abs(b1), abs(b0)))
        b1, b0 = math.ldexp(b1, -k), math.ldexp(b0, -2 * k)
    else:
        b1 = a2 + anchor * a3
        b0 = a1 + anchor * b1
    disc = b1 * b1 - 4.0 * a3 * b0
    if disc < 0.0:
        z = complex(-b1 / (2.0 * a3), math.sqrt(-disc) / (2.0 * abs(a3)))
        if k:
            z = complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
        d = (3.0 * a3 * z + 2.0 * a2) * z + a1
        if d != 0.0:
            f = ((a3 * z + a2) * z + a1) * z + a0
            w = z - f / d
            if (
                math.isfinite(w.real)
                and math.isfinite(w.imag)
                and abs(((a3 * w + a2) * w + a1) * w + a0) < abs(f)
            ):
                z = w
        return [complex(z.real, -abs(z.imag)), complex(z.real, abs(z.imag))]
    big = -0.5 * (b1 + math.copysign(math.sqrt(disc), b1))
    pair = (big / a3, b0 / big) if big != 0.0 else (0.0, 0.0)  # else b1 == disc == 0
    if k:
        pair = (math.ldexp(pair[0], k), math.ldexp(pair[1], k))
    return [complex(_polish_real(a3, a2, a1, a0, r), 0.0) for r in pair]


def _rescale_exponent(a3: float, a2: float, a1: float, a0: float, scale: float) -> int:
    # e with 2**e about the largest root's magnitude: the Fujiwara bound
    # max |ak/a3|**(1/k) read off binary exponents, rounded up so every
    # |ak/a3| / 2**(k*e) < 2; 0 inside the window. Every |ak| below
    # 2**63 |a3| and |a2| at least 2**-63 |a3| bound |e| by 63, so the
    # common case skips the exponent reads.
    if a3 == 0.0 or (scale < _RATIO_HI * abs(a3) and abs(a2) >= _RATIO_LO * abs(a3)):
        return 0
    e3 = math.frexp(a3)[1]
    terms = ((1, a2), (2, a1), (3, a0))
    e = max((-((e3 - math.frexp(a)[1]) // k) for k, a in terms if a != 0.0), default=0)
    return e if abs(e) > _SCALE_WINDOW else 0


def solve_cubic(c: Cubic) -> RootTriple:
    """Roots of a real cubic by the depressed-cubic analytic method.

    The trigonometric branch (three real roots) or Cardano branch (one real,
    one conjugate pair) supplies the most isolated root, polished by guarded
    Newton steps; the other two come from deflation and a stable quadratic
    solve. The deflation step keeps nearly repeated pairs accurate where the
    branch discriminant cancels, which matters when a conjugate pair
    collapses onto the real axis at the end of fractional-order sweeps.

    One rule holds for every cubic. The coefficients are scaled by a power
    of two (exact in binary) that puts a3 in [1, 2); when the largest root's
    magnitude lies outside about 2**±64, s is rescaled by one too, so that
    root lies near 1. Where the largest root outweighs the smallest by more
    than 2**20, the smaller roots are taken again from it, so each keeps
    digits relative to its own magnitude: a largest real root is divided out
    from the constant end, and under a largest pair the real root is the
    product of the roots over the pair's.

    Raises DegenerateLeadingCoefficient only when the leading coefficient
    is zero, when the roots span more than the float range (a nonzero a1 or
    a0 scales below the normal floats), or when a root lies beyond it.
    """
    return RootTriple(_cubic_roots(c.a3, c.a2, c.a1, c.a0))


def _cubic_roots(a3: float, a2: float, a1: float, a0: float) -> tuple[complex, complex, complex]:
    # solve_cubic on bare coefficients: the sorted root tuple
    e = _rescale_exponent(a3, a2, a1, a0, max(abs(a3), abs(a2), abs(a1), abs(a0)))
    if e or not 1.0 <= a3 < 2.0:
        if a3 == 0.0:
            raise DegenerateLeadingCoefficient(f"leading coefficient {a3!r} is zero")
        # solve for t = s / 2**e, with the leading coefficient in [1, 2)
        given = a3, a1, a0  # for the checks and messages below
        lead = 1 - math.frexp(a3)[1]
        a3, a2, a1, a0 = (math.ldexp(a, lead - k * e) for k, a in enumerate((a3, a2, a1, a0)))
        # the smaller roots are taken from a1 and a0
        if (given[1] and abs(a1) < _NORMAL_MIN) or (given[2] and abs(a0) < _NORMAL_MIN):
            raise DegenerateLeadingCoefficient(
                f"leading coefficient {given[0]!r} is negligible: the roots span more than the float range"
            )

    b = a2 / a3
    c1 = a1 / a3
    d0 = a0 / a3
    shift = -b / 3.0

    p = c1 - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c1 / 3.0 + d0

    if p == 0.0 and q == 0.0:
        roots = (complex(shift, 0.0),) * 3
    else:
        h = 0.25 * q * q + p**3 / 27.0
        if h > 0.0:
            # the lone real root is the reliable anchor
            sqrt_h = math.sqrt(h)
            u, v = -0.5 * q + sqrt_h, -0.5 * q - sqrt_h
            anchor = math.copysign(abs(u) ** _THIRD, u) + math.copysign(abs(v) ** _THIRD, v) + shift
        else:
            # three real roots: anchor on the one farthest from the other two
            s0 = math.sqrt(-p / 3.0)
            theta = math.acos(min(1.0, max(-1.0, -0.5 * q / s0**3)))
            t0, t1, t2 = (2.0 * s0 * math.cos((theta + _TWO_PI * k) / 3.0) + shift for k in range(3))
            g0, g1 = min(abs(t0 - t1), abs(t0 - t2)), min(abs(t1 - t0), abs(t1 - t2))
            anchor, gap = (t1, g1) if g1 > g0 else (t0, g0)
            if min(abs(t2 - t0), abs(t2 - t1)) > gap:
                anchor = t2
        anchor = _polish_real(a3, a2, a1, a0, anchor)
        lo, hi = _deflated_pair(a3, a2, a1, a0, anchor)
        # rounding so far scales with the largest root: where it outweighs the
        # smallest by more than _SPREAD, take the smaller ones again from it
        ma, ml, mh = abs(anchor), abs(lo), abs(hi)
        if lo.imag == 0.0:  # a real pair comes larger root first
            if (ma if ma > ml else ml) > _SPREAD * (ma if ma < mh else mh):  # max, min without calls
                anchor = anchor if ma >= ml else lo.real
                lo, hi = _deflated_pair(a3, a2, a1, a0, anchor, from_constant=True)
        elif _SPREAD * ma < mh:
            anchor = -a0 / (a3 * (hi.real * hi.real + hi.imag * hi.imag))
        elif ma > _SPREAD * mh:
            lo, hi = _deflated_pair(a3, a2, a1, a0, anchor, from_constant=True)
        real = complex(anchor, 0.0)
        if lo.imag == 0.0:
            roots = sorted((real, lo, hi), key=lambda z: (abs(z.real), z.imag))
        elif abs(anchor) < abs(lo.real):  # a conjugate pair: order by |Re|, then Im
            roots = real, lo, hi
        elif abs(anchor) > abs(lo.real):
            roots = lo, hi, real
        else:
            roots = lo, real, hi
    if e:
        try:
            roots = [complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in roots]
        except OverflowError:
            raise DegenerateLeadingCoefficient(
                f"leading coefficient {given[0]!r} is negligible: a root lies beyond the float range"
            ) from None
    return tuple(roots)


def eig_sym3(m: Sym3) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix, ascending (LAPACK ``eigvalsh``)."""
    import numpy as np

    e = np.linalg.eigvalsh(m.as_matrix())
    return float(e[0]), float(e[1]), float(e[2])


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: degree-19 Taylor sum of ``a`` scaled to norm < 1/2,
    then squared back (Moler & Van Loan 2003, "Nineteen dubious ways...")."""
    import numpy as np

    squarings = max(0, math.frexp(float(np.abs(a).sum(axis=1).max()))[1] + 1)
    a = a / 2.0**squarings
    term = result = np.eye(len(a))
    for i in range(1, 20):
        term = term @ a / i
        result = result + term
    return np.linalg.matrix_power(result, 2**squarings)


def integrate_fixed_step(
    a: Sequence[Sequence[float]],
    c: Sequence[float],
    x0: Sequence[float],
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact samples of ``x' = a @ x + c`` every ``dt`` from ``x(0) = x0``.

    One step is the exponential of ``[[a, c], [0, 0]] * dt`` (Van Loan 1978);
    rows ``[h, 2h)`` are rows ``[0, h)`` times the ``h``-step matrix. Returns
    ``(t, states)`` with ``floor(t_end/dt) + 1`` samples, one row each.
    Raises NonFiniteState if any sample is not finite.
    """
    import numpy as np

    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least one step")

    n = int(math.floor(t_end / dt + 1e-9))
    d = len(x0)
    gen = np.zeros((d + 1, d + 1))
    gen[:d] = np.column_stack((a, c))
    out = np.empty((n + 1, d + 1))
    out[0] = (*x0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow surfaces as the NonFiniteState check below
        stepper = _expm(gen * dt).T  # advances row states by one step
        for h in (1 << p for p in range(n.bit_length())):
            out[h : 2 * h] = out[: min(h, n + 1 - h)] @ stepper
            stepper = stepper @ stepper
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise NonFiniteState(f"non-finite state at t={bad[0] * dt:.6g}")
    return np.arange(n + 1) * dt, out[:, :d]
