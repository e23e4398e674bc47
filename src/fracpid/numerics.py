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

    def real_roots(self) -> list[float]:
        return [r.real for r in self.roots if r.imag == 0.0]


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


def _cbrt(x: float) -> float:
    """Sign-preserving real cube root."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish_real(c: Cubic, x: float, steps: int = 2) -> float:
    # guarded Newton: keep a step only if it reduces the residual
    best = abs(c(x))
    for _ in range(steps):
        d = c.derivative(x).real
        if d == 0.0:
            break
        candidate = x - c(x).real / d
        if not math.isfinite(candidate):
            break
        residual = abs(c(candidate))
        if residual >= best:
            break
        x, best = candidate, residual
    return x


def _polish_complex(c: Cubic, z: complex) -> complex:
    d = c.derivative(z)
    if d != 0.0:
        candidate = z - c(z) / d
        if (
            math.isfinite(candidate.real)
            and math.isfinite(candidate.imag)
            and abs(c(candidate)) < abs(c(z))
        ):
            z = candidate
    return z


def _deflated_pair(c: Cubic, anchor: float) -> list[complex]:
    """Remaining two roots after dividing out ``(s - anchor)``.

    Synthetic division followed by the cancellation-free quadratic formula;
    this keeps a nearly repeated pair accurate where the depressed-cubic
    discriminant has already lost its digits.
    """
    b2 = c.a3
    b1 = c.a2 + anchor * b2
    b0 = c.a1 + anchor * b1
    disc = b1 * b1 - 4.0 * b2 * b0
    if disc < 0.0:
        upper = complex(-b1 / (2.0 * b2), math.sqrt(-disc) / (2.0 * abs(b2)))
        upper = _polish_complex(c, upper)
        return [
            complex(upper.real, -abs(upper.imag)),
            complex(upper.real, abs(upper.imag)),
        ]
    big = -0.5 * (b1 + math.copysign(math.sqrt(disc), b1))
    if big != 0.0:
        pair = [big / b2, b0 / big]
    else:  # b1 == 0 and disc == 0
        pair = [0.0, 0.0]
    return [complex(_polish_real(c, r), 0.0) for r in pair]


def solve_cubic(c: Cubic) -> RootTriple:
    """Roots of a real cubic by the depressed-cubic analytic method.

    The trigonometric branch (three real roots) or Cardano branch (one real,
    one conjugate pair) supplies the most isolated root, polished by guarded
    Newton steps; the other two come from deflation and a stable quadratic
    solve. The deflation step keeps nearly repeated pairs accurate where the
    branch discriminant cancels, which matters when a conjugate pair
    collapses onto the real axis at the end of fractional-order sweeps.
    """
    scale = max(abs(c.a3), abs(c.a2), abs(c.a1), abs(c.a0))
    if c.a3 == 0.0 or abs(c.a3) <= 1e-14 * scale:
        raise DegenerateLeadingCoefficient(
            f"leading coefficient {c.a3!r} is negligible against {scale!r}"
        )

    b = c.a2 / c.a3
    c1 = c.a1 / c.a3
    d0 = c.a0 / c.a3
    shift = -b / 3.0

    p = c1 - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c1 / 3.0 + d0

    if p == 0.0 and q == 0.0:
        r = complex(shift, 0.0)
        return RootTriple((r, r, r))

    h = 0.25 * q * q + p**3 / 27.0
    if h > 0.0:
        # the lone real root is the reliable anchor
        sqrt_h = math.sqrt(h)
        anchor = _cbrt(-0.5 * q + sqrt_h) + _cbrt(-0.5 * q - sqrt_h) + shift
    else:
        # three real roots: anchor on the one farthest from the other two
        s0 = math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, -0.5 * q / s0**3))
        theta = math.acos(arg)
        candidates = [
            2.0 * s0 * math.cos((theta + _TWO_PI * k) / 3.0) + shift for k in range(3)
        ]
        anchor = max(
            candidates,
            key=lambda t: min(abs(t - other) for other in candidates if other is not t),
        )

    anchor = _polish_real(c, anchor)
    roots = [complex(anchor, 0.0)] + _deflated_pair(c, anchor)
    roots.sort(key=lambda z: (abs(z.real), z.imag))
    return RootTriple((roots[0], roots[1], roots[2]))


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
