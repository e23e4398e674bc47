"""Frozen copy of the cubic solver and the dominant-pole reading as they were
before the probe path was rewritten for speed.

The rewrite promises the same bits for every cubic in the normal scale
window, so this copy is the oracle for that promise. It is self-contained on
purpose: it must not follow later edits to ``fracpid``. Do not change it.
"""

import math

_TWO_PI = 2.0 * math.pi


class FrozenCubic:
    """``a3*s^3 + a2*s^2 + a1*s + a0`` evaluated as the old ``Cubic`` did."""

    def __init__(self, a3, a2, a1, a0):
        self.a3, self.a2, self.a1, self.a0 = a3, a2, a1, a0

    def __call__(self, s):
        return ((self.a3 * s + self.a2) * s + self.a1) * s + self.a0

    def derivative(self, s):
        return (3.0 * self.a3 * s + 2.0 * self.a2) * s + self.a1


class FrozenDegenerate(ValueError):
    pass


def _cbrt(x):
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish_real(c, x, steps=2):
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


def _polish_complex(c, z):
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


def _deflated_pair(c, anchor):
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
    else:
        pair = [0.0, 0.0]
    return [complex(_polish_real(c, r), 0.0) for r in pair]


def frozen_solve_cubic(a3, a2, a1, a0):
    """The three roots, sorted by ascending |Re| then Im."""
    c = FrozenCubic(a3, a2, a1, a0)
    scale = max(abs(c.a3), abs(c.a2), abs(c.a1), abs(c.a0))
    if c.a3 == 0.0 or abs(c.a3) <= 1e-14 * scale:
        raise FrozenDegenerate(c.a3)

    b = c.a2 / c.a3
    c1 = c.a1 / c.a3
    d0 = c.a0 / c.a3
    shift = -b / 3.0

    p = c1 - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c1 / 3.0 + d0

    if p == 0.0 and q == 0.0:
        r = complex(shift, 0.0)
        return (r, r, r)

    h = 0.25 * q * q + p**3 / 27.0
    if h > 0.0:
        sqrt_h = math.sqrt(h)
        anchor = _cbrt(-0.5 * q + sqrt_h) + _cbrt(-0.5 * q - sqrt_h) + shift
    else:
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
    return (roots[0], roots[1], roots[2])


def frozen_dominant_reading(roots):
    """(zeta, omega_n, real_pole, dominance_ratio) of a stable sorted triple,
    read through the old conjugate-pair helper."""
    pair = [r for r in roots if r.imag != 0.0]
    if pair:
        pair.sort(key=lambda r: r.imag)
        dom = pair[1]
        zeta = -dom.real / abs(dom)
        omega = abs(dom)
        real_pole = next(r.real for r in roots if r.imag == 0.0)
    else:
        reals = sorted([r.real for r in roots if r.imag == 0.0], key=abs)
        zeta = 1.0
        omega = abs(reals[0])
        real_pole = reals[1]
    return zeta, omega, real_pole, abs(real_pole) / (zeta * omega)
