"""Independent brute-force oracles used only by the test suite.

The exact-rational table below reimplements the defining recurrences over
Gaussian rationals (fractions for both real and imaginary part), so it has
no floating-point error and no shared code with the package implementation.
The winding count at the end counts zeros by the argument principle with
numpy alone, sharing no code with the package's zero finders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class QC:
    """Exact complex number with rational components."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "QC":
        return QC(Fraction(re), Fraction(im))

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def divint(self, k: int) -> "QC":
        return QC(self.re / k, self.im / k)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


ZERO = QC.of(0)


def exact_forward_table(harmonics: list, order: int) -> dict:
    """Exact table {(n, a): QC} straight from the two recurrences.

    ``harmonics`` lists q_1, q_2, ... as QC; missing entries are zero.
    """

    def q(k: int) -> QC:
        return harmonics[k - 1] if 1 <= k <= len(harmonics) else ZERO

    v: dict = {}
    for a in range(1, order + 1):
        for n in range(1, a):
            acc = ZERO
            for s in range(n, a):
                acc = acc + q(a - s) * v[(n, s)]
            v[(n, a)] = (-acc).divint(a * (a - n))
        col = ZERO
        for n in range(1, a):
            col = col + v[(n, a)]
        v[(a, a)] = (-q(a)).divint(a) - col
    return v


def exact_diagonal_fill(diag: list, order: int) -> dict:
    """Exact rebuild of the table from its diagonal via the propagation
    identity V[n, a+n] = V[n, n] sum_{m=1}^{a} V[m, a]/(m + n), column by
    column: a route to the table that shares no step with the recurrences."""
    v: dict = {}
    for n in range(1, order + 1):
        v[(n, n)] = diag[n - 1]
    for c in range(2, order + 1):
        for n in range(1, c):
            a = c - n
            acc = ZERO
            for m in range(1, a + 1):
                acc = acc + v[(m, a)].divint(m + n)
            v[(n, c)] = v[(n, n)] * acc
    return v


#: A contour segment is bisected until fn's phase turns by at most this
#: much across it (radians), in at most WINDING_ROUNDS rounds.
WINDING_STEP = 0.5
WINDING_ROUNDS = 40
#: Initial samples per unit length of a box boundary.
BOX_SAMPLES_PER_UNIT = 100


def winding_number(fn, z, samples: int) -> int:
    """The winding number around 0 of fn along the closed contour z(t),
    t in [0, 1] with z(1) = z(0): the phase steps of fn summed over
    `samples` equal segments in t, each bisected until its step is at most
    `WINDING_STEP`.  Fails when fn vanishes or is not finite on a sample,
    and when a segment does not settle in `WINDING_ROUNDS` rounds."""
    t = np.linspace(0.0, 1.0, samples + 1)
    vals = np.asarray(fn(z(t[:-1])), dtype=complex)
    vals = np.append(vals, vals[0])
    for _ in range(WINDING_ROUNDS):
        if not (np.all(np.isfinite(vals)) and np.all(vals != 0)):
            raise AssertionError("the contour passes through a zero or a pole of fn")
        steps = np.angle(vals[1:] / vals[:-1])
        coarse = np.flatnonzero(np.abs(steps) > WINDING_STEP)
        if not coarse.size:
            return int(round(steps.sum() / (2.0 * np.pi)))
        mid = 0.5 * (t[coarse] + t[coarse + 1])
        t = np.insert(t, coarse + 1, mid)
        vals = np.insert(vals, coarse + 1, np.asarray(fn(z(mid)), dtype=complex))
    raise AssertionError(f"{coarse.size} contour segments did not settle")


def box_winding(fn, box) -> int:
    """`winding_number` of fn along the counterclockwise boundary of the
    rectangle box = (re_lo, re_hi, im_lo, im_hi), z(t) at constant speed,
    from `BOX_SAMPLES_PER_UNIT` samples per unit length."""
    re_lo, re_hi, im_lo, im_hi = box
    corners = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                        complex(re_hi, im_hi), complex(re_lo, im_hi), complex(re_lo, im_lo)])
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(corners)))])

    def z(t):
        s = np.asarray(t) * arc[-1]
        return np.interp(s, arc, corners.real) + 1j * np.interp(s, arc, corners.imag)

    return winding_number(fn, z, int(BOX_SAMPLES_PER_UNIT * arc[-1]))


def circle_contour(centre: complex, radius: float):
    """The counterclockwise circle of the given centre and radius as z(t)."""
    return lambda t: centre + radius * np.exp(2j * np.pi * np.asarray(t))
