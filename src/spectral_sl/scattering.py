"""Wronskians and the connection coefficients linking the solution families.

The two families are each fundamental on their half of the line; matching
value and derivative across the density jump expresses one in terms of the
other.  The four coefficients stored here are normalised so that at q = 0

    c11 = -(1 - i beta)/2,   c12 = -(1 + i beta)/2,
    c21 = (i - beta)/(2 beta),   c22 = -(beta + i)/(2 beta),

the large-|lambda| limits of the general case.  With this normalisation the
matching combinations carry an extra overall minus sign (see
`whole_line`), the identities

    c22(lam) = (i/beta) c11(-lam),      c21(lam) = -(i/beta) c12(lam)

hold, and the zeros of the four coefficients in the open quadrants are the
eigenvalues.  Each coefficient is the Wronskian of two branches at x = 0;
at a fixed table order that is exactly d + sum_j r_j/(lam - p_j), with one
simple pole per live row on each branch's lattice, and every coefficient
value here is that sum, computed by calling its `RationalForm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .coeffs import CoefficientTable
from .errors import ExtrapolationDivergence, PoleProximity, SpectralError, ZeroWavenumber
from .solutions import POLE_TOL, SolutionSample, _exponent, _sample


@dataclass(frozen=True)
class ConnectionCoefficients:
    """The coefficient quadruple at a fixed spectral parameter."""

    lam: complex
    c11: complex
    c12: complex
    c21: complex
    c22: complex


def wronskian(f: SolutionSample, g: SolutionSample) -> complex:
    """f' g - f g' from two samples taken at the same (x, lambda).

    Orientation fixed so the two oscillatory branches give exactly 2 i lam
    and the two exponential branches 2 lam beta.
    """
    return f.derivative * g.value - f.value * g.derivative


#: The two branches whose Wronskian at x = 0 makes each coefficient.
_WRONSKIAN_PAIRS = {
    "c11": ("f1-", "f2+"),
    "c12": ("f2+", "f1+"),
    "c21": ("f1+", "f2+"),
    "c22": ("f2-", "f1+"),
}


class RationalForm(NamedTuple):
    """d + sum_j r_j/(lam - p_j), a coefficient as a value (`rational_form`).

    Calling it gives the sum at lam: a complex for a scalar, an array for a
    1-d array.  Each point is summed on its own, so its bits do not depend
    on the batch, and `terms` forms the same sum.
    """

    d: complex
    p: np.ndarray
    r: np.ndarray

    def __call__(self, lam):
        points = np.atleast_1d(np.asarray(lam, dtype=complex))
        c = self.d + (self.r / (points[:, None] - self.p)).sum(axis=1)
        return c if np.ndim(lam) else complex(c[0])

    def terms(self, lam) -> tuple:
        """(c, c', scale) at each point of lam, where scale is
        |d| + sum_j |r_j/(lam - p_j)|, the size of the terms that cancel."""
        diff = np.atleast_1d(np.asarray(lam, dtype=complex))[:, None] - self.p
        t = self.r / diff
        return self.d + t.sum(axis=1), -(t / diff).sum(axis=1), abs(self.d) + np.abs(t).sum(axis=1)


def rational_form(table: CoefficientTable, beta: float, name: str) -> RationalForm:
    """The `RationalForm` d + sum_j r_j/(lam - p_j) of the coefficient ``name``.

    The coefficient is W(F, G)/(nu lam) for its branches F, G at x = 0, with
    exponents a lam and b lam, and nu = 2i (c11, c12) or 2 beta (c21, c22).
    Each branch there is g = 1 + sum_n s_n/(n - 2ia lam), with slope
    a lam g + sum_n s'_n/(n - 2ia lam) for the row sums s_n = sum_m V[n, m]
    and s'_n = sum_m im V[n, m], so d = (a - b)/nu, lam = 0 is removable, and
    each live row puts a simple pole p on each branch's lattice.  At a pole
    of F the residue is ((n s_n/(2i) + s'_n) G(p) - s_n G'(p)) / (-nu n); at
    a pole of G, the negative of the same with F and G swapped.
    docs/spectrum.md derives it.
    """
    first, second = _WRONSKIAN_PAIRS[name]
    a, b = (_exponent(which, 1.0, beta)[0] for which in (first, second))
    nu = 2j if name in ("c11", "c12") else 2.0 * beta
    rows = table.live_rows
    n = rows + 1.0
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        ia = 1j * np.arange(1, table.order + 1)
        s, ds = ((table.entries @ w)[rows] for w in (np.ones_like(ia), ia))
        own = np.array([[a], [b]])  # row 0: the poles of F, row 1: those of G
        p = n / (2j * own)
        # the other branch's value g and slope k g + h at each pole, e^{kx} = 1
        k = (own[::-1] * p).ravel()
        w = 1.0 / (n[:, None] - 2j * k)
        g = 1.0 + s @ w
        g, dg = (v.reshape(p.shape) for v in (g, k * g + ds @ w))
        r = np.array([[1.0], [-1.0]]) * ((n * s / 2j + ds) * g - s * dg) / (-nu * n)
    if not (np.isfinite(p).all() and np.isfinite(r).all()):
        raise SpectralError(f"the poles or residues of {name} overflow double precision")
    return RationalForm((a - b) / nu, p.ravel(), r.ravel())


def coefficient_evaluators(table: CoefficientTable, beta: float) -> tuple[RationalForm, RationalForm]:
    """The `rational_form`s of c11 and c12, which take scalars or arrays.

    No pole guarding: near the real half-integers c11 is large but finite,
    which is exactly what the pole-strength extraction samples.
    """
    return rational_form(table, beta, "c11"), rational_form(table, beta, "c12")


def _guarded(table: CoefficientTable, beta: float, lam: complex, names) -> list:
    """The named coefficients at one lam, refused at lam = 0 and within
    `POLE_TOL` of any of their poles."""
    if abs(lam) < POLE_TOL:
        raise ZeroWavenumber("coefficients are undefined at lambda = 0")
    out = []
    for name in names:
        form = rational_form(table, beta, name)
        dist = np.min(np.abs(lam - form.p), initial=np.inf)
        if dist < POLE_TOL:
            raise PoleProximity(f"lambda is {dist:.3g} from a pole of {name}, within {POLE_TOL}")
        out.append(form(lam))
    return out


def connection_coefficients(table: CoefficientTable, beta: float,
                            lam: complex) -> ConnectionCoefficients:
    """All four coefficients at lam, each from its own rational form.

    The cross identities relating them are not used in the construction, so
    they stay available as independent consistency checks.
    """
    lam = complex(lam)
    c11, c12, c21, c22 = _guarded(table, beta, lam, ("c11", "c12", "c21", "c22"))
    return ConnectionCoefficients(lam=lam, c11=c11, c12=c12, c21=c21, c22=c22)


def matching_coefficients_f1(table: CoefficientTable, beta: float,
                             lam: complex) -> tuple[complex, complex]:
    """Coefficients (a, b) with f1+ = a f2+ + b f2- on x < 0.

    Built only from the exponential-family Wronskians, so it stays finite at
    the real half-integer points where c11 itself blows up.
    """
    c22, c21 = _guarded(table, beta, complex(lam), ("c22", "c21"))
    return -c22, -c21


def matching_coefficients_f2(table: CoefficientTable, beta: float,
                             lam: complex) -> tuple[complex, complex]:
    """Coefficients (a, b) with f2+ = a f1+ + b f1- on x >= 0.

    Built only from the oscillatory-family Wronskians; finite at the
    imaginary lattice points where c22 blows up.
    """
    c11, c12 = _guarded(table, beta, complex(lam), ("c11", "c12"))
    return -c11, -c12


def whole_line(table: CoefficientTable, beta: float, family: str, lam: complex,
               x: float) -> SolutionSample:
    """The plus solution of ``family`` ('f1' or 'f2') at lam and any real x.

    On the family's own half line (x >= 0 for f1, x < 0 for f2) it is the
    series; on the other it is the matching combination of the other
    family's pair, which meets the series in value and slope at x = 0.
    Only that side's two matching coefficients are formed, so it is finite
    wherever they and the pair are: at lam = n/2 for f1 on x < 0, and at
    lam = i n/(2 beta) for f2 on x >= 0.
    """
    if family not in ("f1", "f2"):
        raise ValueError(f"unknown solution family {family!r}")
    if (x >= 0) == (family == "f1"):
        return _sample(table, beta, family + "+", lam, x)
    if family == "f1":
        (a, b), other = matching_coefficients_f1(table, beta, lam), "f2"
    else:
        (a, b), other = matching_coefficients_f2(table, beta, lam), "f1"
    sp, sm = (_sample(table, beta, other + sign, lam, x) for sign in "+-")
    return SolutionSample(a * sp.value + b * sm.value, a * sp.derivative + b * sm.derivative)


def richardson_limit(values: Sequence[complex], step_ratio: float) -> complex:
    """Limit of a sequence sampled at steps h, h/r, h/r^2, ... assuming an
    asymptotic power series in h."""
    level = [complex(v) for v in values]
    m = 1
    while len(level) > 1:
        factor = step_ratio**m
        level = [
            (factor * level[i + 1] - level[i]) / (factor - 1.0)
            for i in range(len(level) - 1)
        ]
        m += 1
    return level[0]


#: The circle each pole strength is read from: POLE_CIRCLE_POINTS points at
#: radius POLE_CIRCLE_RADIUS around n/2.  Exports sample exactly these points.
POLE_CIRCLE_RADIUS = 0.01
POLE_CIRCLE_POINTS = 32
_CIRCLE_OFFSETS = POLE_CIRCLE_RADIUS * np.exp(
    1j * (2.0 * np.pi * np.arange(POLE_CIRCLE_POINTS) / POLE_CIRCLE_POINTS))


def pole_circle(n) -> np.ndarray:
    """The equally spaced sample points of the pole-strength circle at n/2;
    for an array of n, one row of points per n."""
    return np.asarray(n)[..., None] / 2.0 + _CIRCLE_OFFSETS


#: A pole strength is rejected when the mean over every other circle point
#: differs from the full mean by more than SETTLE_TOL * max(1, |estimate|).
SETTLE_TOL = 1e-6


def pole_strengths(c11_fn: Callable, c12_fn: Callable, ns) -> tuple[np.ndarray, list]:
    """Diagonal table entries V[n, n] = -lim (n - 2 lam) c11/c12 at n/2 for
    each n in ns, and for each None or the reason its estimate is rejected.

    That is twice the residue of c11/c12, read by the trapezoidal rule on
    `pole_circle(n)` as 2 mean((lam - n/2) c11/c12).  Each function is
    called once, on the points of every circle in one flat array.  A circle
    is rejected on a non-finite sample, when c12 winds around a zero inside
    it (an arg step >= pi/2 or a nonzero total turn), and when the mean over
    every other point is off by more than `SETTLE_TOL`, as it is for a zero
    of c12 just outside; a rejection leaves the other circles' estimates
    alone.
    """
    ns = np.asarray(ns)
    lam = pole_circle(ns)
    flat = lam.reshape(-1)
    c12 = np.asarray(c12_fn(flat), dtype=complex).reshape(lam.shape)
    c11 = np.asarray(c11_fn(flat), dtype=complex).reshape(lam.shape)
    with np.errstate(all="ignore"):  # a rejected row is reported, not warned
        g = (lam - ns[:, None] / 2.0) * c11 / c12
        full = 2.0 * g.mean(axis=1)
        half = 2.0 * g[:, ::2].mean(axis=1)
        steps = np.angle(np.roll(c12, -1, axis=1) / c12)
        finite = np.isfinite(g).all(axis=1)
        winds = (np.abs(steps).max(axis=1) >= np.pi / 2) | (np.abs(steps.sum(axis=1)) > np.pi)
        unsettled = np.abs(full - half) > SETTLE_TOL * np.maximum(1.0, np.abs(full))
    reasons = [None] * len(ns)
    for i in np.flatnonzero(~finite | winds | unsettled).tolist():
        n = ns[i]
        if not finite[i]:
            reasons[i] = f"non-finite ratio sample on the circle at n={n}"
        elif winds[i]:
            reasons[i] = f"c12 winds around a zero inside the circle at n={n}"
        else:
            reasons[i] = f"pole strength at n={n} did not settle: {half[i]} vs {full[i]}"
    return full, reasons


def pole_strength(c11_fn: Callable, c12_fn: Callable, n: int) -> complex:
    """`pole_strengths` for the one circle at n/2 (a positive integer n);
    a rejected estimate raises ExtrapolationDivergence with its reason."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    (value,), (reason,) = pole_strengths(c11_fn, c12_fn, [n])
    if reason is not None:
        raise ExtrapolationDivergence(reason)
    return complex(value)
