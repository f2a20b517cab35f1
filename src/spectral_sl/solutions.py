"""Series evaluation of the four fundamental solutions.

All four are one series in one exponent k, f(x; k) = e^{kx} g(x) with
g(x) = 1 + sum_{a>=1} u_a e^{iax}, whose weights the potential's harmonics
fix through a (a - 2ik) u_a = -N_a, N_a = sum_m q_m u_{a-m}, u_0 = 1
(docs/series.md).  The branches are

    f1+ : k = +i lam      f1- : k = -i lam
    f2+ : k = +lam beta   f2- : k = -lam beta,

normalised by their exponential behaviour as Im x -> +infinity.  The f1
pair solves -y'' + q y = lam^2 y (the x >= 0 form of the equation), the f2
pair solves -y'' + q y = -lam^2 beta^2 y (the x < 0 form).  Every branch has
its poles on the one lattice k = -in/2, n = 1 ... order, which is lam = -n/2
for f1+, +n/2 for f1-, -in/(2 beta) for f2+ and +in/(2 beta) for f2-, and
only where V[n, n] = -N_n(k_n)/n is nonzero.  The minus branch of either
family is the plus branch at -lam: both have the same k.

`_series` is the only place a branch is evaluated at a point x; everything
else here, and `whole_line` in `scattering`, calls it, and it reads only a
table's harmonics and order; its callers refuse an overflow as SpectralError,
without a numpy warning.  Derivatives are always term-wise, never finite
differences: the Wronskian identities downstream need exact derivatives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientTable, FourierPotential
from .errors import PoleProximity, SpectralError

#: Distance (in the lambda plane) under which generic series evaluation is
#: refused and the caller must use the scaled limit `eval_fn_limit`.
POLE_TOL = 1e-6

#: A series stops once a bound on its remaining terms is below this fraction
#: of the terms already summed, in g, g' and g'' alike: under the rounding of
#: double precision.
ROUNDING_FLOOR = 2.0**-60


@dataclass(frozen=True)
class SolutionSample:
    """Value and derivative of a solution at one (x, lambda)."""

    value: complex
    derivative: complex


def _exponent(which: str, lam, beta: float):
    """(k, scale) of branch 'f1+', 'f1-', 'f2+' or 'f2-' at lam.

    ``scale`` converts a distance in k into one in lam: 1 for f1, beta for
    f2.
    """
    if which not in ("f1+", "f1-", "f2+", "f2-"):
        raise ValueError(f"unknown solution tag {which!r}")
    k, scale = (1j * lam, 1.0) if which[1] == "1" else (lam * beta, beta)
    return (k if which[2] == "+" else -k), scale


def _weights(harmonics, order: int, k: complex, scale: float, stop: bool) -> np.ndarray:
    """u_1, u_2, ... of g = 1 + sum_a u_a e^{iax}, by the recurrence in scalar
    complex arithmetic, up to ``order``.  With ``stop`` (which needs
    |e^{ix}| <= 1) they end once a bound on the rest of g, g' and g'' is
    below `ROUNDING_FLOOR` of the terms before it in each, at an index set by
    the harmonics and k alone, past every lattice point the guard covers.

    Raises PoleProximity when k is within `POLE_TOL` (in the lam plane: the
    k-distance over ``scale``) of a pole k = -in/2 whose N_n is not zero for
    every k, that is, where sums of the nonzero harmonics' indices reach n.
    """
    q = [complex(c) for c in harmonics]
    while q and q[-1] == 0:
        q.pop()
    band, two_ik = len(q), 2j * complex(k)
    guarded = two_ik.real + 2.0 * scale * POLE_TOL  # no guarded lattice point past it
    halving = 2.0 * sum(math.hypot(c.real, c.imag) for c in q)  # hypot: inf, not OverflowError
    u, live, sums = [1.0 + 0j], [True], [1.0, 0.0, 0.0]  # sums: of a^d |u_a|, d = 0, 1, 2
    for a in range(1, order + 1):
        gap = a - two_ik
        span = math.hypot(gap.real, gap.imag)
        if stop and a >= band and a > guarded and a * span >= halving:
            # each later |u_b| <= half the band before it: block j past s <= top/band 2^-j
            s = a - 1
            top = band * max((math.hypot(c.real, c.imag) for c in u[a - band:]), default=0.0)
            tails = (top, top * (s + 2 * band), top * (s * s + 4 * s * band + 6 * band * band))
            if all(t <= ROUNDING_FLOOR * w for t, w in zip(tails, sums)):
                break
        num = sum(c * u[a - m] for m, c in enumerate(q[:a], 1))
        live.append(any(c and live[a - m] for m, c in enumerate(q[:a], 1)))  # else num is 0
        if live[a]:
            dist = span / (2.0 * scale)
            if dist < POLE_TOL:
                raise PoleProximity(f"lambda is {dist:.3g} from a pole of the series "
                                    f"(tolerance {POLE_TOL})")
            num = -num / (a * gap)
        u.append(num)
        size = math.hypot(num.real, num.imag)
        sums = [w + a**d * size for d, w in enumerate(sums)]
    return np.array(u[1:], dtype=complex)


def _series(harmonics, order: int, k: complex, x, scale: float) -> tuple:
    """f(x; k) and its first and second x-derivatives over a scalar or 1-d
    array x; the results are shaped like x.

    The weights of `_weights`, stopped when every Im x >= 0, are summed as
    sum_a u_a (ia)^d e^{iax} by Horner's rule in z = e^{ix}, in place and
    elementwise (a point's bits do not depend on the rest of x).
    """
    x = np.atleast_1d(x)
    u = _weights(harmonics, order, k, scale, stop=bool(np.all(np.imag(x) >= 0)))
    ia = 1j * np.arange(1, len(u) + 1)
    z = np.exp(1j * x)
    acc = np.zeros((3,) + x.shape, dtype=complex)
    for c in np.stack([u, ia * u, ia * ia * u], axis=1)[::-1]:
        np.add(acc, c[:, None], out=acc)
        np.multiply(acc, z, out=acc)
    g, dg, d2g = acc
    g = 1.0 + g
    e = np.exp(k * x)
    return e * g, e * (k * g + dg), e * (k * k * g + 2.0 * k * dg + d2g)


def _sample(table: CoefficientTable, beta: float, which: str, lam, x) -> SolutionSample:
    """One branch at one (x, lam); arrays of x go to `eval_with_residual`."""
    if np.ndim(x):
        raise ValueError("x must be a scalar; eval_with_residual takes an array")
    k, scale = _exponent(which, complex(lam), beta)
    with np.errstate(all="ignore"):  # an overflow is refused, not warned about
        f, df, _ = _series(table.harmonics, table.order, k, x, scale)
    if not np.isfinite([f[0], df[0]]).all():
        raise SpectralError(f"{which} overflows double precision at x = {x}")
    return SolutionSample(complex(f[0]), complex(df[0]))


def eval_f1(table: CoefficientTable, lam: complex, x, branch: str = "+") -> SolutionSample:
    """Evaluate the oscillatory-family solution and its x-derivative.

    x may be complex (the series is entire in x), which is how the
    normalisation at Im x -> infinity is checked in practice.

    Raises PoleProximity when lam is within `POLE_TOL` of the branch's
    pole lattice; use `eval_fn_limit` there instead.
    """
    return _sample(table, 1.0, "f1" + branch, lam, x)


def eval_f2(table: CoefficientTable, beta: float, lam: complex, x,
            branch: str = "+") -> SolutionSample:
    """Evaluate the exponential-family solution and its x-derivative.

    Both branches share the table used by `eval_f1`; only the exponent k
    differs.
    """
    return _sample(table, beta, "f2" + branch, lam, x)


def eval_fn_limit(table: CoefficientTable, n: int, x) -> complex:
    """Scaled limit of f1 at the half-integer points.

    Returns lim (n +/- 2 lam) f1(x, lam; +/-) as lam -> -/+ n/2, which is
    the single row series sum_{a>=n} V[n, a] e^{iax} e^{-i(n/2)x}.  Both
    branch limits are this one function: the minus branch is the plus
    branch reflected in lam, and the reflection maps one limit point onto
    the other.
    """
    if not 1 <= n <= table.order:
        raise ValueError(f"require 1 <= n <= {table.order}")
    row = table.entries[n - 1] @ np.exp(1j * np.arange(1, table.order + 1) * x)
    return complex(row) * cmath.exp(-0.5j * n * complex(x))


def _with_residual(potential: FourierPotential, harmonics, order: int, lam: complex, x,
                   which: str) -> tuple:
    lam = complex(lam)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k, scale = _exponent(which, lam, potential.beta)
    with np.errstate(all="ignore"):  # an overflow is refused, not warned about
        f, df, f2d = _series(harmonics, order, k, x, scale)
        rho = np.where(x >= 0, 1.0, -np.square(potential.beta))
        res = -f2d + potential.at(x) * f - lam * lam * rho * f
        if not all(np.isfinite(v).all() for v in (f, df, np.abs(res))):
            lo, hi = float(np.min(x)), float(np.max(x))
            raise SpectralError(f"{which} overflows double precision on [{lo!r}, {hi!r}]")
    return f, df, res


def eval_with_residual(potential: FourierPotential, order: int, lam: complex, x,
                       which: str) -> tuple:
    """Value, slope and ODE residual of one branch over the real array x,
    from one series pass of the potential's harmonics to ``order``; no table
    is built.  Each point has the bits of `eval_f1` / `eval_f2` and
    `ode_residual` on `build_table(potential, order)` at that x alone.
    """
    return _with_residual(potential, potential.q[:order], order, lam, x, which)


def ode_residual(potential: FourierPotential, table: CoefficientTable, lam: complex, x: float,
                 which: str) -> complex:
    """-f'' + q(x) f - lam^2 rho(x) f for one of the four series of the
    table's harmonics.

    The second derivative is exact term-wise differentiation of the
    series.  ``which`` is one of 'f1+', 'f1-', 'f2+', 'f2-'; rho(x) is 1 for
    x >= 0 and -beta^2 otherwise (evaluate away from the jump at 0).
    """
    if np.ndim(x):
        raise ValueError("x must be a scalar; eval_with_residual takes an array")
    return complex(_with_residual(potential, table.harmonics, table.order, lam, x, which)[2][0])
