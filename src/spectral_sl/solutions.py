"""Series evaluation of the four fundamental solutions.

All four are one series in one exponent k.  With V the coefficient table of
the potential and s_n(x) = sum_a V[n,a] e^{iax} its row sums,

    f(x; k) = e^{kx} (1 + sum_n s_n(x) / (n - 2ik)),

and the branches are

    f1+ : k = +i lam      f1- : k = -i lam
    f2+ : k = +lam beta   f2- : k = -lam beta,

normalised by their exponential behaviour as Im x -> +infinity.  The f1
pair solves -y'' + q y = lam^2 y (the x >= 0 form of the equation), the f2
pair solves -y'' + q y = -lam^2 beta^2 y (the x < 0 form).  Every branch has
its poles on the one lattice k = -in/2, n = 1 ... order, which is lam = -n/2
for f1+, +n/2 for f1-, -in/(2 beta) for f2+ and +in/(2 beta) for f2-; a
pole is present only where row n of the table is nonzero.  The minus
branch of either family is the plus branch at -lam: both have the same k,
so the identity is exact.

`_series` is the only place a branch is evaluated at a point x;
everything else here, and `whole_line` in `scattering`, calls it.  The
connection coefficients need the branches only at x = 0, at the other
branch's poles, and `scattering.rational_form` forms those weights itself.
Derivatives are always term-wise (analytic), never finite differences:
the Wronskian identities downstream are exact only with exact derivatives.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientTable, FourierPotential
from .errors import PoleProximity

#: Distance (in the lambda plane) under which generic series evaluation is
#: refused and the caller must use the scaled limit `eval_fn_limit`.
POLE_TOL = 1e-6


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


def _series(table: CoefficientTable, k: complex, x, scale: float,
            second: bool = False) -> tuple:
    """f(x; k), its x-derivative and, with ``second``, its second
    x-derivative, over a scalar or 1-d array x; the results are shaped like x.

    The weights are contracted with the table once, u_a = sum_n w_n V[n,a],
    and sum_a u_a (ia)^d e^{iax} is summed by Horner's rule in z = e^{ix},
    elementwise (a point's bits do not depend on the rest of x) and in
    O(len(x)) memory.

    Raises PoleProximity when k is closer than `POLE_TOL` to a pole
    k = -in/2 of a live row, the distance measured in the lam plane (the
    k-distance divided by ``scale``).
    """
    rows = table.live_rows
    denom = (rows + 1.0) - 2j * k
    # n - 2ik = -2i (k + in/2), so the weights' own denominators give the
    # pole distance
    dist = np.min(np.abs(denom), initial=np.inf) / (2.0 * scale)
    if dist < POLE_TOL:
        raise PoleProximity(
            f"lambda is {dist:.3g} from a pole of the series (tolerance {POLE_TOL})"
        )
    u = (1.0 / denom) @ table.entries[rows]
    x = np.atleast_1d(x)
    ia = 1j * np.arange(1, table.order + 1)
    coef = np.stack([u, ia * u, ia * ia * u][: 3 if second else 2], axis=1)
    z = np.exp(1j * x)
    acc = np.zeros((coef.shape[1],) + x.shape, dtype=complex)
    for c in coef[::-1]:
        acc = (acc + c[:, None]) * z
    g, dg, *d2g = acc
    g = 1.0 + g
    e = np.exp(k * x)
    derivs = [e * g, e * (k * g + dg)]
    if second:
        derivs.append(e * (k * k * g + 2.0 * k * dg + d2g[0]))
    return tuple(derivs)


def _sample(table: CoefficientTable, beta: float, which: str, lam, x) -> SolutionSample:
    """One branch at one (x, lam); arrays of x go to `eval_with_residual`."""
    if np.ndim(x):
        raise ValueError("x must be a scalar; eval_with_residual takes an array")
    k, scale = _exponent(which, complex(lam), beta)
    f, df = _series(table, k, x, scale)
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


def eval_with_residual(potential: FourierPotential, table: CoefficientTable, lam: complex,
                       x, which: str) -> tuple:
    """Value, slope and ODE residual of one branch over the real array x,
    from a single series pass; see `ode_residual`.

    Every point is computed elementwise, so each one has the same bits as
    `eval_f1` / `eval_f2` and `ode_residual` at that x alone.
    """
    lam = complex(lam)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k, scale = _exponent(which, lam, potential.beta)
    f, df, f2d = _series(table, k, x, scale, second=True)
    rho = np.where(x >= 0, 1.0, -(potential.beta**2))
    return f, df, -f2d + potential.at(x) * f - lam * lam * rho * f


def ode_residual(potential: FourierPotential, table: CoefficientTable, lam: complex, x: float,
                 which: str) -> complex:
    """-f'' + q(x) f - lam^2 rho(x) f for one of the four truncated series.

    The second derivative is exact term-wise differentiation of the stored
    series.  ``which`` is one of 'f1+', 'f1-', 'f2+', 'f2-'; rho(x) is 1 for
    x >= 0 and -beta^2 otherwise (evaluate away from the jump at 0).
    """
    if np.ndim(x):
        raise ValueError("x must be a scalar; eval_with_residual takes an array")
    return complex(eval_with_residual(potential, table, lam, x, which)[2][0])

