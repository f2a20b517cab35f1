"""Independent reference values for the outputs the benchmark checks.

Only numpy is used; nothing here imports spectral_sl, so a defect in the
code being timed cannot also hide in the reference.  The mathematics is the
one in PAPER.md: a triangular table V[n, a] from the two recurrences

    a (a - n) V[n, a] + sum_{s=n}^{a-1} q_{a-s} V[n, s] = 0      (n < a)
    a * sum_{n=1}^{a} V[n, a] + q_a = 0

and the four series solutions, written with one exponent k and one weight
vector w_n:

    f(x) = e^{kx} (1 + sum_n w_n sum_a V[n, a] e^{iax})
    f1+/-:  k = +/- i lam,     w_n = 1 / (n +/- 2 lam)
    f2+/-:  k = +/- lam beta,  w_n = 1 / (n -/+ 2 i lam beta)
"""

from __future__ import annotations

import numpy as np


def table(q, order: int) -> np.ndarray:
    """V[n, a] at position [n-1, a-1], filled one column at a time."""
    qq = np.zeros(order + 1, dtype=complex)
    qq[1 : min(len(q), order) + 1] = np.asarray(q, dtype=complex)[:order]
    v = np.zeros((order + 1, order + 1), dtype=complex)
    for a in range(1, order + 1):
        n = np.arange(1, a)
        # V[n, s] is zero for s < n, so the sum may run over s = 1 .. a-1
        v[1:a, a] = -(v[1:a, 1:a] @ qq[a - n]) / (a * (a - n))
        v[a, a] = -qq[a] / a - v[1:a, a].sum()
    return v[1:, 1:]


def _exponent_and_weights(branch: str, lam, beta: float, order: int):
    lam = np.asarray(lam, dtype=complex)
    sgn = 1.0 if branch[2] == "+" else -1.0
    n = np.arange(1, order + 1)[:, None]
    if branch.startswith("f1"):
        return sgn * 1j * lam, 1.0 / (n + sgn * 2.0 * lam[None, :])
    return sgn * lam * beta, 1.0 / (n - sgn * 2j * beta * lam[None, :])


def solution(v: np.ndarray, beta: float, branch: str, lam: complex, x) -> tuple:
    """(value, x-derivative) of one branch at real points x, fixed lam."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    order = v.shape[0]
    alpha = np.arange(1, order + 1)
    e = np.exp(1j * np.outer(alpha, x))
    rows = v @ e
    drows = v @ (1j * alpha[:, None] * e)
    k, w = _exponent_and_weights(branch, [lam], beta, order)
    g = w[:, 0] @ rows
    dg = w[:, 0] @ drows
    phase = np.exp(k[0] * x)
    return phase * (1.0 + g), phase * (k[0] * (1.0 + g) + dg)


def _at_zero(v: np.ndarray, beta: float, branch: str, lam: np.ndarray) -> tuple:
    order = v.shape[0]
    s = v.sum(axis=1)
    ds = v @ (1j * np.arange(1, order + 1))
    k, w = _exponent_and_weights(branch, lam, beta, order)
    g = s @ w
    return 1.0 + g, k * (1.0 + g) + ds @ w


def c11_c12(v: np.ndarray, beta: float, lam) -> tuple:
    """Connection coefficients c11 = W(f1-, f2+) / 2i lam and
    c12 = W(f2+, f1+) / 2i lam, with W(f, g) = f' g - f g' at x = 0."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    f1p, d1p = _at_zero(v, beta, "f1+", lam)
    f1m, d1m = _at_zero(v, beta, "f1-", lam)
    f2p, d2p = _at_zero(v, beta, "f2+", lam)
    c11 = (d1m * f2p - f1m * d2p) / (2j * lam)
    c12 = (d2p * f1p - f2p * d1p) / (2j * lam)
    return c11, c12


def sector_function(v: np.ndarray, beta: float, sector: int, lam) -> np.ndarray:
    """The coefficient whose zeros in open quadrant `sector` are eigenvalues:
    c12(lam), c11(-lam), c12(-lam), c11(lam) for sectors 0, 1, 2, 3."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    arg = lam if sector in (0, 3) else -lam
    c11, c12 = c11_c12(v, beta, arg)
    return c12 if sector in (0, 2) else c11


def newton_distance(v: np.ndarray, beta: float, sector: int, lam: complex) -> float:
    """|c / c'| at lam: the distance a Newton step would move, which is the
    distance to the nearest simple zero to first order."""
    h = 1e-6 * max(1.0, abs(lam))
    f0, fp, fm = sector_function(v, beta, sector, [lam, lam + h, lam - h])
    deriv = (fp - fm) / (2.0 * h)
    return float(abs(f0) / max(abs(deriv), 1e-300))
