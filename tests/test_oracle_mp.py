"""Connection coefficients and solutions against a 30-digit mpmath oracle.

The table comes from the exact-rational recurrences in `oracles` and the
four series are summed in mpmath, so the oracle shares nothing with the
package but the harmonics.  Both sides sum the same truncated series
(order ORDER); the harmonics have power-of-two denominators, so the float
table the package builds starts from exactly the same numbers.
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from spectral_sl import (
    FourierPotential,
    build_table,
    coefficient_evaluators,
    connection_coefficients,
    eval_f1,
    eval_f2,
)
from spectral_sl.scattering import rational_form
from spectral_sl.spectrum import rational_zeros

from .oracles import QC, exact_forward_table

ORDER = 30
TOL = 1e-12

POTENTIALS = {
    "q1": (1.0, [QC.of(1)]),
    "h3": (0.75, [QC.of("1/2", "-1/4"), QC.of("-1/4", "1/2"), QC.of("1/8", "1/8")]),
}


def _lambdas(beta):
    """Six points per open quadrant, |lam| from 0.25 to 9, plus points
    1e-3 from n/2 and i n/(2 beta), n = 1, 2, 3, on both sides of 0."""
    out = []
    for quadrant in range(4):
        for j, r in enumerate((0.25, 0.8, 1.7, 3.1, 5.5, 9.0)):
            theta = (quadrant + 0.1 + 0.16 * j) * np.pi / 2.0
            out.append(r * complex(np.cos(theta), np.sin(theta)))
    off = 1e-3 * complex(np.exp(0.3j))
    for n in (1, 2, 3):
        for sign in (1.0, -1.0):
            out.append(sign * n / 2.0 + off)
            out.append(sign * 1j * n / (2.0 * beta) + off)
    return out


class MpOracle:
    """The four solution series and the connection coefficients in mpmath."""

    def __init__(self, beta, harmonics):
        exact = exact_forward_table(harmonics, ORDER)
        self.beta = mp.mpf(beta)
        self.v = {
            key: mp.mpc(mp.mpf(q.re.numerator) / q.re.denominator,
                        mp.mpf(q.im.numerator) / q.im.denominator)
            for key, q in exact.items()
        }
        self.sums = {}

    def row_sums(self, x):
        """(sum_a V[n,a] e^{iax}, sum_a V[n,a] (ia) e^{iax}) for n = 1 ... ORDER."""
        e = [mp.exp(1j * a * x) for a in range(ORDER + 1)]
        s = [sum(self.v[(n, a)] * e[a] for a in range(n, ORDER + 1)) for n in range(1, ORDER + 1)]
        ds = [sum(self.v[(n, a)] * 1j * a * e[a] for a in range(n, ORDER + 1))
              for n in range(1, ORDER + 1)]
        return s, ds

    def branch(self, which, lam, x):
        """(f, f') of branch 'f1+', 'f1-', 'f2+' or 'f2-' at (x, lam)."""
        lam, x = mp.mpc(lam), mp.mpf(x)
        k = 1j * lam if which[1] == "1" else lam * self.beta
        if which[2] == "-":
            k = -k
        if x not in self.sums:
            self.sums[x] = self.row_sums(x)
        s, ds = self.sums[x]
        w = [1 / (n - 2j * k) for n in range(1, ORDER + 1)]
        g = mp.fsum(wn * sn for wn, sn in zip(w, s))
        dg = mp.fsum(wn * sn for wn, sn in zip(w, ds))
        e = mp.exp(k * x)
        return e * (1 + g), e * (k * (1 + g) + dg)

    def coefficients(self, lam):
        """(c11, c12, c21, c22) from their Wronskians f' g - f g' at x = 0."""
        z = {b: self.branch(b, lam, 0) for b in ("f1+", "f1-", "f2+", "f2-")}

        def w(f, g):
            return z[f][1] * z[g][0] - z[f][0] * z[g][1]

        lam = mp.mpc(lam)
        return (
            w("f1-", "f2+") / (2j * lam),
            w("f2+", "f1+") / (2j * lam),
            w("f1+", "f2+") / (2 * lam * self.beta),
            w("f2-", "f1+") / (2 * lam * self.beta),
        )


BRANCHES = ("f1+", "f1-", "f2+", "f2-")
XS = (-0.7, 0.0, 1.3)


@pytest.fixture(scope="module", params=sorted(POTENTIALS))
def case(request):
    """(table, beta, lambdas, coefficients, solutions): the oracle's
    (c11, c12, c21, c22) at every lambda and its (f, f') of every branch at
    every fourth lambda and each x in XS."""
    beta, harmonics = POTENTIALS[request.param]
    potential = FourierPotential(beta=beta, q=tuple(q.to_complex() for q in harmonics))
    lams = _lambdas(beta)
    with mp.workdps(30):
        oracle = MpOracle(beta, harmonics)
        coefficients = [tuple(complex(c) for c in oracle.coefficients(lam)) for lam in lams]
        solutions = {
            (which, lam, x): tuple(complex(c) for c in oracle.branch(which, lam, x))
            for which in BRANCHES for lam in lams[::4] for x in XS
        }
    return build_table(potential, ORDER), beta, lams, coefficients, solutions


def _off(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_coefficient_evaluators_match_oracle(case):
    table, beta, lams, expect, _solutions = case
    c11_fn, c12_fn = coefficient_evaluators(table, beta)
    arr = np.array(lams)
    got11, got12 = c11_fn(arr), c12_fn(arr)
    for i, lam in enumerate(lams):
        assert _off(got11[i], expect[i][0]) < TOL, lam
        assert _off(got12[i], expect[i][1]) < TOL, lam


def test_connection_coefficients_match_oracle(case):
    table, beta, lams, expect, _solutions = case
    for lam, want in zip(lams, expect):
        cc = connection_coefficients(table, beta, lam)
        for got, ref in zip((cc.c11, cc.c12, cc.c21, cc.c22), want):
            assert _off(got, ref) < TOL, lam


@pytest.mark.parametrize("which", BRANCHES)
def test_solutions_match_oracle(case, which):
    table, beta, lams, _coefficients, solutions = case
    for lam in lams[::4]:
        for x in XS:
            if which[:2] == "f1":
                s = eval_f1(table, lam, x, which[2])
            else:
                s = eval_f2(table, beta, lam, x, which[2])
            value, derivative = solutions[(which, lam, x)]
            assert _off(s.value, value) < TOL, (lam, x)
            assert _off(s.derivative, derivative) < TOL, (lam, x)


def test_near_axis_zeros_of_c11_are_zeros_of_the_oracle():
    # every zero of EIG's c11 in the fourth quadrant that passes the residual
    # filter, the five within 0.1 of an axis that the report leaves out
    # included, is a zero of the 30-digit c11 on the scale of the terms that
    # cancel in it
    beta, harmonics = 1.0, [QC.of(4, 4)]
    table = build_table(FourierPotential(beta=beta, q=(4 + 4j,)), ORDER)
    form = rational_form(table, beta, "c11")
    d, p, r = form
    zeros = [z for z, _m in rational_zeros(form, (0.0, np.inf, -np.inf, 0.0))]
    near_axis = [z for z in zeros if min(z.real, -z.imag) < 0.1]
    assert len(zeros) == 7 and len(near_axis) == 5
    with mp.workdps(30):
        oracle = MpOracle(beta, harmonics)
        for z in zeros:
            scale = abs(d) + np.sum(np.abs(r / (z - p)))
            assert abs(complex(oracle.coefficients(z)[0])) <= 1e-10 * scale, z
