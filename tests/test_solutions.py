"""Fundamental-solution evaluation, limits, residuals and continuation."""

import warnings

import numpy as np
import pytest

from spectral_sl import (
    FourierPotential,
    PoleProximity,
    SpectralError,
    ZeroWavenumber,
    build_table,
    eval_f1,
    eval_f2,
    eval_fn_limit,
    ode_residual,
    whole_line,
    wronskian,
)
from spectral_sl.scattering import matching_coefficients_f1, matching_coefficients_f2
from spectral_sl.solutions import _exponent, _series, _weights, eval_with_residual

from .conftest import EIG_POTENTIAL, Q1_TABLE_3, offlattice_lambda, random_potential
from .oracles import QC, exact_forward_table

Q1 = FourierPotential(beta=1.0, q=(1.0,))


class TestFreeSolutions:
    def test_f1_is_plane_wave(self, zero_table):
        for lam in (0.7 + 0.4j, -1.3 + 2.1j, 2.0):
            for x in (0.0, 1.1, -0.6):
                s = eval_f1(zero_table, lam, x, "+")
                assert abs(s.value - np.exp(1j * lam * x)) < 1e-14
                assert abs(s.derivative - 1j * lam * np.exp(1j * lam * x)) < 1e-14

    def test_f2_is_real_exponential(self, zero_table):
        beta = 1.7
        for lam in (0.7 + 0.4j, 1.0):
            for x in (-1.2, 0.0, 0.5):
                s = eval_f2(zero_table, beta, lam, x, "+")
                assert abs(s.value - np.exp(lam * beta * x)) < 1e-14
                assert abs(s.derivative - lam * beta * np.exp(lam * beta * x)) < 1e-14

    def test_f2_unit_values_at_origin(self, zero_table):
        s = eval_f2(zero_table, 1.0, 1.0, 0.0, "+")
        assert s.value == 1.0 and s.derivative == 1.0


class TestSeriesValues:
    def test_single_harmonic_value_at_origin(self):
        # direct summation of the frozen order-3 table
        t = build_table(Q1, 3)
        lam = 1j
        row1 = Q1_TABLE_3[(1, 1)] + Q1_TABLE_3[(1, 2)] + Q1_TABLE_3[(1, 3)]
        row2 = Q1_TABLE_3[(2, 2)] + Q1_TABLE_3[(2, 3)]
        row3 = Q1_TABLE_3[(3, 3)]
        expect = 1 + row1 / (1 + 2j) + row2 / (2 + 2j) + row3 / (3 + 2j)
        s = eval_f1(t, lam, 0.0, "+")
        assert abs(s.value - expect) < 1e-15

    def test_branch_reflection_is_exact(self, q1_table_30):
        lam = 0.9 + 0.4j
        for x in (0.0, 0.8, -1.3):
            a = eval_f1(q1_table_30, lam, x, "-")
            b = eval_f1(q1_table_30, -lam, x, "+")
            assert a.value == b.value and a.derivative == b.derivative

    def test_normalisation_at_complex_infinity(self, q1_table_30):
        # far up the imaginary x axis the series reduces to its exponential
        lam = 1j
        x = 20j
        s = eval_f1(q1_table_30, lam, x, "+")
        assert abs(s.value * np.exp(-1j * lam * x) - 1.0) < 1e-8
        s = eval_f2(q1_table_30, 1.0, 0.8 + 0.1j, x, "+")
        assert abs(s.value * np.exp(-(0.8 + 0.1j) * x) - 1.0) < 1e-8

    def test_decay_bound_on_positive_axis(self):
        rng = np.random.default_rng(8)
        p = random_potential(rng)
        t = build_table(p, 30)
        lam = offlattice_lambda(rng, p.beta)
        xs = np.linspace(0.0, 50.0, 200)
        scaled = [abs(eval_f1(t, lam, x, "+").value) * np.exp(lam.imag * x) for x in xs]
        assert max(scaled) < 5.0  # |f1+| <= C e^{-Im lam x}

    def test_decay_bound_on_negative_axis(self):
        rng = np.random.default_rng(9)
        p = random_potential(rng)
        t = build_table(p, 30)
        lam = offlattice_lambda(rng, p.beta)
        xs = np.linspace(-50.0, 0.0, 200)
        scaled = [
            abs(eval_f2(t, p.beta, lam, x, "+").value) * np.exp(-lam.real * p.beta * x)
            for x in xs
        ]
        assert max(scaled) < 5.0

    def test_pole_gates(self, q1_table_30):
        with pytest.raises(PoleProximity):
            eval_f1(q1_table_30, -0.5 + 1e-9j, 0.2, "+")
        with pytest.raises(PoleProximity):
            eval_f1(q1_table_30, 1.5 + 1e-8j, 0.2, "-")
        with pytest.raises(PoleProximity):
            eval_f2(q1_table_30, 2.0, -1j / 4.0 + 1e-9, 0.2, "+")


class TestScalarArguments:
    def test_array_x_is_refused(self, q1_table_30):
        # one sample per call: an array x used to return the sample at x[0]
        x = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            eval_f1(q1_table_30, 1 + 1j, x)
        with pytest.raises(ValueError, match="scalar"):
            eval_f2(q1_table_30, 1.0, 1 + 1j, -x)
        with pytest.raises(ValueError, match="scalar"):
            ode_residual(Q1, q1_table_30, 1 + 1j, x, "f1+")


class TestWronskians:
    def test_constancy_for_random_potentials(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            p = random_potential(rng)
            t = build_table(p, 30)
            lam = offlattice_lambda(rng, p.beta)
            for x in np.linspace(-2 * np.pi, 2 * np.pi, 9):
                if abs(x) < 1e-12:
                    continue
                w = wronskian(eval_f1(t, lam, x, "+"), eval_f1(t, lam, x, "-"))
                assert abs(w - 2j * lam) < 1e-9 * abs(2j * lam)
                w = wronskian(eval_f2(t, p.beta, lam, x, "+"), eval_f2(t, p.beta, lam, x, "-"))
                assert abs(w - 2 * lam * p.beta) < 1e-9 * abs(2 * lam * p.beta)


class TestHalfIntegerLimits:
    def test_zero_table(self, zero_table):
        for n in (1, 2, 3):
            assert eval_fn_limit(zero_table, n, 0.7) == 0.0

    def test_single_harmonic_row_sum(self):
        t = build_table(Q1, 3)
        assert abs(eval_fn_limit(t, 2, 0.0) - (-1.0 / 3.0)) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_linear_dependence_identity(self, q1_table_30, n, sign):
        # the one scaled limit row equals V[n,n] times either branch's
        # opposite-branch solution at the reflected half integer
        for x in (0.0, 0.7, 2.1):
            lhs = eval_fn_limit(q1_table_30, n, x)
            if sign == "+":
                rhs = q1_table_30.entry(n, n) * eval_f1(q1_table_30, -n / 2.0, x, "-").value
            else:
                rhs = q1_table_30.entry(n, n) * eval_f1(q1_table_30, n / 2.0, x, "+").value
            assert abs(lhs - rhs) < 1e-9


class TestOdeResidual:
    def test_free_solutions_are_exact(self, zero_table):
        p0 = FourierPotential(beta=1.3, q=())
        t0 = build_table(p0, 10)
        lam = 0.8 + 0.6j
        for which, x in (("f1+", 1.2), ("f1-", 0.4), ("f2+", -0.9), ("f2-", -1.7)):
            assert abs(ode_residual(p0, t0, lam, x, which)) < 1e-13

    def test_single_harmonic_residual_small(self, q1_table_30):
        assert abs(ode_residual(Q1, q1_table_30, 1j, 1.0, "f1+")) < 1e-10

    def test_residual_decreases_with_order(self):
        vals = []
        for a in (5, 10, 20, 30):
            t = build_table(Q1, a)
            vals.append(abs(ode_residual(Q1, t, 1j, 1.0, "f1+")))
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi or lo < 1e-12

    def test_residual_on_negative_side(self):
        rng = np.random.default_rng(14)
        p = random_potential(rng)
        t = build_table(p, 30)
        lam = offlattice_lambda(rng, p.beta)
        assert abs(ode_residual(p, t, lam, -1.1, "f2+")) < 1e-9

    def test_overflow_raises_without_warning(self):
        # e^{kx} of f2- at lam = 1+1i passes the float range at x = -800
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralError, match=r"^f2- overflows double precision on \[-800\.0, -700\.0\]$"):
                eval_with_residual(EIG_POTENTIAL, 30, 1 + 1j, np.linspace(-800, -700, 3), "f2-")

    @pytest.mark.parametrize("call, message", [
        (lambda table: eval_f1(table, 1 + 1j, complex(0.0, -800.0)), r"f1\+ overflows double precision at x = -800j"),
        (lambda table: eval_f2(table, 1.0, 1 + 1j, -800.0, "-"), r"f2- overflows double precision at x = -800\.0"),
        (lambda table: whole_line(table, 1.0, "f1", 1 + 1j, -800.0), r"f2- overflows double precision at x = -800\.0"),
        (lambda table: ode_residual(EIG_POTENTIAL, table, 1 + 1j, -800.0, "f2-"),
         r"f2- overflows double precision on \[-800\.0, -800\.0\]"),
    ], ids=["eval_f1", "eval_f2", "whole_line", "ode_residual"])
    def test_scalar_overflow_raises_without_warning(self, call, message):
        # the scalar entry points refuse as eval_with_residual does: e^{kx}
        # passes the float range, at Im x = -800 for f1+ and x = -800 for f2-
        table = build_table(EIG_POTENTIAL, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralError, match=f"^{message}$"):
                call(table)


class TestExtension:
    def test_free_case_matches_native(self, zero_table):
        p0 = FourierPotential(beta=1.0, q=())
        s = whole_line(zero_table, p0.beta, "f2", 1.0, 0.0)
        assert abs(s.value - 1.0) < 1e-14
        assert abs(s.derivative - 1.0) < 1e-14

    def test_conjunction_continuity(self):
        rng = np.random.default_rng(15)
        for _ in range(6):
            p = random_potential(rng)
            t = build_table(p, 30)
            lam = offlattice_lambda(rng, p.beta)
            ext = whole_line(t, p.beta, "f2", lam, 0.0)
            nat = eval_f2(t, p.beta, lam, 0.0, "+")
            assert abs(ext.value - nat.value) < 1e-10 * max(1.0, abs(nat.value))
            assert abs(ext.derivative - nat.derivative) < 1e-10 * max(1.0, abs(nat.derivative))
            # other side: the continued oscillatory solution meets its native
            # value and slope at the jump
            a, b = matching_coefficients_f1(t, p.beta, lam)
            f2p = eval_f2(t, p.beta, lam, 0.0, "+")
            f2m = eval_f2(t, p.beta, lam, 0.0, "-")
            nat1 = eval_f1(t, lam, 0.0, "+")
            assert abs(a * f2p.value + b * f2m.value - nat1.value) < 1e-10
            assert abs(a * f2p.derivative + b * f2m.derivative - nat1.derivative) < 1e-10
            ext1 = whole_line(t, p.beta, "f1", lam, -1e-12)
            assert abs(ext1.value - nat1.value) < 1e-10

    def test_extension_wronskian_constant_on_right_half_line(self):
        rng = np.random.default_rng(16)
        p = random_potential(rng)
        t = build_table(p, 30)
        lam = offlattice_lambda(rng, p.beta)
        vals = []
        for x in np.linspace(0.0, 2 * np.pi, 9):
            ext = whole_line(t, p.beta, "f2", lam, x)
            nat = eval_f1(t, lam, x, "+")
            vals.append(wronskian(ext, nat))
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) < 1e-9 * max(1.0, abs(vals[0]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("axis", ["real", "imaginary"])
    def test_finite_at_distinguished_points(self, q1_table_30, n, axis):
        # n/2 is a pole of f1- and c11, i n/(2 beta) one of f2- and c22, but
        # neither is a pole of the continuation on the side that avoids them
        if axis == "real":
            family, lam, x, side = "f1", n / 2.0, -1.0, -1e-12
            a, b = matching_coefficients_f1(q1_table_30, Q1.beta, lam)
            plus, minus = (eval_f2(q1_table_30, Q1.beta, lam, x, s) for s in "+-")
            native = eval_f1(q1_table_30, lam, 0.0, "+")
        else:
            family, lam, x, side = "f2", 1j * n / (2.0 * Q1.beta), 1.0, 0.0
            a, b = matching_coefficients_f2(q1_table_30, Q1.beta, lam)
            plus, minus = (eval_f1(q1_table_30, lam, x, s) for s in "+-")
            native = eval_f2(q1_table_30, Q1.beta, lam, 0.0, "+")
        ext = whole_line(q1_table_30, Q1.beta, family, lam, x)
        assert np.isfinite(ext.value) and np.isfinite(ext.derivative)
        value = a * plus.value + b * minus.value
        derivative = a * plus.derivative + b * minus.derivative
        assert abs(ext.value - value) < 1e-12 * max(1.0, abs(value))
        assert abs(ext.derivative - derivative) < 1e-12 * max(1.0, abs(derivative))
        # and it meets the native solution at the jump
        at_jump = whole_line(q1_table_30, Q1.beta, family, lam, side)
        assert abs(at_jump.value - native.value) < 1e-10 * max(1.0, abs(native.value))

    def test_zero_wavenumber_rejected(self, q1_table_30):
        with pytest.raises(ZeroWavenumber):
            whole_line(q1_table_30, Q1.beta, "f2", 1e-9, 0.5)


# --- the recurrence route against the table route -----------------------------

#: The eval workload's two bases, the EIG anchor, q = (1,) and one more
#: three-harmonic potential.
ROUTE_POTENTIALS = {
    "eig": FourierPotential(beta=1.0, q=(4.0 + 4.0j,)),
    "q1": Q1,
    "h1-6": FourierPotential(beta=1.79, q=(-1.01 - 3.29j,)),
    "h3-16": FourierPotential(beta=1.76, q=(-2.82 - 0.23j, 3.49 + 4.01j, -0.97 - 2.41j)),
    "three": FourierPotential(beta=0.7, q=(0.8 - 0.3j, -0.5 + 0.9j, 0.3 + 0.2j)),
}
ROUTE_ORDER = 60


def table_route(table, k, x):
    """The table route, as an oracle: e^{kx} (1 + sum_n (n - 2ik)^-1
    sum_a V[n,a] e^{iax}) and its slope, over the table's live rows."""
    rows = table.live_rows
    w = 1.0 / ((rows + 1.0) - 2j * k)
    a = np.arange(1, table.order + 1)
    terms = table.entries[rows] * np.exp(1j * a * x)
    g = 1.0 + w @ terms.sum(axis=1)
    dg = w @ (terms * (1j * a)).sum(axis=1)
    e = np.exp(k * x)
    return e * g, e * (k * g + dg)


def recurrence(q, k, count):
    """u_0 ... u_{count-1} of a (a - 2ik) u_a = -sum_m q_m u_{a-m}, written
    out here, off every lattice point below count."""
    u = [1.0 + 0j]
    for a in range(1, count):
        num = sum(q[m - 1] * u[a - m] for m in range(1, min(a, len(q)) + 1))
        u.append(-num / (a * (a - 2j * k)))
    return u


def horner(u, x):
    """sum_a u_a e^{iax} and its slope for the weights u_1, u_2, ...; no stop."""
    z = np.exp(1j * np.asarray(x))
    g = dg = 0.0
    for a in range(len(u), 0, -1):
        g, dg = (g + u[a - 1]) * z, (dg + 1j * a * u[a - 1]) * z
    return g, dg


class TestRecurrenceRoute:
    @pytest.mark.parametrize("name", sorted(ROUTE_POTENTIALS))
    def test_values_match_the_table_route(self, name):
        p = ROUTE_POTENTIALS[name]
        table = build_table(p, ROUTE_ORDER)
        lams = [0.9 + 0.4j, -0.7 + 1.1j, -1.2 - 0.5j, 0.6 - 0.8j,  # the four quadrants
                0.5 + 1e-3, -1.0 - 1e-3,  # 1e-3 from n/2
                1j / (2 * p.beta) + 1e-3, -2j / (2 * p.beta) - 1e-3j]  # and from i n/(2 beta)
        for lam in lams:
            for which in ("f1+", "f1-", "f2+", "f2-"):
                k, _ = _exponent(which, lam, p.beta)
                for x in ((0.0, 0.7, 2.3) if which[1] == "1" else (-2.3, -0.7, 0.0)):
                    if which[1] == "1":
                        s = eval_f1(table, lam, x, which[2])
                    else:
                        s = eval_f2(table, p.beta, lam, x, which[2])
                    value, slope = table_route(table, k, x)
                    assert abs(s.value - value) <= 1e-13 * abs(value), (lam, which, x)
                    assert abs(s.derivative - slope) <= 1e-13 * abs(slope), (lam, which, x)

    @pytest.mark.parametrize("name", sorted(ROUTE_POTENTIALS))
    def test_diagonal_is_the_recurrence_numerator(self, name):
        # (n - 2ik) u_n -> -N_n(k_n)/n = V[n,n] as k -> k_n = -in/2.  The
        # table's V[n,n] = -q_n/n - sum_{m<n} V[m,n] cancels down to far
        # below its terms, so it is compared at the scale of its column.
        p = ROUTE_POTENTIALS[name]
        table = build_table(p, 20)
        exact = None
        if len(p.q) == 1:
            exact = exact_forward_table([QC.of(p.q[0].real, p.q[0].imag)], 20)
        for n in range(1, 21):
            u = recurrence(p.q, -0.5j * n, n)
            v_nn = -sum(p.harmonic(m) * u[n - m] for m in range(1, n + 1)) / n
            column = np.abs(table.entries[:, n - 1]).sum()
            assert abs(table.entry(n, n) - v_nn) <= 1e-13 * column, n
            if exact is not None:  # the recurrence itself is exact to rounding
                truth = exact[(n, n)].to_complex()
                assert abs(v_nn - truth) <= 1e-15 * abs(truth), n

    def test_dead_row_has_no_pole(self):
        # q = (0, 1): row 1 of the table is zero, so lam = -1/2 is no pole of
        # f1+; lam = -1 is one, from the live row 2
        p = FourierPotential(beta=1.0, q=(0.0, 1.0))
        table = build_table(p, 30)
        s = eval_f1(table, -0.5, 0.4, "+")
        assert np.isfinite(s.value) and np.isfinite(s.derivative)
        with pytest.raises(PoleProximity):
            eval_f1(table, -1.0, 0.4, "+")

    def test_row_dead_by_cancellation_is_refused(self):
        # q = (1, -1) zeroes V[2,2] by cancellation, not by structure: N_2(k)
        # vanishes at k_2 only, where u_2 is a removable limit the recurrence
        # cannot form, so the guard refuses the point rather than set u_2 = 0
        p = FourierPotential(beta=1.0, q=(1.0, -1.0))
        table = build_table(p, 30)
        assert table.entry(2, 2) == 0.0
        for lam in (-1.0, -1.0 + 1e-7):
            with pytest.raises(PoleProximity):
                eval_f1(table, lam, 0.4, "+")


class TestStop:
    BASES = ("h1-6", "h3-16")
    LAMS = (0.9 + 0.4j, 1.7 + 0.35j, 0.3 + 1.9j)

    @pytest.mark.parametrize("name", BASES)
    def test_stopped_sum_equals_the_full_sum(self, name):
        p = ROUTE_POTENTIALS[name]
        order = 120
        for lam in self.LAMS:
            for which in ("f1+", "f1-", "f2+", "f2-"):
                k, scale = _exponent(which, lam, p.beta)
                x = np.linspace(0.0, 6.0, 41) if which[1] == "1" else np.linspace(-6.0, -0.003, 41)
                f, df, _ = eval_with_residual(p, order, lam, x, which)
                g, dg = horner(_weights(p.q, order, k, scale, stop=False), x)
                e = np.exp(k * x)
                full, full_slope = e * (1.0 + g), e * (k * (1.0 + g) + dg)
                assert np.all(np.abs(f - full) <= 1e-15 * np.abs(full))
                assert np.all(np.abs(df - full_slope) <= 1e-15 * np.abs(full_slope))

    @pytest.mark.parametrize("name", BASES)
    def test_stop_index_depends_on_neither_order_nor_second(self, name):
        p = ROUTE_POTENTIALS[name]
        x = np.linspace(-6.0, 6.0, 25)
        for lam in self.LAMS:
            for which in ("f1+", "f1-", "f2+", "f2-"):
                k, scale = _exponent(which, lam, p.beta)
                stopped = len(_weights(p.q, 120, k, scale, stop=True))
                assert stopped < 120
                assert len(_weights(p.q, 5000, k, scale, stop=True)) == stopped
                assert len(_weights(p.q, stopped, k, scale, stop=True)) == stopped
                f, df, d2f = _series(p.q, 120, k, x, scale)
                f2, df2, d2f2 = _series(p.q, 5000, k, x, scale)
                assert np.array_equal(f, f2) and np.array_equal(df, df2) and np.array_equal(d2f, d2f2)

    def test_complex_x_below_the_axis_runs_to_the_order(self):
        # |e^{ix}| > 1 there, so the stop's bound does not hold
        p = ROUTE_POTENTIALS["h3-16"]
        table = build_table(p, 120)
        lam, x = 0.9 + 0.4j, 0.5 - 0.7j
        k, scale = _exponent("f1+", lam, p.beta)
        s = eval_f1(table, lam, x, "+")
        g, dg = horner(_weights(p.q, 120, k, scale, stop=False), x)
        e = np.exp(k * x)
        value, slope = e * (1.0 + g), e * (k * (1.0 + g) + dg)
        assert abs(s.value - value) <= 1e-15 * abs(value)
        assert abs(s.derivative - slope) <= 1e-15 * abs(slope)
