"""Coefficient-table construction, inversion and diagnostics."""

import math
import warnings

import numpy as np
import pytest

from spectral_sl import (
    FourierPotential,
    SpectralError,
    build_table,
    table_from_diagonal,
    tail_report,
)
from spectral_sl.coeffs import harmonics_from_table, recurrence_residuals

from .conftest import Q1_TABLE_3, random_potential
from .oracles import QC, exact_diagonal_fill, exact_forward_table


class TestPotential:
    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            FourierPotential(beta=0.0, q=(1.0,))
        with pytest.raises(ValueError):
            FourierPotential(beta=-1.0)
        with pytest.raises(ValueError):
            FourierPotential(beta=math.inf)
        with pytest.raises(ValueError):
            FourierPotential(beta=1.0 + 0.5j)

    def test_harmonics_beyond_band_are_zero(self):
        p = FourierPotential(beta=1.0, q=(1.0, 2.0))
        assert p.harmonic(2) == 2.0
        assert p.harmonic(3) == 0.0

    def test_potential_evaluation(self):
        p = FourierPotential(beta=1.0, q=(1.0,))
        x = 0.7
        assert abs(p.at(x) - np.exp(1j * x)) < 1e-15
        # an array gives each point the bits of that point alone
        p = FourierPotential(beta=1.0, q=(1.0, -0.5 + 2j, 0.25j))
        xs = np.linspace(-3.0, 3.0, 41)
        assert p.at(xs).tolist() == [complex(p.at(float(x))) for x in xs]


class TestForwardTable:
    def test_zero_potential_gives_zero_table(self):
        t = build_table(FourierPotential(beta=1.0, q=()), 5)
        assert np.all(t.entries == 0.0)

    def test_single_harmonic_order_three(self):
        t = build_table(FourierPotential(beta=1.0, q=(1.0,)), 3)
        for (n, a), val in Q1_TABLE_3.items():
            assert abs(t.entry(n, a) - val) < 1e-15, (n, a)

    def test_recurrences_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_potential(rng, max_harmonics=4)
            t = build_table(p, 20)
            r6, r7 = recurrence_residuals(t, p.q)
            assert r6 < 1e-12 and r7 < 1e-12

    def test_column_scaling_single_harmonic(self):
        # every entry of column a is a rational multiple of q_1^a, so scaling
        # the harmonic scales the column by c^a; the first entry is exactly
        # -c q_1
        q1 = 0.4 - 0.7j
        c = 0.6 + 0.35j
        t1 = build_table(FourierPotential(beta=1.0, q=(q1,)), 5)
        tc = build_table(FourierPotential(beta=1.0, q=(c * q1,)), 5)
        assert tc.entry(1, 1) == -c * q1
        for a in range(1, 6):
            for n in range(1, a + 1):
                assert abs(tc.entry(n, a) - (c**a) * t1.entry(n, a)) < 1e-13

    def test_scaled_table_stays_bounded(self):
        # entries are polynomials in the scale factor, so |c| <= 1 keeps the
        # scaled table finite
        q = (0.4 - 0.7j, 0.3 + 0.1j)
        base = build_table(FourierPotential(beta=1.0, q=q), 8)
        for c in (0.3, 0.9 * 1j, -1.0):
            tc = build_table(FourierPotential(beta=1.0, q=tuple(c * v for v in q)), 8)
            assert tc.entry(1, 1) == -c * q[0]
            assert np.all(np.isfinite(tc.entries))
            assert np.max(np.abs(tc.entries)) <= np.max(np.abs(base.entries)) + 1.0

    def test_overflowing_table_raises_without_warning(self):
        # column a grows like q_1^a, so q_1 = 1e100 passes the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralError, match=r"^the table of order 30 overflows double precision$"):
                build_table(FourierPotential(beta=1.0, q=(1e100,)), 30)

    def test_nonzero_diagonal_propagates_along_row(self):
        # exact arithmetic: for a single-harmonic potential, V[n,n] != 0
        # forces V[n,a] != 0 for every a > n
        v = exact_forward_table([QC.of(1)], 8)
        for n in range(1, 9):
            if not v[(n, n)].is_zero():
                for a in range(n + 1, 9):
                    assert not v[(n, a)].is_zero()

    def test_single_harmonic_entries_are_rational(self):
        # with q_1 = 1 every entry is rational (the exact oracle stays in
        # Fraction arithmetic), and the float table matches it
        v = exact_forward_table([QC.of(1)], 5)
        t = build_table(FourierPotential(beta=1.0, q=(1.0,)), 5)
        for (n, a), val in v.items():
            assert val.im == 0
            assert abs(t.entry(n, a) - val.to_complex()) < 1e-15


class TestExactOracleAgreement:
    def test_float_table_matches_exact_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            nh = int(rng.integers(1, 5))
            harmonics = [
                QC.of(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))).divint(9)
                for _ in range(nh)
            ]
            exact = exact_forward_table(harmonics, 8)
            p = FourierPotential(beta=1.0, q=tuple(h.to_complex() for h in harmonics))
            t = build_table(p, 8)
            for (n, a), val in exact.items():
                ref = val.to_complex()
                tol = 1e-13 * max(1.0, abs(ref))
                assert abs(t.entry(n, a) - ref) <= tol


class TestDiagonalFill:
    def test_zero_diagonal(self):
        t = table_from_diagonal([0.0, 0.0, 0.0])
        assert np.all(t.entries == 0.0)

    def test_reproduces_single_harmonic_table(self):
        t = table_from_diagonal([-1.0, -0.5, -1.0 / 12.0])
        for (n, a), val in Q1_TABLE_3.items():
            assert abs(t.entry(n, a) - val) < 1e-14, (n, a)

    def test_single_entry_diagonal(self):
        v = 0.3 - 0.8j
        t = table_from_diagonal([v, 0.0])
        assert abs(t.entry(1, 2) - v * v / 2.0) < 1e-16

    def test_matches_forward_fill_in_exact_arithmetic(self):
        # the propagation identity V[n, a+n] = V[n, n] sum_m V[m, a]/(m + n)
        # shares no step with the recurrences the package runs: over exact
        # rationals, through order 8 and for more than one harmonic, the
        # diagonal fixes the same table through either
        for harmonics in ([QC.of(1)], [QC.of(1, -2), QC.of(0, 1)], [QC.of(2, 1), QC.of(-1), QC.of(1, 1)]):
            forward = exact_forward_table(harmonics, 8)
            diag = [forward[(n, n)] for n in range(1, 9)]
            filled = exact_diagonal_fill(diag, 8)
            for key, val in forward.items():
                assert (filled[key] - val).is_zero(), key

    def test_roundtrip_through_float_pipeline(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            p = random_potential(rng, max_harmonics=6)
            t = build_table(p, 30)
            rebuilt = table_from_diagonal(list(t.diagonal()))
            scale = np.max(np.abs(t.entries)) or 1.0
            assert np.max(np.abs(rebuilt.entries - t.entries)) < 1e-10 * scale

    @pytest.mark.parametrize("m,bound", [
        (6, 1e-13), (10, 6e-13), (14, 2e-11), (20, 3e-11), (40, 2e-9), (80, 1.5e-7),
    ])
    def test_harmonics_from_the_exact_diagonal(self, m, bound):
        # the fill's own error on the strong sweep q = (m e^{0.7i},): the
        # diagonal is exact up to its final rounding, so whatever q_n loses
        # beyond that is lost in the fill
        q1 = m * np.exp(0.7j)
        exact = exact_forward_table([QC.of(q1.real, q1.imag)], 6)
        q = harmonics_from_table(table_from_diagonal([exact[(n, n)].to_complex() for n in range(1, 7)]))
        for got, truth in zip(q, [q1, 0, 0, 0, 0, 0]):
            assert abs(got - truth) <= bound * max(1.0, abs(truth))


class TestHarmonicsFromTable:
    def test_zero_table(self):
        t = table_from_diagonal([0.0, 0.0])
        assert harmonics_from_table(t) == [0.0, 0.0]

    def test_single_harmonic_case(self):
        t = build_table(FourierPotential(beta=1.0, q=(1.0,)), 3)
        q = harmonics_from_table(t)
        assert abs(q[0] - 1.0) < 1e-15
        assert abs(q[1]) < 1e-15 and abs(q[2]) < 1e-15

    def test_exact_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_potential(rng, max_harmonics=6)
            t = build_table(p, 12)
            q = harmonics_from_table(t)
            for n, truth in enumerate(p.q, start=1):
                assert abs(q[n - 1] - truth) <= 1e-12 * max(1.0, abs(truth))
            for n in range(len(p.q) + 1, 13):
                assert abs(q[n - 1]) < 1e-12


class TestTailWeight:
    def test_zero_table(self, zero_table):
        rep = tail_report(zero_table)
        assert rep.stored == 0.0
        assert rep.tail_estimate == 0.0 and rep.converged

    def test_single_harmonic_stored_value(self):
        t = build_table(FourierPotential(beta=1.0, q=(1.0,)), 3)
        assert abs(tail_report(t).stored - 37.0 / 12.0) < 1e-14

    def test_monotone_and_convergent_in_order(self):
        rng = np.random.default_rng(31)
        p = random_potential(rng, max_harmonics=3)
        values = [tail_report(build_table(p, a)).stored for a in (5, 10, 20, 30)]
        assert all(values[i + 1] >= values[i] for i in range(3))
        assert values[3] - values[2] < 1e-9 * max(1.0, values[3])

    def test_nonconvergence_is_reported(self):
        t = build_table(FourierPotential(beta=1.0, q=(30.0,)), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reported, not warned about
            rep = tail_report(t)
        assert not rep.converged
        assert rep.tail_estimate == math.inf
        # the stored part is still reported
        assert math.isfinite(rep.stored)
