"""Spectral-data providers and the reconstruction pipeline."""

import warnings
from collections import Counter

import numpy as np
import pytest

from spectral_sl import (
    AnalyticProvider,
    FourierPotential,
    InsufficientSamples,
    NoData,
    NonRealBeta,
    SampledProvider,
    SchemaError,
    SpectralError,
    recover_beta,
    recover_diagonal,
    reconstruct,
    table_from_diagonal,
)
from spectral_sl.coeffs import recurrence_residuals
from spectral_sl.errors import ExtrapolationDivergence
from spectral_sl.inverse import FALLBACK_DIRECTION, FALLBACK_RADII, sample_points
from spectral_sl.scattering import pole_strength, pole_strengths

from .conftest import EIG_POTENTIAL, random_potential


def make_sampled(potential, n_max=5, analytic=None):
    """File-grade sample set for a potential, returned as a provider."""
    prov = analytic or AnalyticProvider(potential, 30)
    pts = sample_points(prov.eigenvalues, n_max)
    return SampledProvider(pts, prov.eval_c11(pts), prov.eval_c12(pts), prov.eigenvalues)


class SyntheticProvider:
    """Hand-built coefficient functions for harness validation; like every
    provider's, they map an array of points to an array of values."""

    def __init__(self, beta, lam0=None):
        self.beta = beta
        self.lam0 = lam0
        self.eigenvalues = [] if lam0 is None else [(lam0, 0, 1)]

    def eval_c11(self, lam):
        # constant with c11(lam) c11(-lam) = -i beta
        return np.full(np.shape(lam), complex(np.sqrt(-1j * self.beta)))

    def eval_c12(self, lam):
        lam = np.asarray(lam, dtype=complex)
        base = -(1 + 1j * self.beta) / 2
        if self.lam0 is None:
            return np.full(lam.shape, base)
        return base * (lam - self.lam0) / lam


class CountingProvider:
    """Another provider's data, counting the calls of each evaluator."""

    def __init__(self, inner, eigenvalues=None):
        self.inner = inner
        self.eigenvalues = inner.eigenvalues if eigenvalues is None else eigenvalues
        self.calls = Counter()

    def eval_c11(self, lam):
        self.calls["c11"] += 1
        return self.inner.eval_c11(lam)

    def eval_c12(self, lam):
        self.calls["c12"] += 1
        return self.inner.eval_c12(lam)


def _two_zero_c11(lam):
    # a simple pole at every half-integer n/2, n = 1 ... 6
    return sum(1.0 / (n - 2.0 * lam) for n in range(1, 7))


def _two_zero_c12(lam):
    # a zero inside the circle at 1 and one 0.015 from 3/2, just outside its circle
    return (lam - (1.0 + 0.005j)) * (lam - 1.515)


class TestRecoverDiagonal:
    def test_one_call_per_evaluator(self):
        prov = CountingProvider(make_sampled(EIG_POTENTIAL, n_max=6))
        recover_diagonal(prov, 6)
        assert prov.calls == {"c11": 1, "c12": 1}

    def test_rejected_circles_leave_the_others(self):
        class TwoZeros:
            eigenvalues = []
            eval_c11 = staticmethod(_two_zero_c11)
            eval_c12 = staticmethod(_two_zero_c12)

        diag, flags = recover_diagonal(TwoZeros(), 6)
        assert flags == [True, False, False, True, True, True]
        assert diag[1] == diag[2] == 0.0
        for n in (1, 4, 5, 6):
            assert diag[n - 1] == pole_strength(_two_zero_c11, _two_zero_c12, n)
        with pytest.raises(ExtrapolationDivergence, match=r"^c12 winds around a zero inside the circle at n=2$"):
            pole_strength(_two_zero_c11, _two_zero_c12, 2)
        with pytest.raises(ExtrapolationDivergence, match=r"^pole strength at n=3 did not settle: "):
            pole_strength(_two_zero_c11, _two_zero_c12, 3)

    def test_free_potential(self):
        prov = AnalyticProvider(FourierPotential(beta=1.0, q=()), 10)
        diag, _flags = recover_diagonal(prov, 3)
        assert max(abs(v) for v in diag) < 1e-10

    def test_single_harmonic(self):
        prov = AnalyticProvider(FourierPotential(beta=1.0, q=(1.0,)), 30)
        diag, _flags = recover_diagonal(prov, 3)
        expect = (-1.0, -0.5, -1.0 / 12.0)
        for got, ref in zip(diag, expect):
            assert abs(got - ref) < 1e-8

    def test_random_band_limited(self):
        rng = np.random.default_rng(51)
        p = random_potential(rng, max_harmonics=4)
        prov = AnalyticProvider(p, 30)
        diag, _flags = recover_diagonal(prov, 4)
        for n, got in enumerate(diag, start=1):
            truth = prov.table.entry(n, n)
            assert abs(got - truth) < 1e-7 * max(1.0, abs(truth))


class TestRecoverBeta:
    def test_fallback_free_closed_form(self):
        prov = AnalyticProvider(FourierPotential(beta=2.0, q=()), 10)
        assert abs(recover_beta(prov) - 2.0) < 1e-10

    def test_synthetic_eigenvalue_path_is_exact(self):
        prov = SyntheticProvider(beta=1.7, lam0=1 + 1j)
        assert abs(recover_beta(prov) - 1.7) < 1e-12

    def test_both_paths_agree_synthetic(self):
        with_eig = SyntheticProvider(beta=0.9, lam0=2 + 1j)
        without = SyntheticProvider(beta=0.9, lam0=None)
        assert abs(recover_beta(with_eig) - recover_beta(without)) < 1e-6

    def test_one_call_per_beta_path(self):
        analytic = AnalyticProvider(EIG_POTENTIAL, 30)
        with_eig = CountingProvider(make_sampled(EIG_POTENTIAL, n_max=1, analytic=analytic))
        recover_beta(with_eig)
        assert with_eig.calls == {"c11": 1}
        # the plan of an eigenvalue-free spectrum holds the far-field points
        pts = sample_points([], 1)
        sampled = SampledProvider(pts, analytic.eval_c11(pts), analytic.eval_c12(pts))
        far_field = CountingProvider(sampled)
        recover_beta(far_field)
        assert far_field.calls == {"c12": 1}

    def test_both_paths_agree_on_real_point_spectrum(self):
        prov = AnalyticProvider(EIG_POTENTIAL, 30)
        primary = recover_beta(prov)

        class Stripped:
            eigenvalues = []
            eval_c11 = staticmethod(prov.eval_c11)
            eval_c12 = staticmethod(prov.eval_c12)

        fallback = recover_beta(Stripped())
        assert abs(primary - EIG_POTENTIAL.beta) < 1e-8
        assert abs(primary - fallback) < 1e-6
        # pinned near the last bits, so a change in how c11 is read shows
        # (one call per point moves it by 3.5e-14) and so does one in the
        # eigenvalue's last bits (the rational solve moved it by 5.7e-15);
        # the slack allows for BLAS kernels
        assert abs(primary - 0.9999999999999588) < 1e-14

    def test_inconsistent_data_raises(self):
        class Bad:
            eigenvalues = [(1 + 1j, 0, 1)]
            eval_c11 = staticmethod(lambda lam: np.full(np.shape(lam), 0.5 + 0.5j))
            eval_c12 = staticmethod(lambda lam: np.full(np.shape(lam), -(1 + 1j) / 2))

        with pytest.raises(NonRealBeta):
            recover_beta(Bad())

    def test_no_data_raises(self):
        empty = SampledProvider([], [], [], [])
        with pytest.raises(NoData):
            recover_beta(empty)


class TestAnalyticProvider:
    def test_overflowing_residues_raise_without_warning(self):
        # q_1 = 3e7 overflows the residues of the rational forms
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralError):
                AnalyticProvider(FourierPotential(beta=1.0, q=(3e7,)), 30, 6)

    @pytest.mark.parametrize("order, n_max", [(3, 5), (30, 0)], ids=["order-below-nmax", "nmax-0"])
    def test_order_below_n_max_is_a_schema_error(self, order, n_max):
        with pytest.raises(SchemaError, match=r"^require order >= n_max >= 1$"):
            AnalyticProvider(EIG_POTENTIAL, order, n_max)


class TestReconstructAnalytic:
    def test_free_potential(self):
        prov = AnalyticProvider(FourierPotential(beta=1.5, q=()), 10)
        res = reconstruct(prov, n_max=3)
        assert abs(res.beta - 1.5) < 1e-10
        assert max(abs(c) for c in res.q) < 1e-10

    def test_single_harmonic(self):
        prov = AnalyticProvider(FourierPotential(beta=1.0, q=(1.0,)), 30)
        res = reconstruct(prov, n_max=3)
        assert abs(res.q[0] - 1.0) < 1e-6
        assert abs(res.q[1]) < 1e-6 and abs(res.q[2]) < 1e-6
        assert abs(res.beta - 1.0) < 1e-6

    def test_eigenvalue_bearing_potential(self):
        prov = AnalyticProvider(EIG_POTENTIAL, 30)
        res = reconstruct(prov, n_max=3)
        assert abs(res.q[0] - (4 + 4j)) < 1e-6
        assert abs(res.beta - 1.0) < 1e-8
        assert res.diagnostics["eigenvalue_count"] == 6

    def test_randomised_roundtrip(self):
        rng = np.random.default_rng(60)
        for beta in (0.5, 1.0, 2.0):
            p = random_potential(rng, max_harmonics=5, beta_range=(beta, beta))
            prov = AnalyticProvider(p, 30)
            res = reconstruct(prov, n_max=5)
            assert abs(res.beta - beta) < 1e-8
            for n in range(1, 6):
                truth = p.harmonic(n)
                assert abs(res.q[n - 1] - truth) <= 1e-6 * max(1.0, abs(truth))

    def test_rebuilt_table_residual_small(self):
        rng = np.random.default_rng(61)
        p = random_potential(rng, max_harmonics=4)
        prov = AnalyticProvider(p, 30)
        diag, _flags = recover_diagonal(prov, 4)
        q = reconstruct(prov, n_max=4).q
        assert recurrence_residuals(table_from_diagonal(diag), q)[0] < 1e-9

    def test_non_finite_harmonic_raises(self):
        # c11 scaled by 1e200 on the pole circles: q_1 is 1e200, and the
        # table rebuilt from it overflows at q_2
        p = FourierPotential(beta=1.0, q=(1.0,))
        prov = AnalyticProvider(p, 30)
        pts = sample_points(prov.eigenvalues, 3)
        c11 = prov.eval_c11(pts)
        c11[: 32 * 3] *= 1e200
        sampled = SampledProvider(pts, c11, prov.eval_c12(pts), prov.eigenvalues)
        with warnings.catch_warnings(), pytest.raises(SpectralError, match="harmonic q_2 is not finite"):
            warnings.simplefilter("error")
            reconstruct(sampled, n_max=3)

    def test_conjugate_data_differs_for_asymmetric_potential(self):
        # conjugate-reflected data is genuinely different data: the recovered
        # harmonics do not collide with the originals (no hidden symmetry)
        p = FourierPotential(beta=1.0, q=(0.5 + 0.5j,))
        prov = AnalyticProvider(p, 20)

        class Conjugated:
            eigenvalues = []
            eval_c11 = staticmethod(lambda lam: np.conj(prov.eval_c11(np.conj(lam))))
            eval_c12 = staticmethod(lambda lam: np.conj(prov.eval_c12(np.conj(lam))))

        diag, _flags = recover_diagonal(prov, 1)
        diag_conj, _flags = recover_diagonal(Conjugated(), 1)
        assert abs(diag[0] - diag_conj[0]) > 0.1


class TestSampledProvider:
    def test_empty_samples(self):
        prov = SampledProvider([], [], [], [])
        with pytest.raises(InsufficientSamples):
            prov.eval_c12(1 + 1j)

    def test_off_sample_query_names_the_point(self):
        pts = [1 + 1j, 2 + 2j, 3 + 3j]
        prov = SampledProvider(pts, [1.0] * 3, [1.0] * 3, [])
        # a query next to a sample, in a batch with exact hits, is not answered
        with pytest.raises(InsufficientSamples, match=r"^no sample at \(1\.001\+1j\)$"):
            prov.eval_c12(np.array([1 + 1j, 1.001 + 1j, 2.5 + 2j]))

    def test_exact_hit_needs_no_neighbours(self):
        pts = [1 + 1j, 2 + 2j, 3 + 3j, 1 + 1j]
        vals = [0.1 + 0.7j, 0.2 - 0.3j, 1 / 3 + 1e-300j, 9.0]
        prov = SampledProvider(pts, vals, vals, [])
        assert prov.eval_c11(3 + 3j) == vals[2]
        # the first of two samples at one point wins
        got = prov.eval_c12(np.array([2 + 2j, 1 + 1j]))
        assert got.tolist() == [vals[1], vals[0]]

    def test_exact_hit_returns_sample(self):
        pts = [1 + 1j, 1.01 + 1j, 1 + 1.01j, 1.01 + 1.01j]
        vals = [2.0, 3.0, 4.0, 5.0]
        prov = SampledProvider(pts, vals, vals, [])
        assert prov.eval_c11(1 + 1j) == 2.0

    def test_sampled_reconstruction_tracks_analytic(self):
        rng = np.random.default_rng(71)
        p = random_potential(rng, max_harmonics=3)
        analytic = AnalyticProvider(p, 30)
        sampled = make_sampled(p, n_max=3, analytic=analytic)
        res_a = reconstruct(analytic, n_max=3)
        res_s = reconstruct(sampled, n_max=3)
        assert abs(res_a.beta - res_s.beta) < 1e-4
        for a, b in zip(res_a.q, res_s.q):
            assert abs(a - b) < 1e-4

    def test_sampled_roundtrip_with_eigenvalues(self):
        sampled = make_sampled(EIG_POTENTIAL, n_max=2)
        res = reconstruct(sampled, n_max=2)
        assert abs(res.beta - 1.0) < 1e-6
        assert abs(res.q[0] - (4 + 4j)) < 1e-4

    def test_farfield_clusters_cover_fallback_ring(self):
        pts = sample_points([], 6)
        # the asymptotic beta path queries exactly these points
        listed = pts.tolist()
        for r in FALLBACK_RADII:
            assert r * FALLBACK_DIRECTION in listed


def _overflowing_table():
    with pytest.raises(SpectralError, match=r"^the rebuilt harmonic q_2 is not finite$"):
        table_from_diagonal([1e300] * 30)


def _overflowing_circles():
    # every ratio sample on every circle overflows
    _values, reasons = pole_strengths(lambda lam: np.full(np.shape(lam), 1e308 + 0j),
                                      lambda lam: np.full(np.shape(lam), 1e-3 + 0j), range(1, 7))
    assert reasons == [f"non-finite ratio sample on the circle at n={n}" for n in range(1, 7)]


def _overflowing_beta():
    class Huge:
        eigenvalues = [(1 + 1j, 0, 1)]
        eval_c11 = staticmethod(lambda lam: np.full(np.shape(lam), 1e200 + 0j))
        eval_c12 = staticmethod(lambda lam: np.full(np.shape(lam), 1e-3 + 0j))

    with pytest.raises(NonRealBeta):
        recover_beta(Huge())


class TestStepsRefuseOverflow:
    @pytest.mark.parametrize("case", [_overflowing_table, _overflowing_circles, _overflowing_beta],
                             ids=["table_from_diagonal", "pole_strengths", "recover_beta"])
    def test_without_warning(self, case):
        # called directly, with no caller's errstate around them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            case()

    def test_beta_is_refused_before_the_table(self):
        # every circle is accepted, with a diagonal of 2e203 whose table
        # overflows; the far-field c12 of 1e-3 gives beta 1.002j, which wins
        pts = sample_points([], 6)
        n = np.repeat(np.arange(1, 7), 32)
        c11 = np.concatenate([1e200 / (pts[:192] - n / 2), np.zeros(6)])
        prov = SampledProvider(pts, c11, np.full(pts.shape, 1e-3 + 0j))
        assert recover_diagonal(prov, 6)[1] == [True] * 6
        with pytest.raises(NonRealBeta, match=r"^recovered beta 1\.002j "):
            reconstruct(prov, 6)
