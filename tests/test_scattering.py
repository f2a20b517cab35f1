"""Connection coefficients, their identities, asymptotics and pole strengths."""

import numpy as np
import pytest

from spectral_sl import (
    FourierPotential,
    PoleProximity,
    ZeroWavenumber,
    build_table,
    coefficient_evaluators,
    connection_coefficients,
    eval_f1,
    eval_f2,
    wronskian,
)
from spectral_sl.errors import ExtrapolationDivergence
from spectral_sl.inverse import sample_points
from spectral_sl.scattering import pole_circle, pole_strength, pole_strengths, rational_form
from spectral_sl.solutions import POLE_TOL
from spectral_sl.spectrum import scan_spectrum

from .conftest import EIG_POTENTIAL, offlattice_lambda, random_potential
from .oracles import QC, exact_forward_table

# the two potentials of the mpmath oracle; power-of-two denominators make
# the float harmonics equal the exact ones
EXACT_POTENTIALS = {
    "q1": (1.0, [QC.of(1)]),
    "h3": (0.75, [QC.of("1/2", "-1/4"), QC.of("-1/4", "1/2"), QC.of("1/8", "1/8")]),
}


class TestWronskianValues:
    def test_plane_wave_pair(self, zero_table):
        lam = 1.0
        w = wronskian(
            eval_f1(zero_table, lam, 0.4, "+"), eval_f1(zero_table, lam, 0.4, "-")
        )
        assert abs(w - 2j) < 1e-14

    def test_exponential_pair(self, zero_table):
        w = wronskian(
            eval_f2(zero_table, 2.0, 1.0, -0.3, "+"),
            eval_f2(zero_table, 2.0, 1.0, -0.3, "-"),
        )
        assert abs(w - 4.0) < 1e-14

    def test_x_independence_random_potential(self):
        rng = np.random.default_rng(21)
        p = random_potential(rng)
        t = build_table(p, 30)
        lam = offlattice_lambda(rng, p.beta)
        ws = [
            wronskian(eval_f1(t, lam, x, "+"), eval_f1(t, lam, x, "-"))
            for x in np.linspace(-3.0, 3.0, 11)
        ]
        assert max(abs(w - ws[0]) for w in ws) < 1e-9 * abs(ws[0])


class TestConnectionCoefficients:
    def test_free_closed_forms(self, zero_table):
        for beta in (0.5, 1.0, 2.0):
            for lam in (0.6 + 0.8j, 2.0 - 0.5j):
                cc = connection_coefficients(zero_table, beta, lam)
                assert abs(cc.c11 + (1 - 1j * beta) / 2) < 1e-12
                assert abs(cc.c12 + (1 + 1j * beta) / 2) < 1e-12

    def test_zero_wavenumber_guard(self, zero_table):
        with pytest.raises(ZeroWavenumber):
            connection_coefficients(zero_table, 1.0, 0.0)

    def test_cross_identities(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            p = random_potential(rng)
            t = build_table(p, 30)
            lam = offlattice_lambda(rng, p.beta)
            cc = connection_coefficients(t, p.beta, lam)
            ccm = connection_coefficients(t, p.beta, -lam)
            assert abs(cc.c22 - (1j / p.beta) * ccm.c11) < 1e-10 * max(1.0, abs(cc.c22))
            assert abs(cc.c21 + (1j / p.beta) * cc.c12) < 1e-10 * max(1.0, abs(cc.c21))

    def test_specific_cross_identity_value(self):
        t = build_table(FourierPotential(beta=1.0, q=(1.0,)), 30)
        lam = 2.0 + 2.0j
        cc = connection_coefficients(t, 1.0, lam)
        ccm = connection_coefficients(t, 1.0, -lam)
        assert abs(cc.c22 * 1.0 / 1j - ccm.c11) < 1e-10

    def test_determinant_identity(self):
        # c11(lam) c11(-lam) - c12(lam) c12(-lam) = -i beta, the constant
        # Wronskian determinant of the matching
        rng = np.random.default_rng(27)
        for _ in range(6):
            p = random_potential(rng)
            t = build_table(p, 30)
            lam = offlattice_lambda(rng, p.beta)
            cc = connection_coefficients(t, p.beta, lam)
            ccm = connection_coefficients(t, p.beta, -lam)
            det = cc.c11 * ccm.c11 - cc.c12 * ccm.c12
            assert abs(det + 1j * p.beta) < 1e-10

    def test_large_lambda_asymptote(self, q1_table_30):
        c11_fn, c12_fn = coefficient_evaluators(q1_table_30, 1.0)
        d = np.exp(0.25j * np.pi)
        devs = [abs(c12_fn(r * d) + (1 + 1j) / 2) for r in (10.0, 100.0, 1000.0)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2

    def test_analyticity_by_contour_integral(self, q1_table_30):
        # closed-loop integral of an analytic function vanishes; trapezoid on
        # a circle converges spectrally so the check is sharp
        _c11, c12 = coefficient_evaluators(q1_table_30, 1.0)
        theta = np.linspace(0.0, 2 * np.pi, 257)[:-1]
        z = 1.1 + 0.8j + 0.3 * np.exp(1j * theta)
        dz = 0.3j * np.exp(1j * theta) * (2 * np.pi / 256)
        integral = np.sum(c12(z) * dz)
        assert abs(integral) < 1e-8


class TestCoefficientRoutes:
    def test_unguarded_route_equals_guarded(self):
        # the guard of connection_coefficients only refuses: its values have
        # the bits of the unguarded evaluators and forms
        rng = np.random.default_rng(31)
        for _ in range(4):
            p = random_potential(rng)
            t = build_table(p, 30)
            lam = np.array([offlattice_lambda(rng, p.beta) for _ in range(64)])
            c11_fn, c12_fn = coefficient_evaluators(t, p.beta)
            free = {"c11": c11_fn(lam), "c12": c12_fn(lam)}
            free.update((name, rational_form(t, p.beta, name)(lam)) for name in ("c21", "c22"))
            for i, z in enumerate(lam):
                cc = connection_coefficients(t, p.beta, z)
                for name, values in free.items():
                    assert values[i].tobytes() == np.complex128(getattr(cc, name)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_guarded_route_refuses_a_pole(self, q1_table_30, n):
        # c11 holds f1-, whose pole sits at +n/2
        step = np.exp(0.3j)
        with pytest.raises(PoleProximity):
            connection_coefficients(q1_table_30, 1.0, n / 2 + 0.9 * POLE_TOL * step)
        cc = connection_coefficients(q1_table_30, 1.0, n / 2 + 1.1 * POLE_TOL * step)
        assert np.isfinite(cc.c11)

    @pytest.mark.parametrize(
        "potential",
        [EIG_POTENTIAL, FourierPotential(beta=0.8, q=(2.0 + 4.0j, 1.0j, -1.0)),
         FourierPotential(beta=1.0, q=(1.0,))],
        ids=["eig", "h3", "q1"],
    )
    def test_a_sample_does_not_depend_on_its_batch(self, potential):
        # the export plan evaluated in one call has the bits of each point
        # evaluated alone
        table = build_table(potential, 30)
        report = scan_spectrum(table, potential.beta)
        points = sample_points([(h.lam, h.sector, h.multiplicity) for h in report.eigenvalues], 6)
        for fn in coefficient_evaluators(table, potential.beta):
            batch = fn(points)
            alone = np.array([fn(z) for z in points])
            assert batch.tobytes() == alone.tobytes()

    def test_terms_has_the_value_bits(self):
        # Newton and the residual filter read terms(z)[0], the export and the
        # report read form(z): one sum, bit for bit, on EIG's export plan and
        # at the zeros the scan lists
        table = build_table(EIG_POTENTIAL, 30)
        report = scan_spectrum(table, EIG_POTENTIAL.beta)
        points = sample_points([(h.lam, h.sector, h.multiplicity) for h in report.eigenvalues], 6)
        zeros = np.array([h.lam for h in report.eigenvalues])
        for form in coefficient_evaluators(table, EIG_POTENTIAL.beta):
            for z in (points, zeros):
                assert form.terms(z)[0].tobytes() == form(z).tobytes()


def _one_circle_reference(c11_fn, c12_fn, n, rel_tol=1e-6):
    """The circle rule for one n, one check after another: the estimate, or
    the message of the first check it fails."""
    lam = pole_circle(n)
    c12 = np.asarray(c12_fn(lam), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (lam - n / 2.0) * np.asarray(c11_fn(lam), dtype=complex) / c12
        if not np.all(np.isfinite(g)):
            return f"non-finite ratio sample on the circle at n={n}"
        steps = np.angle(np.roll(c12, -1) / c12)
    if np.max(np.abs(steps)) >= np.pi / 2 or abs(np.sum(steps)) > np.pi:
        return f"c12 winds around a zero inside the circle at n={n}"
    full = 2.0 * np.mean(g)
    half = 2.0 * np.mean(g[::2])
    if abs(full - half) > rel_tol * max(1.0, abs(full)):
        return f"pole strength at n={n} did not settle: {half} vs {full}"
    return complex(full)


class TestPoleStrength:
    @pytest.mark.parametrize(
        "zero",
        [None, 1.0 + 0.005j, 1.515, 2.0, 2.52 + 0.001j, complex(pole_circle(6)[0])],
        ids=["none", "inside-2", "outside-3", "centre-4", "outside-5", "on-circle-6"],
    )
    def test_batch_matches_one_circle_at_a_time(self, zero):
        # every row of the batch equals the rule applied to its circle alone,
        # bit for bit, and a rejected row carries that rule's message
        rng = np.random.default_rng(29)
        p = random_potential(rng, max_harmonics=3)
        c11_fn, c12_fn = coefficient_evaluators(build_table(p, 30), p.beta)
        if zero is not None:
            c12_fn = lambda lam, c12_fn=c12_fn: c12_fn(lam) * (lam - zero)
        values, reasons = pole_strengths(c11_fn, c12_fn, np.arange(1, 7))
        for n in range(1, 7):
            expect = _one_circle_reference(c11_fn, c12_fn, n)
            got = reasons[n - 1] if reasons[n - 1] is not None else complex(values[n - 1])
            assert got == expect
            if isinstance(expect, complex):
                assert np.signbit([got.real, got.imag]).tolist() == np.signbit([expect.real, expect.imag]).tolist()

    def test_free_case_has_no_pole(self, zero_table):
        assert abs(pole_strength(*coefficient_evaluators(zero_table, 1.0), 1)) < 1e-10

    @pytest.mark.parametrize("n,expect", [(1, -1.0), (3, -1.0 / 12.0)])
    def test_single_harmonic_diagonal(self, q1_table_30, n, expect):
        got = pole_strength(*coefficient_evaluators(q1_table_30, 1.0), n)
        assert abs(got - expect) < 1e-8

    def test_matches_diagonal_for_random_potentials(self):
        rng = np.random.default_rng(24)
        p = random_potential(rng, max_harmonics=4)
        t = build_table(p, 30)
        for n in (1, 2, 3, 4):
            got = pole_strength(*coefficient_evaluators(t, p.beta), n)
            assert abs(got - t.entry(n, n)) < 1e-7 * max(1.0, abs(t.entry(n, n)))

    @pytest.mark.parametrize(
        "zero",
        [0.5, 0.5 + 0.005j, 0.515],
        ids=["on-pole", "inside-circle", "just-outside-circle"],
    )
    def test_divergence_when_coefficient_vanishes_at_pole(self, zero):
        # a zero of the denominator function at or next to the singular
        # point: inside the circle c12 winds around it; just outside, the
        # 16-point and 32-point trapezoidal estimates disagree
        c11_fn = lambda z: 1.0 / (1.0 - 2.0 * z)
        c12_fn = lambda z: z - zero
        with pytest.raises(ExtrapolationDivergence):
            pole_strength(c11_fn, c12_fn, 1)

    @pytest.mark.parametrize("name", sorted(EXACT_POTENTIALS))
    def test_matches_exact_rational_diagonal(self, name):
        beta, harmonics = EXACT_POTENTIALS[name]
        exact = exact_forward_table(harmonics, 6)
        potential = FourierPotential(beta=beta, q=tuple(h.to_complex() for h in harmonics))
        table = build_table(potential, 30)
        for n in range(1, 7):
            truth = exact[(n, n)].to_complex()
            got = pole_strength(*coefficient_evaluators(table, beta), n)
            assert abs(got - truth) <= 1e-12 * abs(truth)
