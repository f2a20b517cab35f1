"""Eigenvalue location, singular points and resolvent kernels."""

import warnings

import numpy as np
import pytest

from spectral_sl import (
    FourierPotential,
    NearSpectrum,
    SpectralError,
    build_table,
    coefficient_evaluators,
    connection_coefficients,
    eval_f1,
    eval_f2,
    resolvent_kernel,
    resolvent_residue,
    scan_spectrum,
    spectral_singularities,
    whole_line,
    wronskian,
)
import spectral_sl.scattering as scattering_module
import spectral_sl.spectrum as spectrum_module
from spectral_sl.errors import BudgetExceeded, ContourThroughZero
from spectral_sl.scattering import RationalForm, rational_form
from spectral_sl.spectrum import (
    LISTED,
    _winding,
    find_zeros,
    rational_zeros,
    secular_zeros,
    sector_of,
)

from .conftest import EIG_LAMBDA_S0, EIG_POTENTIAL, centred_limit, random_potential
from .oracles import box_winding, circle_contour, winding_number


class TestSectors:
    def test_membership(self):
        assert sector_of(1 + 1j) == 0
        assert sector_of(-1 + 1j) == 1
        assert sector_of(-1 - 1j) == 2
        assert sector_of(1 - 1j) == 3
        # as close to an axis as a double goes, still inside
        assert sector_of(complex(5e-324, -1.0)) == 3
        assert sector_of(complex(-1.0, -5e-324)) == 2

    def test_of_lambda(self):
        assert sector_of(2 - 3j) == 3
        with pytest.raises(SpectralError):
            sector_of(5.0)

    @pytest.mark.parametrize("lam", [
        1.0, -2.0, 1j, -3j, complex(-0.0, 1.0), 0.0,
        complex(np.nan, 1.0), complex(1.0, np.nan), complex(np.inf, 1.0), complex(1.0, -np.inf),
    ], ids=["real", "negative-real", "imaginary", "negative-imaginary", "negative-zero-real", "zero",
            "nan-real", "nan-imaginary", "inf-real", "inf-imaginary"])
    def test_no_quadrant_raises(self, lam):
        # the axes carry the continuous spectrum and belong to no quadrant
        with pytest.raises(SpectralError):
            sector_of(lam)


class TestSingularities:
    def test_beta_two(self):
        sings = spectral_singularities(2.0, 2)
        real = {s.value for s in sings if s.kind == "real"}
        imag = {s.value for s in sings if s.kind == "imaginary"}
        assert real == {-1.0, -0.5, 0.5, 1.0}
        assert imag == {-0.5j, -0.25j, 0.25j, 0.5j}

    def test_beta_one(self):
        sings = spectral_singularities(1.0, 1)
        assert {s.value for s in sings} == {0.5, -0.5, 0.5j, -0.5j}

    def test_actual_singularity_iff_diagonal_nonzero(self, q1_table_30, zero_table):
        # residue kernel vanishes exactly when the diagonal entry does
        assert resolvent_residue(zero_table, 1.0, 1, "real", 0.3, 1.1) == 0.0
        assert abs(resolvent_residue(q1_table_30, 1.0, 1, "real", 0.3, 1.1)) > 0.1


class TestFindZeros:
    def test_synthetic_injected_zero(self):
        beta = 1.0
        fn = lambda z: (np.asarray(z, dtype=complex) - (1 + 1j)) * (-(1 + 1j * beta) / 2)
        zeros = find_zeros(fn, (0.1, 3.0, 0.1, 3.0), tol=1e-10)
        assert len(zeros) == 1
        z, mult = zeros[0]
        assert abs(z - (1 + 1j)) < 1e-9
        assert mult == 1

    def test_double_zero_multiplicity(self):
        fn = lambda z: (np.asarray(z, dtype=complex) - (1 + 1j)) ** 2 * 0.7
        zeros = find_zeros(fn, (0.1, 3.0, 0.1, 3.0), tol=1e-9)
        assert len(zeros) == 1
        z, mult = zeros[0]
        assert mult == 2
        assert abs(z - (1 + 1j)) < 1e-6

    @pytest.mark.parametrize(
        "fn, box",
        [
            (lambda z: np.asarray(z, dtype=complex) - (1.0 + 0.1j), (0.1, 2.0, 0.1, 2.0)),
            (lambda z: np.asarray(z, dtype=complex) - (0.1 + 0.1j), (0.1, 2.0, 0.1, 2.0)),
            (lambda z: (np.asarray(z, dtype=complex) - (1.55 + 1.55j)) ** 2, (0.1, 3.0, 0.1, 3.0)),
        ],
        ids=["edge", "corner", "midlines"],
    )
    def test_contour_through_a_zero_raises(self, fn, box):
        # a zero on the root edge, at its corner, or (double) on both of its
        # midlines, where the children's contours pass through it
        with pytest.raises(ContourThroughZero):
            find_zeros(fn, box, tol=1e-10)

    def test_doubling_evaluates_only_the_midpoints(self):
        # a zero 1e-3 inside the bottom edge, midway between two first-ring
        # samples, turns the phase by about 3 across their segment: the ring
        # doubles once, and the doubling evaluates only its 512 new points
        box = (0.1, 3.0, 0.1, 3.0)
        zero = complex(0.1 + 64.5 * 2.9 / 128, 0.1 + 1e-3)
        calls = []

        def fn(z):
            z = np.asarray(z, dtype=complex)
            calls.append(z.size)
            return z - zero

        w, pts, vals = _winding(fn, box, 128)
        assert w == 1
        assert calls == [512, 512]
        assert pts.size == 1_024
        np.testing.assert_array_equal(pts, spectrum_module._boundary_points(box, 256))
        np.testing.assert_array_equal(vals, fn(pts))

    def test_identically_tiny_function_fails(self):
        fn = lambda z: (np.asarray(z, dtype=complex) - (1 + 1j)) * 1e-20
        with pytest.raises(ContourThroughZero):
            find_zeros(fn, (0.1, 2.0, 0.1, 2.0))

    def test_budget(self):
        # the box holding the double zero is quartered until the depth limit,
        # long before it shrinks to a leaf
        fn = lambda z: (np.asarray(z, dtype=complex) - (1 + 1j)) ** 2
        with pytest.raises(BudgetExceeded):
            find_zeros(fn, (0.1, 9.0, 0.1, 9.0), max_depth=2)

    def test_close_pair_across_a_midline(self):
        # both zeros lie in the depth-3 box [0.75, 1]^2 of the root box
        # [0, 2]^2, 1e-3 apart across its midline: that box winds twice and
        # is quartered, and each zero is quartered down to a leaf of its own
        a, b = 0.8745 + 0.9j, 0.8755 + 0.9j
        fn = lambda z: (np.asarray(z, dtype=complex) - a) * (np.asarray(z, dtype=complex) - b)
        zeros = find_zeros(fn, (0.0, 2.0, 0.0, 2.0), tol=1e-10)
        assert len(zeros) == 2
        (z1, m1), (z2, m2) = zeros
        assert m1 == m2 == 1
        assert abs(z1 - a) < 1e-9 and abs(z2 - b) < 1e-9


#: The four perfbench bases, as (beta, q).
BENCH_BASES = (
    (1.13, (5.5 - 1.84j, -0.98 + 2.38j)),
    (1.79, (-1.01 - 3.29j,)),
    (0.85, (2.49 + 5.23j, -1.62 + 2.23j)),
    (1.76, (-2.82 - 0.23j, 3.49 + 4.01j, -0.97 - 2.41j)),
)


def forty_six_potentials() -> list:
    """EIG, q = (1,), the four benchmark bases and 40 draws from
    default_rng(1): 1-3 harmonics with parts uniform in [-4, 4], beta
    uniform in [0.5, 2]."""
    rng = np.random.default_rng(1)
    return (
        [EIG_POTENTIAL, FourierPotential(beta=1.0, q=(1.0,))]
        + [FourierPotential(beta=b, q=q) for b, q in BENCH_BASES]
        + [random_potential(rng, amp=4.0) for _ in range(40)]
    )


#: The two branches whose Wronskian at x = 0 makes each coefficient.
PAIRS = {"c11": ("f1-", "f2+"), "c12": ("f2+", "f1+"), "c21": ("f1+", "f2+"), "c22": ("f2-", "f1+")}


def series_coefficient(table, beta, name, lam):
    """The coefficient ``name`` at lam from eval_f1/eval_f2 samples at x = 0:
    their Wronskian over 2i lam (c11, c12) or 2 lam beta (c21, c22)."""

    def sample(which):
        if which[:2] == "f1":
            return eval_f1(table, lam, 0.0, which[2])
        return eval_f2(table, beta, lam, 0.0, which[2])

    first, second = PAIRS[name]
    norm = 2j * lam if name in ("c11", "c12") else 2.0 * lam * beta
    return wronskian(sample(first), sample(second)) / norm


def sector_function(table, beta, k):
    """Quadrant k's coefficient from the evaluators: c12(lam), c11(-lam),
    c12(-lam), c11(lam) for k = 0 ... 3."""
    c11, c12 = coefficient_evaluators(table, beta)
    fn, sign = (c12 if k in (0, 2) else c11), (-1.0 if k in (1, 2) else 1.0)
    return lambda lam: fn(sign * np.asarray(lam, dtype=complex))


class TestRationalForm:
    @pytest.mark.parametrize(
        "potential",
        [EIG_POTENTIAL, FourierPotential(beta=1.0, q=(1.0,)),
         FourierPotential(beta=0.8, q=(2.0 + 4.0j, 1.0j, -1.0))],
        ids=["eig", "q1", "h3"],
    )
    def test_matches_the_series(self, potential):
        rng = np.random.default_rng(7)
        lam = rng.uniform(-5, 5, 20) + 1j * rng.uniform(-5, 5, 20)
        table, beta = build_table(potential, 30), potential.beta
        for name in ("c11", "c12"):
            d, p, r = rational_form(table, beta, name)
            assert len(p) == 2 * len(table.live_rows)
            want = np.array([series_coefficient(table, beta, name, z) for z in lam])
            got = d + (r / (lam[:, None] - p)).sum(axis=1)
            np.testing.assert_array_less(np.abs(got - want), 1e-12 * np.abs(want))
        # c21 and c22 come from the same construction with nu = 2 beta
        for z in lam:
            cc = connection_coefficients(table, beta, z)
            for name in ("c21", "c22"):
                want = series_coefficient(table, beta, name, z)
                assert abs(getattr(cc, name) - want) < 1e-12 * abs(want)

    def test_listing_matches_the_winding_count(self):
        # the argument principle is the reference: the listed coefficient
        # winds around its listing box once per listed zero, and around a
        # small circle on each hit once per unit of its multiplicity
        for potential in forty_six_potentials():
            table = build_table(potential, 30)
            coefficients = dict(zip(("c11", "c12"), coefficient_evaluators(table, potential.beta)))
            report = scan_spectrum(table, potential.beta)
            for k, name, box in LISTED:
                fn = coefficients[name]
                hits = [h for h in report.eigenvalues if h.sector == k]
                assert box_winding(fn, box) == sum(h.multiplicity for h in hits), potential
                for hit in hits:
                    assert winding_number(fn, circle_contour(hit.lam, 1e-4), 64) == hit.multiplicity

    def test_all_zeros_are_accounted_for(self):
        # the undeflated eigenvalues and the first-order deflated zeros are
        # 2m in number, and they sum to the trace of diag(p) - (r/d) 1^T
        for potential in forty_six_potentials():
            table = build_table(potential, 30)
            for name in ("c11", "c12"):
                d, p, r = rational_form(table, potential.beta, name)
                eigenvalues, first_order = secular_zeros(d, p, r)
                assert len(eigenvalues) + len(first_order) == len(p) == 2 * len(table.live_rows)
                trace = p.sum() - (r / d).sum()
                assert abs(eigenvalues.sum() + first_order.sum() - trace) <= 1e-9 * abs(trace)

    @pytest.mark.parametrize("call", [
        lambda table: scan_spectrum(table, 1.0, 6),
        lambda table: coefficient_evaluators(table, 1.0),
        lambda table: connection_coefficients(table, 1.0, 0.3 + 0.7j),
        lambda table: resolvent_kernel(table, 1.0, 0.3 + 0.7j, 0.5, 0.25),
    ], ids=["scan_spectrum", "coefficient_evaluators", "connection_coefficients", "resolvent_kernel"])
    def test_overflowing_form_raises_without_warning(self, call):
        # q_1 = 3e7 overflows the residues: each caller of rational_form
        # refuses, and numpy warns nothing on the way
        table = build_table(FourierPotential(beta=1.0, q=(3e7,)), 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralError, match=r"^the poles or residues of c1[12] overflow double precision$"):
                call(table)

    def test_double_zero_is_merged(self):
        # 1 + 0.5/(lam - 3 - 2i) - 0.5/(lam - 1 - 2i) = u^2/(u^2 - 1), u = lam - 2 - 2i
        form = RationalForm(1.0, np.array([3 + 2j, 1 + 2j]), np.array([0.5, -0.5]))
        zeros = rational_zeros(form, (1.0, 3.0, 1.0, 3.0))
        assert len(zeros) == 1
        z, mult = zeros[0]
        assert mult == 2
        assert abs(z - (2 + 2j)) < 1e-7


class TestEigenvalues:
    def test_free_potential_has_none(self, zero_table):
        assert scan_spectrum(zero_table, 1.0).eigenvalues == []

    def test_known_point_spectrum(self):
        table = build_table(EIG_POTENTIAL, 30)
        hits = [h for h in scan_spectrum(table, EIG_POTENTIAL.beta).eigenvalues if h.sector == 0]
        assert len(hits) == 1
        hit = hits[0]
        assert abs(hit.lam - EIG_LAMBDA_S0) < 1e-6
        assert hit.multiplicity == 1
        assert abs(hit.coefficient_value) < 1e-10
        # the two-sided matching degenerates there: c11 c22 = 1
        cc = connection_coefficients(table, EIG_POTENTIAL.beta, hit.lam)
        assert abs(cc.c11 * cc.c22 - 1.0) < 1e-8

    def test_search_evaluation_budget(self, monkeypatch):
        # the scan builds one rational form per listed quadrant, c12 for
        # quadrant 0 and c11 for quadrant 3, and reads every coefficient_value
        # from it: no evaluator is made (the winding search took 1,604
        # evaluations here)
        forms, evaluators = [], []
        build = scattering_module.rational_form

        def counting_form(table, beta, name):
            forms.append(name)
            return build(table, beta, name)

        monkeypatch.setattr(scattering_module, "rational_form", counting_form)
        monkeypatch.setattr(scattering_module, "coefficient_evaluators",
                            lambda *args: evaluators.append(args))
        report = scan_spectrum(build_table(EIG_POTENTIAL, 30), EIG_POTENTIAL.beta)
        assert forms == ["c12", "c11"]
        assert evaluators == []
        hits = [h for h in report.eigenvalues if h.sector in (0, 3)]
        assert len(hits) == 3
        assert min(abs(h.lam - EIG_LAMBDA_S0) for h in report.eigenvalues) < 1e-12

    def test_winding_count_matches_report(self):
        # each quadrant's own function winds around its listing box, or the
        # mirror of one, once per zero the report lists in that quadrant
        table = build_table(EIG_POTENTIAL, 30)
        report = scan_spectrum(table, EIG_POTENTIAL.beta)
        for k, _name, (re_lo, re_hi, im_lo, im_hi) in LISTED:
            for quadrant, box in ((k, (re_lo, re_hi, im_lo, im_hi)),
                                  ((k + 2) % 4, (-re_hi, -re_lo, -im_hi, -im_lo))):
                w = box_winding(sector_function(table, EIG_POTENTIAL.beta, quadrant), box)
                assert w == sum(h.multiplicity for h in report.eigenvalues if h.sector == quadrant) > 0

    def test_full_scan_sector_symmetry(self):
        # zeros of c12(-lam) in the third quadrant mirror the first-quadrant
        # zeros of c12, and zeros of c11(-lam) in the second quadrant mirror
        # the fourth-quadrant zeros of c11; both pairs are populated for the
        # one-harmonic EIG_POTENTIAL (1, 2, 1, 2 per quadrant) and for the
        # three-harmonic potential below (1, 4, 1, 4)
        three = FourierPotential(beta=0.8, q=(2.0 + 4.0j, 1.0j, -1.0))
        for potential in (EIG_POTENTIAL, three):
            table = build_table(potential, 30)
            report = scan_spectrum(table, potential.beta)
            for k, mirror in ((0, 2), (3, 1)):
                hits = sorted(
                    (h for h in report.eigenvalues if h.sector == k),
                    key=lambda h: (h.lam.real, h.lam.imag),
                )
                mirrors = sorted(
                    (h for h in report.eigenvalues if h.sector == mirror),
                    key=lambda h: (-h.lam.real, -h.lam.imag),
                )
                assert hits and len(hits) == len(mirrors)
                for h, m in zip(hits, mirrors):
                    assert m.lam == -h.lam
                    assert m.multiplicity == h.multiplicity
                    assert m.coefficient_value == h.coefficient_value
                    # the mirror quadrant's own function at -lam gives that value
                    fn = sector_function(table, potential.beta, mirror)
                    assert complex(fn(m.lam)) == m.coefficient_value
            assert len(report.singularities) == 24  # n_max=6, both lattices


class TestAxes:
    def test_solutions_stay_away_from_zero_on_real_axis(self):
        # no square-integrable combination exists for real lambda: the
        # oscillatory solutions never die out along the half line
        rng = np.random.default_rng(33)
        p = random_potential(rng)
        t = build_table(p, 30)
        for lam in (0.8, 1.7, 3.3):
            xs = np.linspace(0.0, 40.0, 161)
            vals = [abs(whole_line(t, p.beta, "f1", lam, x).value) for x in xs]
            assert min(vals) > 0.05


class TestResolventKernel:
    def test_free_closed_form(self, zero_table):
        lam = np.exp(0.25j * np.pi)
        x, t = 1.2, -0.7
        got = resolvent_kernel(zero_table, 1.0, lam, x, t)
        expect = np.exp(1j * lam * x) * np.exp(lam * t) / (lam * (1.0 - 1j))
        assert abs(got - expect) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        p = random_potential(rng)
        t = build_table(p, 30)
        for lam in (0.9 + 0.7j, -1.1 + 0.8j, -0.8 - 1.2j, 1.3 - 0.9j):
            a = resolvent_kernel(t, p.beta, lam, 0.4, 1.7)
            b = resolvent_kernel(t, p.beta, lam, 1.7, 0.4)
            assert a == b

    def test_near_spectrum_guard(self):
        table = build_table(EIG_POTENTIAL, 30)
        with pytest.raises(NearSpectrum):
            resolvent_kernel(table, EIG_POTENTIAL.beta, EIG_LAMBDA_S0, 0.3, 1.1)

    def test_derivative_jump(self):
        rng = np.random.default_rng(42)
        p = random_potential(rng)
        table = build_table(p, 30)
        lam = 1.3 * np.exp(0.3j)
        t0 = 0.8

        def dkern(x):
            h = 1e-7
            return (
                resolvent_kernel(table, p.beta, lam, x + h, t0)
                - resolvent_kernel(table, p.beta, lam, x - h, t0)
            ) / (2 * h)

        jump = dkern(t0 + 1e-6) - dkern(t0 - 1e-6)
        assert abs(jump + 1.0) < 1e-4

    def test_green_property_against_bump_quadrature(self):
        # apply the differential expression to a smooth bump and integrate
        # against the kernel: the sifting property must return the bump value
        beta = 1.3
        p = FourierPotential(beta=beta, q=(0.6 - 0.3j, 0.2 + 0.4j))
        table = build_table(p, 30)
        lam = 1.1 * np.exp(0.25j * np.pi)
        t0 = 1.0
        c, w = 1.4, 1.0  # support [0.4, 2.4], entirely on the x > 0 side

        def phi(x):
            u = (x - c) / w
            return np.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0

        def phi2(x):
            u = (x - c) / w
            if abs(u) >= 1.0:
                return 0.0
            b = np.exp(-1.0 / (1.0 - u * u))
            g = -2.0 * u / (1.0 - u * u) ** 2
            dg = -2.0 / (1.0 - u * u) ** 2 - 8.0 * u * u / (1.0 - u * u) ** 3
            return b * (g * g + dg) / (w * w)

        def integrand(x):
            lhs = -phi2(x) + p.at(x) * phi(x) - lam * lam * phi(x)
            return resolvent_kernel(table, beta, lam, x, t0) * lhs

        def simpson(f, a, b, m):
            xs = np.linspace(a, b, 2 * m + 1)
            ys = np.array([f(float(v)) for v in xs])
            h = (b - a) / (2 * m)
            return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())

        val = simpson(integrand, 0.4, t0, 300) + simpson(integrand, t0, 2.4, 300)
        assert abs(val - phi(t0)) < 1e-8


class TestKernelDifferences:
    def test_pointwise_identities(self):
        # differences of adjacent-quadrant kernels (each continued by its own
        # formula) collapse to rank-one kernels over the connection
        # coefficients; forms below are the ones the construction satisfies
        beta = 1.3
        p = FourierPotential(beta=beta, q=(0.6 - 0.3j, 0.2 + 0.4j))
        table = build_table(p, 30)
        c11f, c12f = coefficient_evaluators(table, beta)
        lam = 0.8 + 0.9j
        x, t = 1.2, 0.4
        cc = connection_coefficients(table, beta, lam)
        ccm = connection_coefficients(table, beta, -lam)

        f1p = lambda s: whole_line(table, beta, "f1", lam, s).value
        f1m = lambda s: whole_line(table, beta, "f1", -lam, s).value
        f2p = lambda s: whole_line(table, beta, "f2", lam, s).value
        f2m = lambda s: whole_line(table, beta, "f2", -lam, s).value

        def kernel(pair):
            hi, lo = (x, t) if x >= t else (t, x)
            if pair == "11":
                return f1p(hi) * f2p(lo) / (2j * lam * c12f(lam))
            if pair == "12":
                return f1p(hi) * f2m(lo) / (2j * lam * c11f(-lam))
            if pair == "21":
                return f1m(hi) * f2m(lo) / (-2j * lam * c12f(-lam))
            if pair == "22":
                return f1m(hi) * f2p(lo) / (-2j * lam * c11f(lam))

        lhs = kernel("11") - kernel("12")
        rhs = -f1p(x) * f1p(t) / (2j * lam * cc.c12 * cc.c22)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

        lhs = kernel("11") - kernel("22")
        rhs = -f2p(x) * f2p(t) / (2j * lam * cc.c12 * cc.c11)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

        lhs = kernel("12") - kernel("21")
        rhs = -f2m(x) * f2m(t) / (2j * lam * ccm.c11 * ccm.c12)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

        lhs = kernel("22") - kernel("21")
        rhs = f1m(x) * f1m(t) / (2.0 * lam * beta * ccm.c22 * ccm.c21)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


class TestResidueKernel:
    def test_free_case_vanishes(self, zero_table):
        for axis in ("real", "imaginary"):
            assert resolvent_residue(zero_table, 1.0, 2, axis, 0.3, 1.1) == 0.0

    def test_symmetry_in_x_t(self, q1_table_30):
        a = resolvent_residue(q1_table_30, 1.0, 2, "real", 0.3, 1.1)
        b = resolvent_residue(q1_table_30, 1.0, 2, "imaginary", 1.1, 0.3)
        assert a == resolvent_residue(q1_table_30, 1.0, 2, "real", 1.1, 0.3)
        assert b == resolvent_residue(q1_table_30, 1.0, 2, "imaginary", 0.3, 1.1)

    def test_closed_form_structure(self, q1_table_30):
        n = 2
        val = resolvent_residue(q1_table_30, 1.0, n, "real", 0.3, 1.1)
        expect = (
            (2.0 / (1j * n))
            * q1_table_30.entry(n, n)
            * eval_f1(q1_table_30, n / 2.0, 0.3, "+").value
            * eval_f1(q1_table_30, n / 2.0, 1.1, "+").value
        )
        assert abs(val - expect) < 1e-12

    def test_kernel_is_regular_at_half_integers(self, q1_table_30):
        # the scaled kernel limit vanishes linearly: the apparent pole of the
        # minus-branch expansion cancels against the matching-coefficient
        # pole, so the kernel itself stays bounded at n/2
        d = np.exp(0.25j * np.pi)
        for n in (1, 2):
            scaled = []
            for eps in (1e-2, 1e-3, 1e-4):
                lam = n / 2.0 + eps * d
                scaled.append(abs((n - 2 * lam) * resolvent_kernel(q1_table_30, 1.0, lam, 0.3, 1.1)))
            assert scaled[0] < 0.1
            assert scaled[1] < 0.12 * scaled[0]
            assert scaled[2] < 0.12 * scaled[1]
            near = resolvent_kernel(q1_table_30, 1.0, n / 2.0 + 1e-5 * d, 0.3, 1.1)
            far = resolvent_kernel(q1_table_30, 1.0, n / 2.0 + 1e-3 * d, 0.3, 1.1)
            assert abs(near - far) < 1e-2 * max(1.0, abs(far))

    @pytest.fixture(params=["q1", "two_harmonic"])
    def residue_case(self, request, q1_table_30):
        if request.param == "q1":
            return q1_table_30, 1.0
        p = FourierPotential(beta=1.3, q=(0.6 - 0.3j, 0.2 + 0.4j))
        return build_table(p, 30), p.beta

    def test_real_jump_terms_scale_to_the_residue(self, residue_case):
        # with F2 = -(c11 f1+ + c12 f1-) the real-axis jump
        # -F2(x) F2(t) / (2i lam c11 c12) splits into A + B + C; A and C each
        # scale to half the closed form and B to minus it (docs/residue.md).
        # The pole strength of c11/c12 in A is -V[n, n], the quantity
        # `pole_strength` extracts, so A ties the closed form to it.  -B is
        # K_sym, so on q1 the B column repeats criterion 5; it is kept so that
        # the three limits, which sum to 0 as the regular matched kernel
        # requires, are checked alike on both potentials.
        table, beta = residue_case
        c11, c12 = coefficient_evaluators(table, beta)
        x, t = 0.3, 1.1

        def f1(lam, s, branch):
            return eval_f1(table, lam, s, branch).value

        for n in (1, 2, 3):

            def scaled_terms(lam, n=n):
                px, pt = f1(lam, x, "+"), f1(lam, t, "+")
                mx, mt = f1(lam, x, "-"), f1(lam, t, "-")
                ratio = complex(c11(lam) / c12(lam))
                abc = np.array([-ratio * px * pt, -(px * mt + mx * pt), -mx * mt / ratio])
                return (n - 2.0 * lam) * abc / (2j * lam)

            closed = resolvent_residue(table, beta, n, "real", x, t)
            got = centred_limit(scaled_terms, n / 2.0)
            expect = np.array([closed / 2.0, -closed, closed / 2.0])
            assert np.all(np.abs(got - expect) < 1e-6 * abs(closed)), (n, got, expect)

    def test_imaginary_symmetrised_kernel_scales_to_residue(self, residue_case):
        # for x, t < 0 the f2 pair takes the place of f1: f2- has its pole at
        # i n/(2 beta), W[f2+, f2-] = 2 lam beta, and f2+(., i n/(2 beta))
        # is f1+(., n/2)
        table, beta = residue_case
        x, t = -0.3, -1.1

        def f2(lam, s, branch):
            return eval_f2(table, beta, lam, s, branch).value

        for n in (1, 2, 3):
            lam0 = 1j * n / (2.0 * beta)
            assert abs(f2(lam0, x, "+") - eval_f1(table, n / 2.0, x, "+").value) < 1e-12

            def scaled_sym(lam, n=n):
                pair = f2(lam, x, "+") * f2(lam, t, "-") + f2(lam, x, "-") * f2(lam, t, "+")
                return (n + 2j * beta * lam) * pair / (2.0 * lam * beta)

            got = centred_limit(scaled_sym, lam0)
            closed = resolvent_residue(table, beta, n, "imaginary", x, t)
            assert abs(got - closed) < 1e-6 * abs(closed), n
