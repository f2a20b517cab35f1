"""Eigenvalue location, singular points and resolvent kernels."""

import numpy as np
import pytest

from spectral_sl import (
    BudgetExceeded,
    ContourThroughZero,
    FourierPotential,
    NearSpectrum,
    Sector,
    SpectralError,
    build_table,
    coefficient_evaluators,
    connection_coefficients,
    eval_f1,
    eval_f2,
    find_eigenvalues,
    find_zeros,
    resolvent_kernel,
    resolvent_residue,
    scan_spectrum,
    spectral_singularities,
)
import spectral_sl.spectrum as spectrum_module
from spectral_sl.spectrum import (
    _global_f1,
    _global_f2,
    _winding,
    default_sector_box,
    sector_coefficient_fn,
)

from .conftest import EIG_LAMBDA_S0, EIG_POTENTIAL, centred_limit, random_potential


class TestSectors:
    def test_membership(self):
        assert Sector(0).contains(1 + 1j)
        assert Sector(1).contains(-1 + 1j)
        assert Sector(2).contains(-1 - 1j)
        assert Sector(3).contains(1 - 1j)
        for k in range(4):
            assert not Sector(k).contains(1.0)  # axes belong to no sector
            assert not Sector(k).contains(1j)

    def test_of_lambda(self):
        assert Sector.of_lambda(2 - 3j).k == 3
        with pytest.raises(SpectralError):
            Sector.of_lambda(5.0)


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

    def test_boundary_zero_is_retried(self):
        # zero exactly on the initial contour: the jittered retry recovers it
        fn = lambda z: np.asarray(z, dtype=complex) - (0.1 + 0.1j)
        zeros = find_zeros(fn, (0.1, 2.0, 0.1, 2.0), tol=1e-10)
        assert len(zeros) == 1
        assert abs(zeros[0][0] - (0.1 + 0.1j)) < 1e-8

    def test_identically_tiny_function_fails(self):
        fn = lambda z: (np.asarray(z, dtype=complex) - (1 + 1j)) * 1e-20
        with pytest.raises(ContourThroughZero):
            find_zeros(fn, (0.1, 2.0, 0.1, 2.0))

    def test_budget(self):
        # a double zero defeats the moment handoff, so its boxes are quartered
        # until the depth limit
        fn = lambda z: (np.asarray(z, dtype=complex) - (1 + 1j)) ** 2
        with pytest.raises(BudgetExceeded):
            find_zeros(fn, (0.1, 9.0, 0.1, 9.0), max_depth=2)

    def test_close_pair_in_one_handoff_box(self):
        # both zeros lie in the depth-3 box [0.75, 1]^2 of the root box
        # [0, 2]^2, 1e-3 apart across its midline: that box winds twice and
        # is quartered, and each child winds once, with its partner zero
        # 5e-4 outside its edge
        a, b = 0.8745 + 0.9j, 0.8755 + 0.9j
        fn = lambda z: (np.asarray(z, dtype=complex) - a) * (np.asarray(z, dtype=complex) - b)
        zeros = find_zeros(fn, (0.0, 2.0, 0.0, 2.0), tol=1e-10)
        assert len(zeros) == 2
        (z1, m1), (z2, m2) = zeros
        assert m1 == m2 == 1
        assert abs(z1 - a) < 1e-9 and abs(z2 - b) < 1e-9

    @pytest.mark.parametrize(
        "first_result",
        [(50.0 + 50.0j, True), (1.0 + 1.0j, False)],
        ids=["converged-outside", "inside-not-converged"],
    )
    def test_rejected_handoff_falls_back_to_quartering(self, monkeypatch, first_result):
        # the first handoff is refused (Newton left the box, or did not
        # converge), so its box is quartered and a child hands off again
        newton = spectrum_module._newton_polish
        starts = []

        def polish(fn, z0, tol):
            starts.append(z0)
            return first_result if len(starts) == 1 else newton(fn, z0, tol)

        monkeypatch.setattr(spectrum_module, "_newton_polish", polish)
        fn = lambda z: np.asarray(z, dtype=complex) - (1 + 1j)
        zeros = find_zeros(fn, (0.1, 3.0, 0.1, 3.0), tol=1e-10)
        assert len(starts) >= 2
        assert len(zeros) == 1
        z, mult = zeros[0]
        assert abs(z - (1 + 1j)) < 1e-9
        assert mult == 1

    def test_three_zeros_from_one_winding_count(self):
        # the root box winds three times and its moment pencil hands all
        # three zeros to Newton: one 2,048-point winding count plus Newton
        roots = (0.7 + 0.4j, 1.9 + 2.2j, 2.5 + 0.9j)
        points = [0]

        def fn(z):
            z = np.asarray(z, dtype=complex)
            points[0] += z.size
            return (z - roots[0]) * (z - roots[1]) * (z - roots[2])

        zeros = find_zeros(fn, (0.1, 3.0, 0.1, 3.0), tol=1e-10)
        assert points[0] <= 2_048 + 300
        assert [m for _z, m in zeros] == [1, 1, 1]
        for (z, _m), root in zip(zeros, roots):
            assert abs(z - root) < 1e-10

    def test_five_zeros_are_quartered(self, monkeypatch):
        # the pencil is tried only up to winding 4: a root box of winding 5
        # is quartered before any handoff
        windings = []
        pencil = spectrum_module._pencil_zeros

        def spy(fn, pts, vals, box, w, tol):
            windings.append(w)
            return pencil(fn, pts, vals, box, w, tol)

        monkeypatch.setattr(spectrum_module, "_pencil_zeros", spy)
        roots = [0.5 + 0.5j, 2.5 + 0.5j, 0.5 + 2.5j, 2.5 + 2.5j, 1.7 + 1.2j]

        def fn(z):
            z = np.asarray(z, dtype=complex)
            return np.prod([z - r for r in roots], axis=0)

        zeros = find_zeros(fn, (0.1, 3.0, 0.1, 3.0), tol=1e-10)
        assert 5 not in windings and windings
        assert sorted(m for _z, m in zeros) == [1] * 5
        for r in roots:
            assert min(abs(z - r) for z, _m in zeros) < 1e-9

    def test_repeated_root_falls_back_to_quartering(self, monkeypatch):
        # Newton is forced to return the first zero for both starts of the
        # root box (winding 2): the two roots are not distinct, so the box
        # is quartered and each child hands its own zero off
        newton = spectrum_module._newton_polish
        calls = []

        def polish(fn, z0, tol):
            calls.append(z0)
            if len(calls) == 2:
                return newton(fn, calls[0], tol)
            return newton(fn, z0, tol)

        monkeypatch.setattr(spectrum_module, "_newton_polish", polish)
        a, b = 0.7 + 0.4j, 1.9 + 2.2j
        fn = lambda z: (np.asarray(z, dtype=complex) - a) * (np.asarray(z, dtype=complex) - b)
        zeros = find_zeros(fn, (0.1, 3.0, 0.1, 3.0), tol=1e-10)
        assert len(calls) >= 4
        assert len(zeros) == 2
        (z1, m1), (z2, m2) = zeros
        assert m1 == m2 == 1
        assert abs(z1 - a) < 1e-9 and abs(z2 - b) < 1e-9


class TestEigenvalues:
    def test_free_potential_has_none(self, zero_table):
        hits = find_eigenvalues(zero_table, 1.0, Sector(0))
        assert hits == []

    def test_box_validation(self, zero_table):
        with pytest.raises(ValueError):
            find_eigenvalues(zero_table, 1.0, Sector(0), box=(-1.0, 2.0, 0.1, 2.0))
        with pytest.raises(ValueError):
            find_eigenvalues(zero_table, 1.0, Sector(0), box=(0.01, 2.0, 0.1, 2.0))

    def test_known_point_spectrum(self):
        table = build_table(EIG_POTENTIAL, 30)
        hits = find_eigenvalues(table, EIG_POTENTIAL.beta, Sector(0))
        assert len(hits) == 1
        hit = hits[0]
        assert abs(hit.lam - EIG_LAMBDA_S0) < 1e-6
        assert hit.multiplicity == 1
        assert abs(hit.coefficient_value) < 1e-10
        # the two-sided matching degenerates there: c11 c22 = 1
        cc = connection_coefficients(table, EIG_POTENTIAL.beta, hit.lam)
        assert abs(cc.c11 * cc.c22 - 1.0) < 1e-8

    def test_search_evaluation_budget(self, monkeypatch):
        # every coefficient evaluation of the search goes through the
        # coefficient_evaluators closures; quartering every box down to 1e-2
        # took 450,670 of them on this potential, searching all four
        # quadrants with a first-moment handoff below depth 3 106,562, and
        # the moment pencil at the root of quadrants 0 and 3 takes 4,144
        evaluators = spectrum_module.coefficient_evaluators
        points = [0]

        def counting(table, beta):
            def counted(c):
                def wrapped(lam):
                    points[0] += np.size(lam)
                    return c(lam)

                return wrapped

            return tuple(counted(c) for c in evaluators(table, beta))

        monkeypatch.setattr(spectrum_module, "coefficient_evaluators", counting)
        report = scan_spectrum(build_table(EIG_POTENTIAL, 30), EIG_POTENTIAL.beta)
        assert points[0] <= 20_000
        assert min(abs(h.lam - EIG_LAMBDA_S0) for h in report.eigenvalues) < 1e-12

    def test_winding_count_matches_report(self):
        table = build_table(EIG_POTENTIAL, 30)
        _c11, c12 = coefficient_evaluators(table, EIG_POTENTIAL.beta)
        box = default_sector_box(0)
        w = _winding(lambda z: c12(z), box, 512)
        hits = find_eigenvalues(table, EIG_POTENTIAL.beta, Sector(0), box)
        assert w == sum(h.multiplicity for h in hits)

    def test_stability_under_refinement(self):
        table = build_table(EIG_POTENTIAL, 30)
        coarse = find_eigenvalues(table, EIG_POTENTIAL.beta, Sector(0))
        mid = 5.05
        fine = []
        for box in [
            (0.1, mid, 0.1, mid),
            (mid, 10.0, 0.1, mid),
            (0.1, mid, mid, 10.0),
            (mid, 10.0, mid, 10.0),
        ]:
            fine.extend(find_eigenvalues(table, EIG_POTENTIAL.beta, Sector(0), box))
        assert len(coarse) == len(fine)
        for a, b in zip(
            sorted(coarse, key=lambda h: (h.lam.real, h.lam.imag)),
            sorted(fine, key=lambda h: (h.lam.real, h.lam.imag)),
        ):
            assert abs(a.lam - b.lam) < 1e-8
            assert a.multiplicity == b.multiplicity

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
                    fn = sector_coefficient_fn(table, potential.beta, mirror)
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
            vals = [abs(_global_f1(t, p.beta, lam, x)) for x in np.linspace(0.0, 40.0, 161)]
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

        def kernel(pair):
            hi, lo = (x, t) if x >= t else (t, x)
            if pair == "11":
                return _global_f1(table, beta, lam, hi) * _global_f2(table, beta, lam, lo) / (2j * lam * c12f(lam))
            if pair == "12":
                return _global_f1(table, beta, lam, hi) * _global_f2(table, beta, -lam, lo) / (2j * lam * c11f(-lam))
            if pair == "21":
                return _global_f1(table, beta, -lam, hi) * _global_f2(table, beta, -lam, lo) / (-2j * lam * c12f(-lam))
            if pair == "22":
                return _global_f1(table, beta, -lam, hi) * _global_f2(table, beta, lam, lo) / (-2j * lam * c11f(lam))

        f1p = lambda s: _global_f1(table, beta, lam, s)
        f1m = lambda s: _global_f1(table, beta, -lam, s)
        f2p = lambda s: _global_f2(table, beta, lam, s)
        f2m = lambda s: _global_f2(table, beta, -lam, s)

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
