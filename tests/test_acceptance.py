"""Acceptance gate: one test per top-level criterion, each printing a
PASS/FAIL line with its timing.  Tolerances are fixed here, not tuned.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import json
import time

import numpy as np

from spectral_sl import (
    FourierPotential,
    build_table,
    coefficient_evaluators,
    connection_coefficients,
    eval_f1,
    eval_f2,
    eval_fn_limit,
    ode_residual,
    reconstruct,
    resolvent_kernel,
    resolvent_residue,
    sampled_provider,
    scan_spectrum,
    wronskian,
)
from spectral_sl.cli import main, spectral_data_to_dict
from spectral_sl.inverse import AnalyticProvider, sample_points
from spectral_sl.scattering import matching_coefficients_f1, matching_coefficients_f2

from .conftest import centred_limit, offlattice_lambda, random_potential
from .oracles import QC, exact_forward_table

DIAG = complex(np.exp(0.25j * np.pi))


def report(name, problems, t0):
    status = "PASS" if not problems else "FAIL"
    print(f"\nacceptance {name}: {status} ({time.monotonic() - t0:.2f}s)", flush=True)
    for p in problems:
        print(f"  - {p}", flush=True)
    assert not problems, f"{name}: {problems}"


def test_criterion_1_free_baseline(zero_table):
    t0 = time.monotonic()
    problems = []
    for beta in (0.5, 1.0, 2.0):
        for lam in (0.6 + 0.8j, 2.2 - 1.1j):
            for x in (0.0, 1.3, -0.7):
                s = eval_f1(zero_table, lam, x, "+")
                if abs(s.value - np.exp(1j * lam * x)) > 1e-12:
                    problems.append(f"f1 value off at {lam}, {x}")
                s2 = eval_f2(zero_table, beta, lam, x, "+")
                if abs(s2.value - np.exp(lam * beta * x)) > 1e-12:
                    problems.append(f"f2 value off at {lam}, {x}")
            cc = connection_coefficients(zero_table, beta, lam)
            if abs(cc.c12 + (1 + 1j * beta) / 2) > 1e-12:
                problems.append(f"c12 off for beta={beta}")
            if abs(cc.c11 + (1 - 1j * beta) / 2) > 1e-12:
                problems.append(f"c11 off for beta={beta}")
        hits = scan_spectrum(zero_table, beta).eigenvalues
        if hits:
            problems.append(f"spurious eigenvalues for beta={beta}: {hits}")
    if time.monotonic() - t0 > 5.0:
        problems.append("runtime exceeded 5 s")
    report("criterion 1 (free-potential closed forms)", problems, t0)


def test_criterion_2_wronskian_identities():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(2024)
    xs = [x for x in np.linspace(-2 * np.pi, 2 * np.pi, 17) if abs(x) > 1e-9]
    for case in range(50):
        p = random_potential(rng, max_harmonics=3)
        table = build_table(p, 30)
        lam = offlattice_lambda(rng, p.beta)
        for x in xs:
            w1 = wronskian(eval_f1(table, lam, x, "+"), eval_f1(table, lam, x, "-"))
            if abs(w1 - 2j * lam) > 1e-9 * abs(2j * lam):
                problems.append(f"case {case}: W[f1+,f1-] off at x={x:.3f}")
                break
            w2 = wronskian(
                eval_f2(table, p.beta, lam, x, "+"), eval_f2(table, p.beta, lam, x, "-")
            )
            if abs(w2 - 2 * lam * p.beta) > 1e-9 * abs(2 * lam * p.beta):
                problems.append(f"case {case}: W[f2+,f2-] off at x={x:.3f}")
                break
    if time.monotonic() - t0 > 30.0:
        problems.append("runtime exceeded 30 s")
    report("criterion 2 (Wronskian identities, 50 random cases)", problems, t0)


def test_criterion_3_residual_convergence():
    t0 = time.monotonic()
    problems = []
    p = FourierPotential(beta=1.0, q=(1.0,))
    tables = {a: build_table(p, a) for a in (5, 10, 20, 30)}
    rng = np.random.default_rng(3)
    for case in range(20):
        lam = offlattice_lambda(rng, p.beta)
        x = float(rng.uniform(0.1, 3.0))
        vals = [abs(ode_residual(p, tables[a], lam, x, "f1+")) for a in (5, 10, 20, 30)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            if lo > hi and lo > 1e-12:
                problems.append(f"case {case}: residuals not decreasing: {vals}")
                break
        if vals[-1] > 1e-8:
            problems.append(f"case {case}: residual at order 30 too large: {vals[-1]}")
    if time.monotonic() - t0 > 10.0:
        problems.append("runtime exceeded 10 s")
    report("criterion 3 (residual convergence in the order)", problems, t0)


def test_criterion_4_connection_and_conjunction():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(4)
    for case in range(12):
        p = random_potential(rng)
        table = build_table(p, 30)
        lam = offlattice_lambda(rng, p.beta)
        cc = connection_coefficients(table, p.beta, lam)
        ccm = connection_coefficients(table, p.beta, -lam)
        if abs(cc.c22 - (1j / p.beta) * ccm.c11) > 1e-10 * max(1.0, abs(cc.c22)):
            problems.append(f"case {case}: c22 identity off")
        if abs(cc.c21 + (1j / p.beta) * cc.c12) > 1e-10 * max(1.0, abs(cc.c21)):
            problems.append(f"case {case}: c21 identity off")
        a, b = matching_coefficients_f2(table, p.beta, lam)
        nat = eval_f2(table, p.beta, lam, 0.0, "+")
        f1p = eval_f1(table, lam, 0.0, "+")
        f1m = eval_f1(table, lam, 0.0, "-")
        dv = abs(a * f1p.value + b * f1m.value - nat.value)
        dd = abs(a * f1p.derivative + b * f1m.derivative - nat.derivative)
        if dv > 1e-10 * max(1.0, abs(nat.value)) or dd > 1e-10 * max(1.0, abs(nat.derivative)):
            problems.append(f"case {case}: exponential-side matching off ({dv}, {dd})")
        a, b = matching_coefficients_f1(table, p.beta, lam)
        nat = eval_f1(table, lam, 0.0, "+")
        f2p = eval_f2(table, p.beta, lam, 0.0, "+")
        f2m = eval_f2(table, p.beta, lam, 0.0, "-")
        dv = abs(a * f2p.value + b * f2m.value - nat.value)
        dd = abs(a * f2p.derivative + b * f2m.derivative - nat.derivative)
        if dv > 1e-10 * max(1.0, abs(nat.value)) or dd > 1e-10 * max(1.0, abs(nat.derivative)):
            problems.append(f"case {case}: oscillatory-side matching off ({dv}, {dd})")
    if time.monotonic() - t0 > 10.0:
        problems.append("runtime exceeded 10 s")
    report("criterion 4 (connection identities and conjunction continuity)", problems, t0)


def test_criterion_5_residue_law(q1_table_30):
    t0 = time.monotonic()
    problems = []
    # scaled half-integer limits against the opposite-branch solutions
    for n in (1, 2, 3):
        for x in (0.0, 0.7, 2.1):
            lhs = eval_fn_limit(q1_table_30, n, x)
            rhs = q1_table_30.entry(n, n) * eval_f1(q1_table_30, -n / 2.0, x, "-").value
            if abs(lhs - rhs) > 1e-9:
                problems.append(f"scaled limit identity off for n={n}, x={x}")
    # scaled kernel limit against the closed-form residue product.  The pole
    # at n/2 is carried by the symmetrised free-density kernel
    #   K_sym(x, t) = [f1+(x) f1-(t) + f1-(x) f1+(t)] / (2i lam),
    # the c-independent part of the matched kernel's jump across the real
    # axis; f1- has the pole.  The matched kernel itself is regular at n/2:
    # the pole parts of its two terms cancel (docs/residue.md).
    # g = (n - 2 lam) K_sym is analytic at n/2, so the centred mean removes
    # the O(eps) bias of a one-sided limit.
    x, t = 0.3, 1.1

    def f1(lam, s, branch):
        return eval_f1(q1_table_30, lam, s, branch).value

    for n in (1, 2, 3):

        def scaled_sym(lam, n=n):
            pair = f1(lam, x, "+") * f1(lam, t, "-") + f1(lam, x, "-") * f1(lam, t, "+")
            return (n - 2.0 * lam) * pair / (2j * lam)

        got = centred_limit(scaled_sym, n / 2.0)
        closed = resolvent_residue(q1_table_30, 1.0, n, "real", x, t)
        rel = abs(got - closed) / abs(closed)
        if rel > 1e-6:
            problems.append(
                f"n={n}: scaled K_sym limit {got:.3e} vs closed form "
                f"{closed:.3e} (rel dev {rel:.3e})"
            )
        # the matched kernel's scaled limit vanishes linearly in eps
        matched = [
            abs((n - 2.0 * lam) * resolvent_kernel(q1_table_30, 1.0, lam, x, t))
            for lam in (n / 2.0 + 1e-4 * DIAG, n / 2.0 + 1e-5 * DIAG)
        ]
        if not 0.095 < matched[1] / matched[0] < 0.105:
            problems.append(
                f"n={n}: matched kernel's scaled limit {matched} does not vanish linearly"
            )
    if time.monotonic() - t0 > 10.0:
        problems.append("runtime exceeded 10 s")
    report("criterion 5 (residue law at the half integers)", problems, t0)


def test_criterion_6_inverse_roundtrip(tmp_path):
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(6)
    betas = (0.5, 1.0, 2.0)
    for case in range(20):
        beta = betas[case % 3]
        p = random_potential(rng, max_harmonics=5, beta_range=(beta, beta))
        analytic = AnalyticProvider(p, 30)
        res = reconstruct(analytic, n_max=5)
        if abs(res.beta - beta) > 1e-8:
            problems.append(f"case {case}: analytic beta error {abs(res.beta - beta):.2e}")
        for n in range(1, 6):
            truth = p.harmonic(n)
            if abs(res.q[n - 1] - truth) > 1e-6 * max(1.0, abs(truth)):
                problems.append(f"case {case}: analytic q_{n} error")
        # file path: export the sampled data, read it back, reconstruct
        pts = sample_points(analytic.eigenvalues, 5)
        data = spectral_data_to_dict(
            analytic.eigenvalues,
            pts,
            analytic.eval_c11(pts),
            analytic.eval_c12(pts),
            {"n_max": 5, "A": 30},
        )
        path = tmp_path / f"data_{case}.json"
        path.write_text(json.dumps(data))
        res_s = reconstruct(sampled_provider(path), n_max=5)
        if abs(res_s.beta - beta) > 1e-4:
            problems.append(f"case {case}: sampled beta error {abs(res_s.beta - beta):.2e}")
        for n in range(1, 6):
            truth = p.harmonic(n)
            if abs(res_s.q[n - 1] - truth) > 1e-4 * max(1.0, abs(truth)):
                problems.append(f"case {case}: sampled q_{n} error")
    if time.monotonic() - t0 > 60.0:
        problems.append("runtime exceeded 60 s")
    report("criterion 6 (inverse round trips, analytic and sampled)", problems, t0)


def test_criterion_7_asymptotics(q1_table_30):
    t0 = time.monotonic()
    problems = []
    _c11, c12 = coefficient_evaluators(q1_table_30, 1.0)
    devs = [abs(c12(r * DIAG) + (1 + 1j) / 2) for r in (10.0, 100.0, 1000.0)]
    if not (devs[0] > devs[1] > devs[2]):
        problems.append(f"asymptote deviations not decreasing: {devs}")
    if devs[2] >= 1e-2:
        problems.append(f"deviation at 1e3 too large: {devs[2]}")
    report("criterion 7 (large-lambda asymptotics)", problems, t0)


def test_criterion_8_exact_oracle():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(8)
    for case in range(10):
        nh = int(rng.integers(1, 5))
        harmonics = [
            QC.of(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))).divint(9)
            for _ in range(nh)
        ]
        exact = exact_forward_table(harmonics, 8)
        p = FourierPotential(beta=1.0, q=tuple(h.to_complex() for h in harmonics))
        table = build_table(p, 8)
        for (n, a), val in exact.items():
            ref = val.to_complex()
            if abs(table.entry(n, a) - ref) > 1e-13 * max(1.0, abs(ref)):
                problems.append(f"case {case}: entry ({n},{a}) off")
    report("criterion 8 (exact-rational oracle agreement)", problems, t0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    problems = []
    pot = tmp_path / "p.json"
    pot.write_text(json.dumps({"beta": 1.0, "q": [[1.0, 0.0]]}))
    args = ["forward", str(pot), "--nmax", "3"]
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        if main(args + ["--out", str(out)]) != 0:
            problems.append(f"forward run {run} failed")
            continue
        outs.append(out)
    if len(outs) == 2:
        for name in ("spectral-data.json", "spectrum-report.json"):
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                problems.append(f"{name} differs between identical runs")
        recs = []
        for run, out in zip(("i1", "i2"), outs):
            rec = tmp_path / f"{run}.json"
            if main(["inverse", str(outs[0] / 'spectral-data.json'), "--out", str(rec)]) != 0:
                problems.append(f"inverse run {run} failed")
            recs.append(rec)
        if len(recs) == 2 and recs[0].read_bytes() != recs[1].read_bytes():
            problems.append("reconstruction differs between identical runs")
    report("criterion 9 (byte determinism of the command line)", problems, t0)
