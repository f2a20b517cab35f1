"""Command-line interface, file schemas and byte determinism."""

import json
import warnings

import numpy as np
import pytest

from spectral_sl import (
    AnalyticProvider,
    FourierPotential,
    SchemaError,
    build_table,
    coefficient_evaluators,
    eval_f1,
    eval_f2,
    reconstruct,
    sampled_provider,
)
from spectral_sl import cli
from spectral_sl import coeffs as coeffs_module
from spectral_sl import inverse as inverse_module
from spectral_sl.cli import (
    load_potential,
    load_spectral_data,
    main,
    spectrum_report_to_dict,
)
from spectral_sl.inverse import FALLBACK_POINTS, ReconstructionResult, recover_diagonal
from spectral_sl.scattering import pole_circle
from spectral_sl.solutions import ode_residual
from spectral_sl.spectrum import SpectrumReport, EigenvalueHit, Singularity

from .conftest import EIG_POTENTIAL


#: 5,001 digits: Python's json reads no integer of over 4,300 digits and
#: writes none, so `_dumps` writes this string as the bare integer.
LONG_INT = "9" * 5001
LONG_INT_ERROR = ("cannot be read as JSON (Exceeds the limit (4300 digits) for integer string "
                  "conversion: value has 5001 digits; use sys.set_int_max_str_digits() to "
                  "increase the limit)")


def _dumps(obj) -> str:
    """json.dumps, with each string LONG_INT written as a bare integer."""
    return json.dumps(obj).replace(f'"{LONG_INT}"', LONG_INT)


def write_potential(path, beta, q):
    with open(path, "w") as fh:
        json.dump({"beta": beta, "q": [[c.real, c.imag] for c in map(complex, q)]}, fh)


class TestSchemas:
    def test_potential_roundtrip(self, tmp_path):
        path = tmp_path / "p.json"
        write_potential(path, 1.5, [1 + 2j, -0.5j])
        p = load_potential(path)
        assert p.beta == 1.5
        assert p.q == (1 + 2j, -0.5j)

    def test_potential_schema_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"beta": "x", "q": []}')
        with pytest.raises(SchemaError):
            load_potential(path)
        path.write_text('{"q": []}')
        with pytest.raises(SchemaError):
            load_potential(path)
        path.write_text("not json")
        with pytest.raises(SchemaError):
            load_potential(path)

    # q[0] is good, q[1] bad; forward exits 1 before any file is written
    @pytest.mark.parametrize(
        "beta, q1, message",
        [
            (True, [1.0, 0.0], "potential file needs a numeric 'beta'"),
            ("1.0", [1.0, 0.0], "potential file needs a numeric 'beta'"),
            (1.0, [True, 0.0], "q[1] must be a [re, im] pair of numbers"),
            (1.0, ["1", 0.0], "q[1] must be a [re, im] pair of numbers"),
            (1.0, [1.0, 0.0, 2.0], "q[1] must be a [re, im] pair of numbers"),
            # json keeps an integer exact, so this one is beyond the float range
            (1.0, [10**400, 0.0], "q[1] must be a [re, im] pair of numbers"),
            (1.0, [LONG_INT, 0.0], "{path}: " + LONG_INT_ERROR),
        ],
        ids=["bool-beta", "string-beta", "bool-q", "string-q", "three-q", "huge-q", "long-q"],
    )
    def test_potential_schema_messages(self, tmp_path, capsys, beta, q1, message):
        path = tmp_path / "p.json"
        path.write_text(_dumps({"beta": beta, "q": [[0.5, -1], q1]}))
        message = message.format(path=path)
        with pytest.raises(SchemaError) as exc:
            load_potential(path)
        assert str(exc.value) == message
        out = tmp_path / "out"
        assert main(["forward", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"schema error: {message}\n"
        assert not out.exists()

    # a sample list whose first bad entry is index 1; index 3 is bad too
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"c11": [True, 0.0]}, "samples[1].c11 must be a [re, im] pair of numbers"),
            ({"c12": [1.0, 2.0, 3.0]}, "samples[1].c12 must be a [re, im] pair of numbers"),
            ({"c11": [1.0, "2"]}, "samples[1].c11 must be a [re, im] pair of numbers"),
            ({"c12": None}, "samples[1] is missing 'c12'"),
            ([0.5, 0.01], "samples[1] must be an object"),
            ({"re": "x"}, "samples[1].re must be a number"),
            ({"re": True}, "samples[1].re must be a number"),
            # Python's json reads Infinity and NaN, and keeps a huge integer exact
            ({"re": float("inf")}, "samples[1].re must be a number"),
            ({"im": 10**400}, "samples[1].im must be a number"),
            ({"c11": [10**400, 0.0]}, "samples[1].c11 must be a [re, im] pair of numbers"),
        ],
        ids=["bool-c11", "three-c12", "string-c11", "missing-c12", "not-object", "string-re", "bool-re",
             "infinite-re", "huge-im", "huge-c11"],
    )
    def test_sample_schema_errors(self, tmp_path, capsys, bad, message):
        good = {"re": 0.5, "im": 0.01, "c11": [1, -2.0], "c12": [0.0, 3]}
        if isinstance(bad, dict):
            bad = {k: v for k, v in {**good, **bad}.items() if v is not None}
        samples = [good, bad, good, {"re": 0.0, "im": 0.0, "c11": [False, 1.0]}]
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"eigenvalues": [], "samples": samples, "meta": {}}))
        with pytest.raises(SchemaError) as exc:
            load_spectral_data(path)
        assert str(exc.value) == message
        assert main(["inverse", str(path)]) == 1
        assert capsys.readouterr().err == f"schema error: {message}\n"
        path.write_text(json.dumps({"eigenvalues": [], "samples": [good, good], "meta": {}}))
        provider = load_spectral_data(path)
        assert provider.sample_count == 2
        assert (provider.eval_c11(0.5 + 0.01j), provider.eval_c12(0.5 + 0.01j)) == (1 - 2j, 3j)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"im": None}, "eigenvalues[1].im must be a number"),
            ({"re": "0.5"}, "eigenvalues[1].re must be a number"),
            ({"re": float("nan")}, "eigenvalues[1].re must be a number"),
            ({"sector": True}, "eigenvalues[1].sector must be 0..3"),
            ({"multiplicity": "x"}, "eigenvalues[1].multiplicity must be an integer >= 1"),
            ({"multiplicity": -3}, "eigenvalues[1].multiplicity must be an integer >= 1"),
            ({"multiplicity": 0}, "eigenvalues[1].multiplicity must be an integer >= 1"),
            ({"multiplicity": True}, "eigenvalues[1].multiplicity must be an integer >= 1"),
        ],
        ids=["null-im", "string-re", "nan-re", "bool-sector", "string-mult", "negative-mult", "zero-mult", "bool-mult"],
    )
    def test_eigenvalue_schema_errors(self, tmp_path, capsys, bad, message):
        good = {"re": 0.5, "im": 0.25, "sector": 0, "multiplicity": 1}
        sample = {"re": 0.5, "im": 0.01, "c11": [1, -2.0], "c12": [0.0, 3]}
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"eigenvalues": [good, {**good, **bad}], "samples": [sample], "meta": {}}))
        with pytest.raises(SchemaError) as exc:
            load_spectral_data(path)
        assert str(exc.value) == message
        assert main(["inverse", str(path)]) == 1
        assert capsys.readouterr().err == f"schema error: {message}\n"

    @pytest.mark.parametrize("n_max", ["x", 2.5, 0, True, LONG_INT],
                             ids=["string", "float", "zero", "bool", "long"])
    def test_meta_n_max_schema_errors(self, tmp_path, capsys, n_max):
        sample = {"re": 0.5, "im": 0.01, "c11": [1, -2.0], "c12": [0.0, 3]}
        path = tmp_path / "data.json"
        path.write_text(_dumps({"eigenvalues": [], "samples": [sample], "meta": {"n_max": n_max}}))
        message = f"{path}: {LONG_INT_ERROR}" if n_max == LONG_INT else "meta.n_max must be an integer >= 1"
        with pytest.raises(SchemaError) as exc:
            load_spectral_data(path)
        assert str(exc.value) == message
        assert main(["inverse", str(path)]) == 1
        assert capsys.readouterr().err == f"schema error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["forward", "{path}"],
        ["inverse", "{path}"],
        ["eval", "{path}", "--lambda", "1+1i", "--x-range", "0:1:3", "--solution", "f1+"],
    ], ids=["forward", "inverse", "eval"])
    def test_deeply_nested_file_exits_one(self, tmp_path, capsys, argv):
        # Python's json recurses once per nesting level and raises
        # RecursionError, not ValueError, long before 100,000 levels
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([a.format(path=path) for a in argv] + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"schema error: {path}: cannot be read as JSON (")
        assert list(tmp_path.iterdir()) == [path]

    def test_spectrum_report_to_dict(self):
        report = SpectrumReport(
            eigenvalues=[
                EigenvalueHit(lam=0.5 + 0.25j, sector=0, multiplicity=2, coefficient_value=1e-14 + 0j)
            ],
            singularities=[Singularity(kind="real", n=1, value=0.5 + 0j)],
        )
        assert spectrum_report_to_dict(report) == {
            "eigenvalues": [
                {"re": 0.5, "im": 0.25, "sector": 0, "multiplicity": 2, "coefficient_value": [1e-14, 0.0]}
            ],
            "singularities": [{"kind": "real", "n": 1, "re": 0.5, "im": 0.0}],
            "continuous_spectrum": "axes Re lambda = 0 and Im lambda = 0",
        }


class TestWriter:
    def test_bytes_match_the_python_encoder(self, tmp_path):
        model = cli.AnalyticProvider(EIG_POTENTIAL, 30, 6)
        data, report = cli._spectral_data(model, 30, 6), cli.spectrum_report_to_dict(model.report)
        result = ReconstructionResult(
            beta=np.float64(1.25),
            q=[np.complex128(0.5 - 2j), complex(-0.0, 1e-300)],
            diagnostics={
                "offdiagonal_residual": np.float64(3.5e-17),
                "column_sum_residual": float("nan"),
                "spread": [float("inf"), -float("inf"), -0.0, np.float64(-0.0)],
                "stable_harmonics": [True, False],
                "eigenvalue_count": 6,
            },
        )
        for i, obj in enumerate((data, report, cli.reconstruction_to_dict(result))):
            path = tmp_path / f"{i}.json"
            cli._write_json(path, obj)
            encoder = json.JSONEncoder(ensure_ascii=True, separators=(",", ":"))
            text = "".join(encoder.iterencode(obj)) + "\n"
            assert path.read_bytes() == text.encode("ascii")

    def test_failed_encoding_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            cli._write_json(tmp_path / "t.json", {"a": [1.0] * 10, "b": object()})
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_tmp(self, tmp_path, capsys):
        # the reconstruction path is a directory: the write exits 3, and
        # leaves neither a file nor a .tmp beside the directory
        pot = tmp_path / "p.json"
        write_potential(pot, EIG_POTENTIAL.beta, EIG_POTENTIAL.q)
        assert main(["export-spectral-data", str(pot), "--out", str(tmp_path)]) == 0
        (tmp_path / "d" / "reconstruction.json").mkdir(parents=True)
        data = tmp_path / "spectral-data.json"
        assert main(["inverse", str(data), "--out", str(tmp_path / "d" / "reconstruction.json")]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert [f.name for f in (tmp_path / "d").iterdir()] == ["reconstruction.json"]

    def test_failed_report_write_leaves_no_tmp(self, tmp_path, capsys):
        # forward writes its spectral data, then cannot replace the report
        # directory: exit 3, with no spectrum-report.json.tmp left
        pot = tmp_path / "p.json"
        write_potential(pot, EIG_POTENTIAL.beta, EIG_POTENTIAL.q)
        (tmp_path / "out" / "spectrum-report.json").mkdir(parents=True)
        assert main(["forward", str(pot), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [
            "spectral-data.json", "spectrum-report.json"]


class TestForwardCommand:
    def test_one_forward_model_per_op(self, monkeypatch):
        # one forward model and its spectral data build the table once, scans once and
        # calls each coefficient once, on the whole export plan
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)
            return wrapper

        def evaluators(table, beta):
            return tuple(counted(name, form) for name, form in
                         zip(("c11", "c12"), coefficient_evaluators(table, beta)))

        for name, fn in (("build_table", inverse_module.build_table),
                         ("scan_spectrum", inverse_module.scan_spectrum),
                         ("coefficient_evaluators", evaluators)):
            monkeypatch.setattr(inverse_module, name, counted(name, fn))
        data = cli._spectral_data(cli.AnalyticProvider(EIG_POTENTIAL, 30, 6), 30, 6)
        names = [name for name, _args in calls]
        assert sorted(names) == ["build_table", "c11", "c12", "coefficient_evaluators", "scan_spectrum"]
        plan = np.array([complex(s["re"], s["im"]) for s in data["samples"]])
        for name, args in calls:
            if name in ("c11", "c12"):
                assert args[0].tobytes() == plan.tobytes()

    def test_free_potential_products(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [])
        assert main(["forward", str(pot), "--out", str(tmp_path), "--nmax", "2"]) == 0
        report = json.load(open(tmp_path / "spectrum-report.json"))
        assert report["eigenvalues"] == []
        values = {complex(s["re"], s["im"]) for s in report["singularities"]}
        assert values == {0.5, -0.5, 1.0, -1.0, 0.5j, -0.5j, 1j, -1j}
        provider = load_spectral_data(tmp_path / "spectral-data.json")
        assert provider.meta["n_max"] == 2 and provider.meta["A"] == 30

    def test_exported_pole_strength_matches_table(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["forward", str(pot), "--out", str(tmp_path), "--nmax", "2"]) == 0
        prov = sampled_provider(tmp_path / "spectral-data.json")
        diag, _flags = recover_diagonal(prov, 1)
        assert abs(diag[0] - (-1.0)) < 1e-6

    def test_byte_determinism(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [0.3 + 0.4j])
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["forward", str(pot), "--nmax", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("spectral-data.json", "spectrum-report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestExportRaster:
    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        # EIG_POTENTIAL with the default n_max = 6
        tmp = tmp_path_factory.mktemp("export")
        pot = tmp / "p.json"
        write_potential(pot, EIG_POTENTIAL.beta, EIG_POTENTIAL.q)
        assert main(["forward", str(pot), "--out", str(tmp / "plain")]) == 0
        return tmp

    def test_default_export_has_no_raster(self, exports):
        plain = load_spectral_data(exports / "plain" / "spectral-data.json")
        n_eig = len(plain.eigenvalues)
        assert n_eig == 6
        # the pole-strength circle at each n/2 and +/- the one sector 0
        # eigenvalue; no far-field points, which only the eigenvalue-free
        # beta path reads
        assert [sector for _lam, sector, _mult in plain.eigenvalues].count(0) == 1
        assert plain.sample_count == 32 * 6 + 2

    def test_file_diagonal_matches_analytic(self, exports):
        # the file holds the pole-strength circles exactly, so the diagonal
        # read from it agrees with the forward model's to rounding
        from_file, _flags = recover_diagonal(sampled_provider(exports / "plain" / "spectral-data.json"), 6)
        analytic, _flags = recover_diagonal(AnalyticProvider(EIG_POTENTIAL, 30), 6)
        for a, b in zip(from_file, analytic):
            assert abs(a - b) <= 1e-13 * abs(b)

    def test_inverse_of_default_export(self, exports, tmp_path):
        out = tmp_path / "rec.json"
        assert main(["inverse", str(exports / "plain" / "spectral-data.json"), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert abs(rec["beta"] - EIG_POTENTIAL.beta) < 1e-6
        for n, pair in enumerate(rec["q"], start=1):
            assert abs(complex(*pair) - EIG_POTENTIAL.harmonic(n)) < 1e-6 * max(1.0, abs(EIG_POTENTIAL.harmonic(n)))


class RecordingProvider:
    """Another provider's data, recording every point either evaluator is
    asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.eigenvalues = inner.eigenvalues
        self.queried = set()

    def eval_c11(self, lam):
        self.queried.update(np.ravel(lam).tolist())
        return self.inner.eval_c11(lam)

    def eval_c12(self, lam):
        self.queried.update(np.ravel(lam).tolist())
        return self.inner.eval_c12(lam)


#: EIG_POTENTIAL reads beta at its sector 0 eigenvalue; q = (1,) has no
#: eigenvalue and reads the far field; h1-6 has sector 1 and 3 eigenvalues
#: only, so it reads the far field too and none of its eigenvalues.
PLAN_POTENTIALS = pytest.mark.parametrize("potential, n_eig, n_samples", [
    (EIG_POTENTIAL, 6, 32 * 6 + 2),
    (FourierPotential(beta=1.0, q=(1.0,)), 0, 32 * 6 + 6),
    (FourierPotential(beta=1.79, q=(-1.01 - 3.29j,)), 6, 32 * 6 + 6),
], ids=["eig", "empty", "h1-6"])


def _forward(tmp_path, potential) -> dict:
    pot = tmp_path / "p.json"
    write_potential(pot, potential.beta, potential.q)
    assert main(["forward", str(pot), "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "spectral-data.json").read_text())


def _earlier_layout(data, potential) -> dict:
    """The same export in the earlier layout: meta.beta_hint, the far-field
    points after the circles whatever the spectrum, then +/- every sector 0
    and 3 eigenvalue; a point the export lacks gets forward-model values."""
    stored = {complex(s["re"], s["im"]): s for s in data["samples"]}
    lams = [complex(e["re"], e["im"]) for e in data["eigenvalues"] if e["sector"] in (0, 3)]
    points = list(stored)[: 32 * data["meta"]["n_max"]] + FALLBACK_POINTS.tolist()
    points += [p for lam in lams for p in (lam, -lam)]
    missing = np.array([p for p in points if p not in stored], dtype=complex)
    c11_fn, c12_fn = coefficient_evaluators(build_table(potential, 30), potential.beta)
    for p, a, b in zip(missing.tolist(), c11_fn(missing).tolist(), c12_fn(missing).tolist()):
        stored[p] = {"re": p.real, "im": p.imag, "c11": [a.real, a.imag], "c12": [b.real, b.imag]}
    meta = {"beta_hint": potential.beta, **data["meta"]}
    return {"eigenvalues": data["eigenvalues"], "samples": [stored[p] for p in points], "meta": meta}


class TestSamplePlan:
    @PLAN_POTENTIALS
    def test_export_is_the_read_set(self, tmp_path, potential, n_eig, n_samples):
        data = _forward(tmp_path, potential)
        assert len(data["eigenvalues"]) == n_eig
        assert data["meta"] == {"n_max": 6, "A": 30}
        points = [complex(s["re"], s["im"]) for s in data["samples"]]
        assert len(points) == len(set(points)) == n_samples
        provider = RecordingProvider(sampled_provider(tmp_path / "spectral-data.json"))
        reconstruct(provider, n_max=6)
        assert provider.queried == set(points)

    @PLAN_POTENTIALS
    def test_earlier_layout_inverts_to_the_same_bytes(self, tmp_path, potential, n_eig, n_samples):
        data = _forward(tmp_path, potential)
        old = _earlier_layout(data, potential)
        assert len(old["samples"]) == 32 * 6 + 6 + n_eig
        (tmp_path / "old.json").write_text(json.dumps(old))
        for name in ("spectral-data", "old"):
            args = ["inverse", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / f"rec-{name}.json")]
            assert main(args) == 0
        assert (tmp_path / "rec-old.json").read_bytes() == (tmp_path / "rec-spectral-data.json").read_bytes()


class TestInverseCommand:
    def test_end_to_end_roundtrip(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["forward", str(pot), "--out", str(tmp_path), "--nmax", "3"]) == 0
        rec_path = tmp_path / "reconstruction.json"
        assert main(["inverse", str(tmp_path / "spectral-data.json"), "--out", str(rec_path)]) == 0
        rec = json.loads(rec_path.read_text())
        assert abs(rec["beta"] - 1.0) < 1e-4
        assert abs(complex(*rec["q"][0]) - 1.0) < 1e-4
        for pair in rec["q"][1:]:
            assert abs(complex(*pair)) < 1e-4

    def test_inverse_byte_determinism(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 2.0, [0.5, -0.25j])
        assert main(["forward", str(pot), "--out", str(tmp_path), "--nmax", "3"]) == 0
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        data = str(tmp_path / "spectral-data.json")
        assert main(["inverse", data, "--out", str(r1)]) == 0
        assert main(["inverse", data, "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_self_test_flag(self, tmp_path, capsys):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["inverse", "--self-test", str(pot), "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "self-test max relative error" in out
        assert float(out.strip().rsplit(" ", 1)[1]) < 1e-4

    def test_self_test_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        real = cli.reconstruct

        def biased(*args, **kwargs):
            result = real(*args, **kwargs)
            result.q[0] += 10 * cli.SELF_TEST_TOL
            return result

        monkeypatch.setattr(cli, "reconstruct", biased)
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["inverse", "--self-test", str(pot), "--nmax", "2"]) == 2
        assert "self-test error above" in capsys.readouterr().err

    def test_nan_eigenvalue_samples_exit_two(self, tmp_path, capsys):
        # NaN passes neither side of a comparison: beta = NaN must not be
        # written as a result
        pot = tmp_path / "p.json"
        write_potential(pot, EIG_POTENTIAL.beta, EIG_POTENTIAL.q)
        assert main(["forward", str(pot), "--out", str(tmp_path)]) == 0
        path = tmp_path / "spectral-data.json"
        data = json.loads(path.read_text())
        eigs = {complex(e["re"], e["im"]) for e in data["eigenvalues"]}
        assert eigs
        for s in data["samples"]:
            if complex(s["re"], s["im"]) in eigs:
                s["c11"] = [float("nan"), float("nan")]
        path.write_text(json.dumps(data))
        out = tmp_path / "rec.json"
        assert main(["inverse", str(path), "--out", str(out)]) == 2
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_circle_sample_exits_two(self, tmp_path, capsys):
        # the inverse reads only stored samples: a file that lost one point
        # of a pole circle cannot be reconstructed
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["export-spectral-data", str(pot), "--out", str(tmp_path), "--nmax", "3"]) == 0
        path = tmp_path / "spectral-data.json"
        data = json.loads(path.read_text())
        lost = complex(pole_circle(2)[5])
        data["samples"] = [s for s in data["samples"] if complex(s["re"], s["im"]) != lost]
        path.write_text(json.dumps(data))
        out = tmp_path / "rec.json"
        assert main(["inverse", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"numerical error: no sample at {lost}\n"
        assert not out.exists()

    @pytest.mark.parametrize("route", ["file", "self-test"])
    def test_overflowing_beta_exits_two_without_warning(self, tmp_path, capsys, route):
        # beta = 1e300 gives finite samples (c11 up to 3e284), but the beta
        # products i c11(lam) c11(-lam) overflow: refused, not warned about
        pot = tmp_path / "p.json"
        pot.write_text('{"beta": 1e300, "q": [[4, 4]]}')
        assert main(["forward", str(pot), "--out", str(tmp_path)]) == 0
        rec = tmp_path / "reconstruction.json"  # the self-test takes no --out
        source = ([str(tmp_path / "spectral-data.json"), "--out", str(rec)] if route == "file"
                  else ["--self-test", str(pot)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inverse", *source]) == 2
        assert capsys.readouterr().err.startswith("numerical error: recovered beta ")
        assert not rec.exists()

    def test_overflowing_pole_strengths_exit_two(self, tmp_path, capsys):
        # c11 scaled by 1e200 on every pole circle is schema-valid, but the
        # table rebuilt from its pole strengths overflows past q_1
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["export-spectral-data", str(pot), "--out", str(tmp_path)]) == 0
        path = tmp_path / "spectral-data.json"
        data = json.loads(path.read_text())
        for s in data["samples"][: 32 * 6]:
            s["c11"] = [1e200 * v for v in s["c11"]]
        path.write_text(json.dumps(data))
        rec = tmp_path / "reconstruction.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inverse", str(path), "--out", str(rec)]) == 2
        assert capsys.readouterr().err == "numerical error: the rebuilt harmonic q_2 is not finite\n"
        assert not rec.exists()

    def test_file_and_self_test_take_one_route(self, tmp_path, monkeypatch):
        # both feed reconstruct the same provider and n_max
        real, calls = cli.reconstruct, []

        def record(provider, n_max):
            calls.append((provider, n_max))
            return real(provider, n_max)

        monkeypatch.setattr(cli, "reconstruct", record)
        pot = tmp_path / "p.json"
        write_potential(pot, EIG_POTENTIAL.beta, EIG_POTENTIAL.q)
        assert main(["forward", str(pot), "--out", str(tmp_path)]) == 0
        assert main(["inverse", str(tmp_path / "spectral-data.json"), "--out", str(tmp_path)]) == 0
        assert main(["inverse", "--self-test", str(pot)]) == 0
        (file_run, file_n), (test_run, test_n) = calls
        assert file_run._index == test_run._index  # the points, in sample order
        assert np.array_equal(file_run._c11, test_run._c11)
        assert np.array_equal(file_run._c12, test_run._c12)
        assert file_run.eigenvalues == test_run.eigenvalues and len(file_run.eigenvalues) == 6
        assert file_n == test_n == 6

    def test_self_test_checks_its_data_as_a_file(self, tmp_path, capsys, monkeypatch):
        # the forward model's spectral data passes the file's checks before it
        # becomes a provider: a sample without c12 is a schema error, not a KeyError
        real = cli._spectral_data

        def drop_c12(*args):
            data = real(*args)
            del data["samples"][0]["c12"]
            return data

        monkeypatch.setattr(cli, "_spectral_data", drop_c12)
        pot = tmp_path / "p.json"
        write_potential(pot, EIG_POTENTIAL.beta, EIG_POTENTIAL.q)
        assert main(["inverse", "--self-test", str(pot)]) == 1
        assert capsys.readouterr() == ("", "schema error: samples[0] is missing 'c12'\n")

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": []}')
        assert main(["inverse", str(bad)]) == 1
        assert "schema error" in capsys.readouterr().err

    def test_missing_input_exits_one(self):
        assert main(["inverse"]) == 1

    def test_missing_file_exits_three(self, tmp_path):
        # nonexistent path surfaces as an I/O failure
        assert main(["inverse", str(tmp_path / "nothere.json")]) == 3


class TestEvalCommand:
    def test_free_plane_wave_rows(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [])
        csv = tmp_path / "c.csv"
        lam = 1 + 2j
        assert main([
            "eval", str(pot), "--lambda", "1+2i", "--x-range", "0:2:5",
            "--solution", "f1+", "--out", str(csv),
        ]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,re,im,d_re,d_im,ode_residual_abs"
        assert len(lines) == 6  # header + count rows
        for line in lines[1:]:
            x, re, im, dre, dim, res = (float(v) for v in line.split(","))
            expect = np.exp(1j * lam * x)
            assert abs(complex(re, im) - expect) < 1e-12
            assert abs(complex(dre, dim) - 1j * lam * expect) < 1e-12
            assert res < 1e-12

    def test_residual_column_small_for_single_harmonic(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        csv = tmp_path / "c.csv"
        assert main([
            "eval", str(pot), "--lambda", "i", "--x-range", "0.1:3:9",
            "--solution", "f1+", "--out", str(csv),
        ]) == 0
        for line in csv.read_text().splitlines()[1:]:
            assert float(line.split(",")[-1]) < 1e-8

    @pytest.mark.parametrize("flag,value", [("--x-range", "-6:-1:5"), ("--lambda", "-1+2i")])
    def test_negative_value_after_a_space(self, tmp_path, flag, value):
        # '-6:-1:5' looks like a flag to argparse; it must parse as the value
        pot = tmp_path / "p.json"
        write_potential(pot, 1.3, [0.5 - 0.2j])
        args = {"--x-range": "-6:-1:5", "--lambda": "1+1i"}
        csvs = []
        for attach in (False, True):
            csv = tmp_path / f"c{int(attach)}.csv"
            argv = ["eval", str(pot), "--solution", "f2-", "--out", str(csv)]
            for f, v in {**args, flag: value}.items():
                argv += [f"{f}={v}"] if attach else [f, v]
            assert main(argv) == 0
            csvs.append(csv.read_bytes())
        assert csvs[0] == csvs[1]
        x = [float(line.split(",")[0]) for line in csvs[0].decode().splitlines()[1:]]
        assert x == list(np.linspace(-6.0, -1.0, 5))

    @pytest.mark.parametrize("which", ["f1+", "f1-", "f2+", "f2-"])
    def test_rows_match_the_separate_evaluators(self, tmp_path, which):
        # one series evaluation per point gives the same bits as eval_f1 /
        # eval_f2 followed by ode_residual
        p = EIG_POTENTIAL
        pot = tmp_path / "p.json"
        write_potential(pot, p.beta, p.q)
        csv = tmp_path / "c.csv"
        lam = 0.9 + 0.4j
        lo, hi = (0.0, 3.0) if which[1] == "1" else (-3.0, -0.1)
        assert main([
            "eval", str(pot), "--lambda", "0.9+0.4i", f"--x-range={lo}:{hi}:7",
            "--solution", which, "--out", str(csv),
        ]) == 0
        table = build_table(p, 30)
        expect = []
        for x in np.linspace(lo, hi, 7):
            x = float(x)
            if which[1] == "1":
                s = eval_f1(table, lam, x, which[2])
            else:
                s = eval_f2(table, p.beta, lam, x, which[2])
            res = abs(ode_residual(p, table, lam, x, which))
            expect.append(
                f"{x!r},{s.value.real!r},{s.value.imag!r},"
                f"{s.derivative.real!r},{s.derivative.imag!r},{res!r}"
            )
        assert csv.read_text().splitlines()[1:] == expect

    @pytest.mark.parametrize("which", ["f1+", "f1-", "f2+", "f2-"])
    def test_rows_do_not_depend_on_the_batch(self, tmp_path, which):
        # the whole grid is one series pass; a row must still have the bits
        # of that x evaluated alone, wherever it sits in the grid
        p = EIG_POTENTIAL
        pot = tmp_path / "p.json"
        write_potential(pot, p.beta, p.q)
        csv = tmp_path / "c.csv"
        lam, count = 0.9 + 0.4j, 601
        lo, hi = (0.0, 6.0) if which[1] == "1" else (-6.0, -0.003)
        assert main([
            "eval", str(pot), "--lambda", "0.9+0.4i", f"--x-range={lo}:{hi}:{count}",
            "--solution", which, "--out", str(csv),
        ]) == 0
        rows = csv.read_text().splitlines()[1:]
        assert len(rows) == count
        table = build_table(p, 30)
        xs = np.linspace(lo, hi, count)
        for i in range(0, count, 50):
            x = float(xs[i])
            if which[1] == "1":
                s = eval_f1(table, lam, x, which[2])
            else:
                s = eval_f2(table, p.beta, lam, x, which[2])
            res = abs(ode_residual(p, table, lam, x, which))
            assert rows[i] == (
                f"{x!r},{s.value.real!r},{s.value.imag!r},"
                f"{s.derivative.real!r},{s.derivative.imag!r},{res!r}"
            )

    def test_pole_exits_two_without_output(self, tmp_path, capsys):
        # f1- has a live pole at lambda = +1/2 when q_1 != 0
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        csv = tmp_path / "c.csv"
        assert main([
            "eval", str(pot), "--lambda", "0.5", "--x-range", "0:2:5",
            "--solution", "f1-", "--out", str(csv),
        ]) == 2
        assert "numerical error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [pot]

    def test_overflow_exits_two_without_output(self, tmp_path, capsys):
        # e^{kx} overflows at x = -800 for f2- at lambda = 1+1i: the rows would
        # read nan and inf, so nothing is written
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0 + 0.5j])
        csv = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning either
            assert main([
                "eval", str(pot), "--lambda", "1+1i", "--x-range=-800:-700:3",
                "--solution", "f2-", "--out", str(csv),
            ]) == 2
        assert capsys.readouterr().err.startswith("numerical error: ")
        assert list(tmp_path.iterdir()) == [pot]

    def test_dead_row_is_no_pole(self, tmp_path, capsys):
        # q = (0, 1) leaves row 1 of the table zero: lam = -1/2 is no pole of
        # f1+, while lam = -1, on the live row 2, is one
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [0.0, 1.0])
        argv = ["eval", str(pot), "--x-range", "0:2:5", "--solution", "f1+"]
        assert main(argv + ["--lambda", "-0.5", "--out", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--lambda", "-1", "--out", str(tmp_path / "b.csv")]) == 2
        assert "numerical error" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.csv", "p.json"]

    def test_order_past_the_stop_writes_the_same_bytes(self, tmp_path):
        # the sum stops at the rounding floor, which -A 120 already passes
        pot = tmp_path / "p.json"
        write_potential(pot, 1.76, [-2.82 - 0.23j, 3.49 + 4.01j, -0.97 - 2.41j])
        csvs = []
        for order in ("120", "5000"):
            csv = tmp_path / f"c{order}.csv"
            assert main([
                "eval", str(pot), "-A", order, "--lambda", "0.9+0.4i",
                "--x-range=-6:-0.003:201", "--solution", "f2-", "--out", str(csv),
            ]) == 0
            csvs.append(csv.read_bytes())
        assert csvs[0] == csvs[1]

    def test_builds_no_table(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eval built a table")

        monkeypatch.setattr(coeffs_module, "build_table", refuse)
        monkeypatch.setattr(coeffs_module.CoefficientTable, "__init__", refuse)
        pot = tmp_path / "p.json"
        write_potential(pot, EIG_POTENTIAL.beta, EIG_POTENTIAL.q)
        for which in ("f1+", "f2-"):
            assert main([
                "eval", str(pot), "-A", "120", "--lambda", "0.9+0.4i", "--x-range", "0:1:5",
                "--solution", which, "--out", str(tmp_path / "c.csv"),
            ]) == 0

    def test_bad_lambda_exits_one(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [])
        assert main([
            "eval", str(pot), "--lambda", "huh", "--x-range", "0:1:2",
            "--solution", "f1+",
        ]) == 1

    @pytest.mark.parametrize("lam,x_range", [
        ("nan", "0:1:3"), ("1e400", "0:1:3"), ("1+nani", "0:1:3"),
        ("1+1i", "0:nan:3"), ("1+1i", "0:inf:3"), ("1+1i", "-inf:1:3"),
    ])
    def test_non_finite_argument_exits_one(self, tmp_path, capsys, lam, x_range):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [])
        assert main([
            "eval", str(pot), "--lambda", lam, "--x-range", x_range,
            "--solution", "f1+", "--out", str(tmp_path / "c.csv"),
        ]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [pot]

    def test_overflowing_span_exits_one(self, tmp_path, capsys):
        # hi - lo is past the float range, so the grid is not finite
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eval", str(pot), "--lambda", "1+1i", "--x-range=-1e308:1e308:3",
                       "--solution", "f1+", "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("schema error: --x-range ")
        assert list(tmp_path.iterdir()) == [pot]

    @pytest.mark.parametrize("count", [10**20, 10**17])
    def test_unallocatable_count_exits_one(self, tmp_path, capsys, count):
        # 10**20 points exceed numpy's largest array size and 10**17 float64s
        # are 711 PiB, more than any address space: numpy refuses both
        # before it touches memory, and neither is a traceback
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [])
        assert main([
            "eval", str(pot), "--lambda", "1+1i", "--x-range", f"0:1:{count}",
            "--solution", "f1+", "--out", str(tmp_path / "c.csv"),
        ]) == 1
        assert capsys.readouterr().err.startswith(f"schema error: --x-range count {count} ")
        assert list(tmp_path.iterdir()) == [pot]


class TestSpectrumCommand:
    def test_report_written(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 2.0, [])
        assert main(["spectrum", str(pot), "--out", str(tmp_path), "--nmax", "2"]) == 0
        report = json.load(open(tmp_path / "spectrum-report.json"))
        assert report["continuous_spectrum"] == "axes Re lambda = 0 and Im lambda = 0"
        assert len(report["singularities"]) == 8


def _out_unless_self_test(argv, tmp_path):
    """--out into tmp_path/out, which the self-test, writing nothing, refuses."""
    return [] if "--self-test" in argv else ["--out", str(tmp_path / "out")]


class TestArgumentChecks:
    """Usage errors exit 1, and each command checks only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["forward", "{pot}", "--tol", "1e-9"],
        ["forward", "{pot}", "-A", "abc"],
        ["eval", "{pot}", "--lambda", "1", "--x-range", "0:1:3"],
        ["eval", "{pot}", "--nmax", "6", "--lambda", "1+1i", "--x-range", "0:1:3", "--solution", "f1+"],
        ["no-such-command"],
        [],
    ], ids=["unknown-flag", "non-integer-order", "missing-solution", "eval-nmax", "unknown-command",
            "no-command"])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [])
        assert main([a.format(pot=pot) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("schema error: spectral-sl")
        assert list(tmp_path.iterdir()) == [pot]

    def test_eval_ignores_nmax(self, tmp_path):
        # eval has no --nmax, so -A 5 below the other commands' default of 6 is fine
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        csv = tmp_path / "c.csv"
        assert main([
            "eval", str(pot), "-A", "5", "--lambda", "1+1i", "--x-range", "0:1:4",
            "--solution", "f1+", "--out", str(csv),
        ]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,re,im,d_re,d_im,ode_residual_abs"
        assert len(lines) == 5

    def test_inverse_of_a_file_reads_its_n_max(self, tmp_path):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["forward", str(pot), "--out", str(tmp_path), "--nmax", "3"]) == 0
        rec = tmp_path / "reconstruction.json"
        assert main(["inverse", str(tmp_path / "spectral-data.json"), "--nmax", "40", "--out", str(rec)]) == 0
        assert len(json.loads(rec.read_text())["q"]) == 3

    def test_inverse_of_a_file_with_self_test_exits_one(self, tmp_path, capsys):
        # --self-test reads no data file and writes no --out: both is a usage error
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["export-spectral-data", str(pot), "--out", str(tmp_path)]) == 0
        data, rec = tmp_path / "spectral-data.json", tmp_path / "r.json"
        assert main(["inverse", str(data), "--self-test", str(pot), "--out", str(rec)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "schema error: inverse takes a data file or --self-test, not both\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [pot, data]

    @pytest.mark.parametrize("out", ["r.json", "."])
    def test_self_test_with_out_exits_one(self, tmp_path, capsys, monkeypatch, out):
        # the self-test writes nothing, so any --out, even the default's ., is refused
        monkeypatch.chdir(tmp_path)
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main(["inverse", "--self-test", str(pot), "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == "schema error: inverse --self-test writes no file and takes no --out\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [pot]

    @pytest.mark.parametrize("meta_n_max, nmax", [(10**15, 6), (7, 6), (None, 10**15)],
                             ids=["meta-huge", "meta-seven", "flag-huge"])
    def test_n_max_beyond_the_samples_exits_two(self, tmp_path, capsys, meta_n_max, nmax):
        # EIG's 194 samples cannot hold 32 n_max pole-circle points for
        # n_max = 7: refused before any array of n_max circles is made
        data = cli._spectral_data(cli.AnalyticProvider(EIG_POTENTIAL, 30, 6), 30, 6)
        if meta_n_max is None:
            del data["meta"]["n_max"]
        else:
            data["meta"]["n_max"] = meta_n_max
        path, rec = tmp_path / "spectral-data.json", tmp_path / "reconstruction.json"
        path.write_text(json.dumps(data))
        assert main(["inverse", str(path), "--nmax", str(nmax), "--out", str(rec)]) == 2
        n = meta_n_max or nmax
        assert capsys.readouterr().err == (
            f"numerical error: {n} pole circles need {32 * n} samples, and the file holds 194\n")
        assert not rec.exists()

    @pytest.mark.parametrize("beta, q", [(1.0, [3e7]), (1e-320, [4.0 + 4.0j])],
                             ids=["q1-3e7", "beta-1e-320"])
    @pytest.mark.parametrize("argv", [
        ["forward", "{pot}"], ["spectrum", "{pot}"], ["export-spectral-data", "{pot}"],
        ["inverse", "--self-test", "{pot}"],
    ], ids=["forward", "spectrum", "export", "self-test"])
    def test_overflowing_model_exits_two(self, tmp_path, capsys, argv, beta, q):
        # the residues (and, for a subnormal beta, the poles) of the rational
        # forms are not finite: refused, with no warning and no product
        pot = tmp_path / "p.json"
        write_potential(pot, beta, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([a.format(pot=pot) for a in argv] + _out_unless_self_test(argv, tmp_path))
        assert rc == 2
        assert capsys.readouterr().err.startswith("numerical error: ")
        assert list(tmp_path.iterdir()) == [pot]

    @pytest.mark.parametrize("argv", [
        ["forward", "{pot}"], ["spectrum", "{pot}"], ["inverse", "--self-test", "{pot}"],
    ], ids=["forward", "spectrum", "self-test"])
    def test_unallocatable_order_exits_one(self, tmp_path, capsys, argv):
        # a table of order 10**10 has 10**20 entries, past numpy's largest
        # array size: numpy refuses it at once, before anything runs over
        # the order, and the refusal is not a traceback
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        argv = [a.format(pot=pot) for a in argv] + ["-A", str(10**10)] + _out_unless_self_test(argv, tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "schema error: a table of order 10000000000 cannot be allocated (")
        assert list(tmp_path.iterdir()) == [pot]

    @pytest.mark.parametrize("argv, message", [
        (["eval", "{pot}", "-A", "0", "--lambda", "1", "--x-range", "0:1:3", "--solution", "f1+"],
         "require order >= 1"),
        (["forward", "{pot}", "--nmax", "0"], "require order >= n_max >= 1"),
        (["forward", "{pot}", "-A", "3", "--nmax", "5"], "require order >= n_max >= 1"),
        (["inverse", "--self-test", "{pot}", "-A", "3"], "require order >= n_max >= 1"),
    ], ids=["eval-order-0", "forward-nmax-0", "forward-order-below-nmax", "self-test-order-below-nmax"])
    def test_bad_orders_exit_one(self, tmp_path, capsys, argv, message):
        pot = tmp_path / "p.json"
        write_potential(pot, 1.0, [1.0])
        assert main([a.format(pot=pot) for a in argv] + _out_unless_self_test(argv, tmp_path)) == 1
        assert capsys.readouterr().err == f"schema error: {message}\n"
        assert list(tmp_path.iterdir()) == [pot]
