"""Command-line front end and the on-disk file formats.

Commands
--------
forward              potential.json -> spectral-data.json + spectrum-report.json
export-spectral-data potential.json -> spectral-data.json
spectrum             potential.json -> spectrum-report.json
inverse              spectral-data.json -> reconstruction.json
eval                 potential.json -> CSV curve of one solution
The first three run one route, `cmd_forward`, and write the products named.
`inverse --self-test potential.json` reads no data file and writes none: it
runs the inverse of a file on its forward model's spectral data and
compares with the potential.

File formats (all JSON, floats serialised by Python's shortest round-trip
representation, so identical inputs give byte-identical outputs; the
products are written compact, with no space after "," or ":"):

potential.json        {"beta": <float>, "q": [[re, im], ...]}
                      index i of "q" holds the harmonic q_{i+1}.
spectral-data.json    {"eigenvalues": [{"re","im","sector","multiplicity"}],
                       "samples": [{"re","im","c11":[re,im],"c12":[re,im]}],
                       "meta": {"n_max":, "A":}}
                      The samples are exactly the points the inverse reads
                      (`inverse.sample_points`): the pole circle at each
                      n/2, n = 1 ... n_max, then +/- each sector 0
                      eigenvalue or, with none, six far-field points.
                      `_spectral_provider` checks and reads it in one pass.
spectrum-report.json  {"eigenvalues": [{"re","im","sector","multiplicity",
                                        "coefficient_value":[re,im]}],
                       "singularities": [{"kind","n","re","im"}],
                       "continuous_spectrum": <descriptor string>}
reconstruction.json   {"beta": <float>, "q": [[re, im], ...],
                       "diagnostics": {"stable_harmonics": [bool, ...],
                                       "eigenvalue_count": <int>}}

Exit codes: 0 success, 1 schema error, 2 numerical error, 3 I/O error; a
usage error, such as --out with --self-test, is a schema error.  The
library checks order >= n_max >= 1 (`AnalyticProvider`) and refuses an
overflow without a warning; this module checks n_max >= 1 for the inverse
of a file (whose meta.n_max wins) and order >= 1 for eval.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .coeffs import FourierPotential
from .errors import InsufficientSamples, SchemaError, SpectralError
from .inverse import AnalyticProvider, SampledProvider, reconstruct, sample_points, sampled_provider
from .scattering import POLE_CIRCLE_POINTS
from .solutions import eval_with_residual
from .spectrum import SpectrumReport

#: Largest relative error of beta and q that `inverse --self-test` passes.
SELF_TEST_TOL = 1e-6


# --- JSON helpers ----------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


_NUMBER = (int, float)  # exact for JSON values, where bool is its own type
_FLOAT_MAX = sys.float_info.max


def _non_numeric(obj, numbers=(), pairs=()):
    """The first key of ``numbers`` whose value in obj is not a finite JSON
    number (Python's json also reads NaN and Infinity, 1e400 as inf, and
    keeps a huge integer exact), else the first of ``pairs`` whose value is
    not an [re, im] list of two numbers, each a float, finite or not, or an
    integer within the float range, else None.  One call checks a whole
    record and formats nothing."""
    for key in numbers:
        v = obj[key]
        if type(v) not in _NUMBER or not abs(v) <= _FLOAT_MAX:
            return key
    for key in pairs:
        v = obj[key]
        if not (type(v) is list and len(v) == 2):
            return key
        a, b = v
        if not ((type(a) is float or type(a) is int and abs(a) <= _FLOAT_MAX)
                and (type(b) is float or type(b) is int and abs(b) <= _FLOAT_MAX)):
            return key
    return None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer of over
        # 4,300 digits, or arrays or objects nested deeper than the parser recurses
        raise SchemaError(f"{path}: cannot be read as JSON ({exc})") from exc


def _out_path(out: str, name: str) -> str:
    """``out`` itself when it ends in name's suffix, else ``out``/name; the
    directory it lies in is created."""
    path = out if out.endswith(os.path.splitext(name)[1]) else os.path.join(out, name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _write_text(path, text: str):
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:  # a failed write or rename leaves no .tmp behind
        os.remove(tmp)
        raise


def _write_json(path, obj):
    # the C encoder, unlike dump, with no cycle check: the products are trees the
    # program has just built; a failed encoding leaves no .tmp behind
    _write_text(path, json.dumps(obj, ensure_ascii=True, separators=(",", ":"), check_circular=False) + "\n")


def load_potential(path) -> FourierPotential:
    data = _load_json(path)
    _require(isinstance(data, dict), "potential file must hold a JSON object")
    _require("beta" in data and _non_numeric(data, ("beta",)) is None, "potential file needs a numeric 'beta'")
    _require("q" in data and isinstance(data["q"], list), "potential file needs a 'q' list")
    bad = _non_numeric(data["q"], pairs=range(len(data["q"])))
    _require(bad is None, f"q[{bad}] must be a [re, im] pair of numbers")
    try:
        return FourierPotential(beta=float(data["beta"]), q=tuple(complex(*c) for c in data["q"]))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _eigenvalue_record(lam: complex, sector, mult) -> dict:
    """An eigenvalue as both products write it."""
    return {"re": lam.real, "im": lam.imag, "sector": int(sector), "multiplicity": int(mult)}


def spectral_data_to_dict(eigenvalues, points, c11, c12, meta) -> dict:
    return {
        "eigenvalues": [_eigenvalue_record(*e) for e in eigenvalues],
        "samples": [{"re": p.real, "im": p.imag, "c11": [a.real, a.imag], "c12": [b.real, b.imag]}
                    for p, a, b in zip(points.tolist(), c11.tolist(), c12.tolist())],  # Python floats
        "meta": meta,
    }


def _spectral_provider(data) -> SampledProvider:
    """The provider of a spectral-data dict, each record checked and read in
    one pass; a record that breaks the format raises SchemaError."""
    _require(isinstance(data, dict), "spectral data must be a JSON object")
    for key in ("eigenvalues", "samples", "meta"):
        _require(key in data, f"spectral data is missing '{key}'")
    _require(isinstance(data["eigenvalues"], list), "'eigenvalues' must be a list")
    _require(isinstance(data["samples"], list), "'samples' must be a list")
    _require(isinstance(data["meta"], dict), "'meta' must be an object")
    n_max = data["meta"].get("n_max", 1)  # absent: the inverse takes --nmax
    _require(type(n_max) is int and n_max >= 1, "meta.n_max must be an integer >= 1")
    eigenvalues, points, c11, c12 = [], [], [], []
    # no message is formatted unless a check fails
    for i, e in enumerate(data["eigenvalues"]):
        if type(e) is not dict:
            raise SchemaError(f"eigenvalues[{i}] must be an object")
        for key in ("re", "im", "sector", "multiplicity"):
            if key not in e:
                raise SchemaError(f"eigenvalues[{i}] is missing '{key}'")
        bad = _non_numeric(e, ("re", "im"))
        if bad is not None:
            raise SchemaError(f"eigenvalues[{i}].{bad} must be a number")
        if not (type(e["sector"]) is int and 0 <= e["sector"] <= 3):
            raise SchemaError(f"eigenvalues[{i}].sector must be 0..3")
        mult = e["multiplicity"]
        if not (type(mult) is int and mult >= 1):
            raise SchemaError(f"eigenvalues[{i}].multiplicity must be an integer >= 1")
        eigenvalues.append((complex(e["re"], e["im"]), e["sector"], mult))
    for i, s in enumerate(data["samples"]):
        if type(s) is not dict:
            raise SchemaError(f"samples[{i}] must be an object")
        for key in ("re", "im", "c11", "c12"):
            if key not in s:
                raise SchemaError(f"samples[{i}] is missing '{key}'")
        bad = _non_numeric(s, ("re", "im"), ("c11", "c12"))
        if bad is not None:
            what = "a number" if bad in ("re", "im") else "a [re, im] pair of numbers"
            raise SchemaError(f"samples[{i}].{bad} must be {what}")
        points.append(complex(s["re"], s["im"]))
        c11.append(complex(*s["c11"]))
        c12.append(complex(*s["c12"]))
    return SampledProvider(points, c11, c12, eigenvalues, data["meta"])


def load_spectral_data(path) -> SampledProvider:
    return _spectral_provider(_load_json(path))


def spectrum_report_to_dict(report: SpectrumReport) -> dict:
    return {
        "eigenvalues": [
            {**_eigenvalue_record(h.lam, h.sector, h.multiplicity),
             "coefficient_value": [h.coefficient_value.real, h.coefficient_value.imag]}
            for h in report.eigenvalues
        ],
        "singularities": [
            {"kind": s.kind, "n": s.n, "re": s.value.real, "im": s.value.imag}
            for s in report.singularities
        ],
        "continuous_spectrum": report.continuous_spectrum,
    }


def reconstruction_to_dict(result) -> dict:
    return {
        "beta": result.beta,
        "q": [[c.real, c.imag] for c in result.q],
        "diagnostics": result.diagnostics,
    }


def _spectral_data(model: AnalyticProvider, order: int, n_max: int) -> dict:
    """The spectral-data dict of a forward model: c11 and c12 on every point
    the inverse reads."""
    points = sample_points(model.eigenvalues, n_max)
    return spectral_data_to_dict(model.eigenvalues, points, model.eval_c11(points),
                                 model.eval_c12(points), {"n_max": n_max, "A": order})


# --- commands ---------------------------------------------------------------


def cmd_forward(args) -> int:
    """forward, export-spectral-data and spectrum: one forward model, of which
    export-spectral-data writes only the spectral data and spectrum only the
    report."""
    model = AnalyticProvider(load_potential(args.input), args.order, args.nmax)
    os.makedirs(args.out, exist_ok=True)
    if args.command != "spectrum":
        _write_json(os.path.join(args.out, "spectral-data.json"),
                    _spectral_data(model, args.order, args.nmax))
    if args.command != "export-spectral-data":
        _write_json(os.path.join(args.out, "spectrum-report.json"), spectrum_report_to_dict(model.report))
    return 0


def cmd_inverse(args) -> int:
    """The inverse of a data file, or with --self-test of a potential's
    forward model: one route from the provider on, which for a file ends in
    reconstruction.json and for the self-test in a comparison with q."""
    _require(not (args.input and args.self_test), "inverse takes a data file or --self-test, not both")
    if args.self_test:
        _require(args.out is None, "inverse --self-test writes no file and takes no --out")
        potential = load_potential(args.self_test)
        model = AnalyticProvider(potential, args.order, args.nmax)
        provider = _spectral_provider(_spectral_data(model, args.order, args.nmax))
    else:
        _require(args.input, "inverse needs a data file or --self-test")
        _require(args.nmax >= 1, "require n_max >= 1")
        provider = sampled_provider(args.input)
    n_max = provider.meta.get("n_max", args.nmax)  # validated by _spectral_provider
    if POLE_CIRCLE_POINTS * n_max > provider.sample_count:  # before n_max sizes any array
        raise InsufficientSamples(f"{n_max} pole circles need {POLE_CIRCLE_POINTS * n_max} "
                                  f"samples, and the file holds {provider.sample_count}")
    result = reconstruct(provider, n_max)
    if not args.self_test:
        _write_json(_out_path(args.out or ".", "reconstruction.json"), reconstruction_to_dict(result))
        return 0
    errs = [abs(result.beta - potential.beta) / abs(potential.beta)]
    for n in range(1, n_max + 1):
        truth = potential.harmonic(n)
        errs.append(abs(result.q[n - 1] - truth) / max(1.0, abs(truth)))
    worst = float(np.max(errs))  # NaN propagates and fails the test
    print(f"self-test max relative error: {worst:.3e}")
    if not worst <= SELF_TEST_TOL:
        print(f"self-test error above {SELF_TEST_TOL:.0e}", file=sys.stderr)
        return 2
    return 0


def _parse_lambda(text: str) -> complex:
    try:
        lam = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise SchemaError(f"cannot parse --lambda value {text!r}") from exc
    _require(np.isfinite(lam), f"--lambda must be finite, not {text!r}")
    return lam


def _parse_range(text: str):
    parts = text.split(":")
    _require(len(parts) == 3, "--x-range must be lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SchemaError(f"cannot parse --x-range {text!r}") from exc
    _require(np.isfinite([lo, hi]).all(), f"--x-range bounds must be finite, not {text!r}")
    _require(count >= 1, "--x-range count must be >= 1")
    try:
        with np.errstate(all="ignore"):  # a grid past the float range is refused below
            x = np.linspace(lo, hi, count)
    except (ValueError, MemoryError) as exc:  # numpy refuses the size, or cannot allocate it
        raise SchemaError(f"--x-range count {count} cannot be allocated ({exc})") from exc
    _require(np.isfinite(x).all(), f"--x-range {text!r} spans more than the float range")
    return x


def cmd_eval(args) -> int:
    _require(args.order >= 1, "require order >= 1")
    lam, x_range = _parse_lambda(args.lam), _parse_range(args.x_range)
    potential = load_potential(args.input)
    f, df, res = eval_with_residual(potential, args.order, lam, x_range, args.solution)
    lines = ["x,re,im,d_re,d_im,ode_residual_abs"]
    # Python abs per row: the residual column must not depend on the grid
    for x, v, d, r in zip(x_range.tolist(), f.tolist(), df.tolist(), res.tolist()):
        lines.append(f"{x!r},{v.real!r},{v.imag!r},{d.real!r},{d.imag!r},{abs(r)!r}")
    _write_text(_out_path(args.out, "solution.csv"), "\n".join(lines) + "\n")
    return 0


# --- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is a schema error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


@functools.cache  # one per process: building costs some 20-35 parses
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-sl",
        description="forward and inverse spectral computations for the "
        "indefinite-density operator with exponential potential",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, input_help="input JSON file", input_nargs=None):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("input", nargs=input_nargs, help=input_help)
        p.add_argument("-A", "--order", type=int, default=30, help="series truncation order" + {
            "eval": "; the sum stops at the rounding floor, never past it",
            "inverse": "; read only by --self-test"}.get(name, ""))
        if name != "eval":  # eval samples one solution and has no harmonics to count
            p.add_argument("--nmax", type=int, default=6,
                           help="number of recovered harmonics / singular points")
        p.add_argument("--out", default=None if name == "inverse" else ".", help="output directory or file")
        return p

    command("forward", cmd_forward, "spectral data + spectrum report from a potential")
    command("export-spectral-data", cmd_forward, "spectral data only")
    command("spectrum", cmd_forward, "spectrum report only")
    p = command("inverse", cmd_inverse, "reconstruct (beta, q) from spectral data",
                "spectral-data JSON file", "?")
    p.add_argument("--self-test", help="potential file for an in-process forward+inverse round trip; "
                   "takes no data file and no --out")
    p = command("eval", cmd_eval, "sample one solution on an x grid as CSV")
    p.add_argument("--lambda", dest="lam", required=True, help="spectral parameter, e.g. 1+2i")
    p.add_argument("--x-range", required=True, help="lo:hi:count")
    p.add_argument(
        "--solution",
        required=True,
        choices=["f1+", "f1-", "f2+", "f2-"],
        help="which solution branch to sample",
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse reads a value such as '-6:-1:5' as a flag unless attached
        if argv[i - 1] in ("--x-range", "--lambda") and re.match(r"-[\d.ij]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except SpectralError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
