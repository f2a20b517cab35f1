"""Benchmark of the spectral-sl command line, end to end and per layer.

    python3 perfbench/run.py --workload forward --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  One process, one thread: the CLI is
driven in-process through `spectral_sl.cli.main(argv)` on the inputs the
seed generates (see workloads.py), and every op's output is checked.

Set-up (import, input generation and one untimed warm-up op) is repeated
SETUP_REPEATS times and its median reported as setup_s.  Inputs that cost
a whole pass to make (the inverse workload's spectral-data files) are made
once, before the repeats, and their time is added.  The timed phase then
runs whole passes over the workload's ops for about --seconds; each pass
starts only while the previous pass's duration still fits.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, which come from spans
recorded around calls into each module (spans.py) during traced passes
only.  Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it describes the
environment and the sample counts.
"""

import os
import sys

# Pinned before numpy loads: one search thread, one BLAS thread.
os.environ["SPECTRAL_SL_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Every set-up repeat compiles the package from source, as the first does,
# and nothing is written next to the sources; child processes inherit this.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import LAYERS, Tracer
from workloads import PREPARE, WORKLOADS, out_bytes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_cli():
    """Import spectral_sl.cli afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "spectral_sl" or m.startswith("spectral_sl.")]:
        del sys.modules[name]
    cli = importlib.import_module("spectral_sl.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spectral_sl was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, wl, op):
    """(seconds, output bytes, problems) for one CLI call and its check."""
    t0 = perf_counter()
    try:
        rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    dt = perf_counter() - t0
    try:
        problems = wl.check(op, rc)
        size = 0 if problems else out_bytes(op)
    except Exception as exc:
        problems, size = [f"{op.label}: check raised {exc!r}"], 0
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    return dt, size, problems


def setup(name, seed, work):
    """Prepare shared inputs once, then import, generate and warm up
    SETUP_REPEATS times; set-up time is the preparation plus the median
    repeat.  Also returns one pass/fail flag per set-up step."""
    shared = work / "shared"
    shared.mkdir(parents=True)
    steps = []
    t0 = perf_counter()
    if name in PREPARE:
        problems = PREPARE[name](shared, seed, SRC)
        for msg in problems:
            print(f"FAILED {msg}", file=sys.stderr)
        steps.append(not problems)
    prepare_s = perf_counter() - t0
    times = []
    for r in range(SETUP_REPEATS):
        rep = work / f"setup-{r}"
        t0 = perf_counter()
        cli = import_cli()
        rep.mkdir()
        wl = WORKLOADS[name](rep, seed, shared)
        warm = run_op(cli, wl, wl.warmup)
        times.append(perf_counter() - t0)
        steps.append(not warm[2])
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(rep)
    return cli, wl, prepare_s + statistics.median(times), steps


def run_passes(cli, wl, seconds, tracer=None):
    """Whole passes over the ops until the next one would overrun.

    With a tracer, passes alternate untraced and traced, starting untraced.
    Returns a list of passes: (traced, duration, records, anchor counts),
    where a record is (op, seconds, bytes, problems).
    """
    passes, start = [], perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        records, anchor, t0 = [], None, perf_counter()
        for op in wl.ops:
            before = tracer.counts.copy() if traced and op.anchor else None
            records.append((op, *run_op(cli, wl, op)))
            if before is not None:
                anchor = tracer.counts - before
        duration = perf_counter() - t0
        if traced:
            tracer.uninstall()
        passes.append((traced, duration, records, anchor))
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() - start + duration > seconds:
            return passes


def e2e_metrics(setup_s, records):
    dts = [dt for _, dt, _, _ in records]
    ok = [r for r in records if not r[3]]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / sum(dts), "1/s"),
        "op_p50_s": (statistics.median(dts), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "out_bytes_per_op": (statistics.fmean(size for _, _, size, _ in ok) if ok else 0.0, "bytes"),
    }


def layer_metrics(tracer, passes):
    traced = [p for p in passes if p[0]]
    untraced = [p for p in passes if not p[0]]
    ops = sum(len(p[2]) for p in traced)
    op_time = sum(dt for p in traced for _, dt, _, _ in p[2])
    calls, incl, counts = tracer.calls, tracer.incl, tracer.counts
    anchor = next((p[3] for p in traced if p[3] is not None), None) or {}

    def per_op(x):
        return x / ops

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    evals = counts["spectrum.coef_evals"]
    eigs = counts["spectrum.eigenvalues"]
    solution_pts = counts["solutions.eval_f1.outer"] + counts["solutions.eval_f2.outer"]
    out = {
        "spectrum.scan_s": (per_op(incl["spectrum.scan_spectrum"]), "s"),
        "spectrum.coef_evals": (per_op(evals), "count"),
        "spectrum.coef_calls": (per_op(counts["spectrum.coef_calls"]), "count"),
        "spectrum.winding_calls": (per_op(calls["spectrum._winding"]), "count"),
        "spectrum.newton_calls": (per_op(calls["spectrum._newton_polish"]), "count"),
        "spectrum.eigenvalues": (per_op(eigs), "count"),
        "spectrum.evals_per_eigenvalue": (ratio(evals, eigs), "count"),
        "spectrum.anchor_coef_evals": (anchor.get("spectrum.coef_evals", 0), "count"),
        "spectrum.anchor_coef_calls": (anchor.get("spectrum.coef_calls", 0), "count"),
        "scattering.c11c12_ms_per_kpt": (
            ratio(incl["scattering.c11"] + incl["scattering.c12"],
                  counts["scattering.points"], 1e6), "ms/kpt"),
        "scattering.pole_strength_ms": (per_op(incl["scattering.pole_strength"]) * 1e3, "ms"),
        "cli.sample_points_s": (per_op(incl["cli.sample_points"]), "s"),
        "cli.samples_written": (per_op(counts["cli.samples_written"]), "count"),
        "cli.write_s": (per_op(incl["cli._write_json"]), "s"),
        "cli.load_s": (per_op(incl["cli.load_spectral_data"]), "s"),
        "cli.json_loads_per_op": (per_op(calls["cli._load_json"]), "count"),
        "inverse.provider_load_s": (per_op(incl["inverse.sampled_provider"]), "s"),
        "inverse.reconstruct_s": (per_op(incl["inverse.reconstruct"]), "s"),
        "inverse.queries": (per_op(calls["inverse._interpolate"]), "count"),
        "inverse.query_us": (
            ratio(incl["inverse._interpolate"], calls["inverse._interpolate"], 1e6), "us"),
        "coeffs.build_table_s": (per_op(incl["coeffs.build_table"]), "s"),
        "coeffs.table_from_diagonal_s": (per_op(incl["coeffs.table_from_diagonal"]), "s"),
        "coeffs.tail_report_calls": (per_op(calls["coeffs.tail_report"]), "count"),
        "solutions.eval_us_per_pt": (
            ratio(incl["solutions.eval_f1"] + incl["solutions.eval_f2"], solution_pts, 1e6),
            "us/pt"),
        "solutions.ode_residual_us_per_pt": (
            ratio(incl["solutions.ode_residual"], calls["solutions.ode_residual"], 1e6), "us/pt"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_op(tracer.layer_self[layer]), "s")
    mean_traced = statistics.fmean(p[1] for p in traced)
    mean_untraced = statistics.fmean(p[1] for p in untraced)
    out["trace.overhead_frac"] = (mean_traced / mean_untraced - 1.0, "frac")
    out["trace.coverage_frac"] = (tracer.covered_time() / op_time, "frac")
    out["src.lines"] = (sum(len(f.read_text(encoding="utf-8").splitlines())
                            for f in SRC.rglob("*.py")), "lines")
    return out


def percentile_summary(dts):
    """Median, plus p90 once at least ten samples lie beyond it."""
    out = {"samples": len(dts), "p50_s": statistics.median(dts)}
    if len(dts) >= 100:
        out["p90_s"] = float(np.quantile(dts, 0.9))
    return out


def main():
    args = parse_args()
    if not (SRC / "spectral_sl" / "__init__.py").is_file():
        print(f"no spectral_sl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, wl, setup_s, steps = setup(args.workload, args.seed, work)
        tracer = Tracer(sys.modules["spectral_sl"]) if args.trace else None
        passes = run_passes(cli, wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = [r for p in passes for r in p[2]]
    if tracer is None:
        metrics = e2e_metrics(setup_s, records)
    else:
        metrics = layer_metrics(tracer, passes)
        summary = {"workload": args.workload, "seed": args.seed, **tracer.summary()}
        (ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(summary, indent=1), encoding="utf-8")
    failed = steps.count(False) + sum(1 for r in records if r[3])
    attempted = len(steps) + len(records)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "fail_frac": failed / attempted,
        "op_latency": percentile_summary([r[1] for r in records]),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("SPECTRAL_SL_THREADS", "OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
