"""Seeded inputs, CLI invocations and output checks of the three workloads.

A workload is built from a seed into a directory of input files and a list
of ops; one op is one call of the real command line.  The program sees only
the files.  Every op has a check that judges its output with `oracle` or
with values fixed in this file, never with the code being timed.

Seeded potentials are small jitters (2% in modulus, 0.02 rad in phase, 2%
in beta) of fixed base potentials.  The bases span 1-3 harmonics, moduli
2-6, beta 0.5-2 and 0-16 eigenvalues, none closer than 0.12 to an axis; the jitter keeps the eigenvalue
count, and with it the search cost, the same from seed to seed, so that a
run's timings describe the code rather than the draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

#: q = (4 + 4i,), beta = 1: six eigenvalues, this one in the first quadrant.
EIG_ANCHOR = {"name": "eig", "beta": 1.0, "q": [4 + 4j]}
EIG_LAMBDA_S0 = 0.7663156589549573 + 0.11076122565204634j
#: q = (1,), beta = 1: empty point spectrum, beta comes from the far field.
EMPTY_ANCHOR = {"name": "empty", "beta": 1.0, "q": [1 + 0j]}

#: Base potentials of the seeded part, with their eigenvalue counts at A=30.
BASES = (
    {"name": "h2-0", "beta": 1.13, "q": [5.5 - 1.84j, -0.98 + 2.38j]},     # 0
    {"name": "h1-6", "beta": 1.79, "q": [-1.01 - 3.29j]},                  # 6
    {"name": "h2-12", "beta": 0.85, "q": [2.49 + 5.23j, -1.62 + 2.23j]},   # 12
    {"name": "h3-16", "beta": 1.76,
     "q": [-2.82 - 0.23j, 3.49 + 4.01j, -0.97 - 2.41j]},                   # 16
)
JITTER = 0.02

N_MAX = 6
FORWARD_ORDER = 30
INVERSE_TOL = 1e-6
EIGENVALUE_TOL = 1e-9
#: Newton distance |c / c'| allowed at a reported eigenvalue.
ZERO_TOL = 1e-8
SAMPLE_TOL = 1e-9
SAMPLES_CHECKED = 64

EVAL_ORDER = 120
EVAL_POINTS = 2001
EVAL_RANGES = {"f1": (0.0, 6.0), "f2": (-6.0, -0.003)}
EVAL_BASES = ("h1-6", "h3-16")
WRONSKIAN_TOL = 1e-10
EVAL_VALUE_TOL = 1e-9
EVAL_HEADER = "x,re,im,d_re,d_im,ode_residual_abs"


@dataclass
class Op:
    argv: list
    outputs: list
    check: object
    label: str
    anchor: bool = False


@dataclass
class Workload:
    ops: list
    digests: dict = field(default_factory=dict)

    @property
    def warmup(self) -> Op:
        return self.ops[0]

    def check(self, op: Op, rc: int) -> list:
        """Problems with one op's result; an empty list means it passed.

        Besides the oracle check, every repeat of an op must write the
        same bytes as its first run.
        """
        if rc != 0:
            return [f"{op.label}: exit code {rc}"]
        problems = op.check()
        digest = hashlib.sha256()
        for path in op.outputs:
            digest.update(Path(path).read_bytes())
        first = self.digests.setdefault(op.label, digest.hexdigest())
        if first != digest.hexdigest():
            problems.append(f"{op.label}: output bytes differ from the first run")
        return problems


def out_bytes(op: Op) -> int:
    return sum(os.path.getsize(p) for p in op.outputs)


# --- inputs ------------------------------------------------------------------


def _jittered(rng, base: dict) -> dict:
    q = [c * (1.0 + JITTER * rng.uniform(-1, 1)) * np.exp(1j * JITTER * rng.uniform(-1, 1))
         for c in base["q"]]
    beta = base["beta"] * (1.0 + JITTER * rng.uniform(-1, 1))
    return {"name": base["name"], "beta": float(beta), "q": [complex(c) for c in q]}


def potentials(seed: int) -> list:
    """The two fixed anchors followed by one jittered copy of each base."""
    rng = np.random.default_rng(seed)
    return [EIG_ANCHOR, EMPTY_ANCHOR] + [_jittered(rng, b) for b in BASES]


def _write_potential(path: Path, pot: dict) -> None:
    doc = {"beta": pot["beta"], "q": [[c.real, c.imag] for c in pot["q"]]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def _truth(pot: dict, n: int) -> complex:
    return pot["q"][n - 1] if n <= len(pot["q"]) else 0.0


# --- forward -------------------------------------------------------------------


def _check_forward(pot: dict, outdir: Path) -> list:
    label = pot["name"]
    problems = []
    data = json.loads((outdir / "spectral-data.json").read_text(encoding="utf-8"))
    report = json.loads((outdir / "spectrum-report.json").read_text(encoding="utf-8"))
    v = oracle.table(pot["q"], FORWARD_ORDER)
    beta = pot["beta"]
    eigs = [(complex(e["re"], e["im"]), e["sector"]) for e in data["eigenvalues"]]
    per_sector = [sum(1 for _, s in eigs if s == k) for k in range(4)]
    if per_sector[0] != per_sector[2] or per_sector[1] != per_sector[3]:
        problems.append(f"{label}: eigenvalues are not symmetric under lam -> -lam: {per_sector}")
    for lam, sector in eigs:
        quadrant = int(np.floor(np.angle(lam) / (np.pi / 2))) % 4
        if quadrant != sector:
            problems.append(f"{label}: eigenvalue {lam} reported in sector {sector}")
        dist = oracle.newton_distance(v, beta, sector, lam)
        if not dist <= ZERO_TOL:
            problems.append(f"{label}: eigenvalue {lam} is {dist:.1e} from a zero")
    if pot is EIG_ANCHOR and not any(abs(lam - EIG_LAMBDA_S0) <= EIGENVALUE_TOL for lam, _ in eigs):
        problems.append(f"{label}: known eigenvalue {EIG_LAMBDA_S0} not reproduced")
    if pot is EMPTY_ANCHOR and eigs:
        problems.append(f"{label}: expected an empty point spectrum, got {len(eigs)}")
    if [(complex(e["re"], e["im"]), e["sector"]) for e in report["eigenvalues"]] != eigs:
        problems.append(f"{label}: spectrum report and spectral data disagree")
    if len(report["singularities"]) != 4 * N_MAX:
        problems.append(f"{label}: {len(report['singularities'])} singularities listed")
    if data["meta"].get("n_max") != N_MAX or data["meta"].get("A") != FORWARD_ORDER:
        problems.append(f"{label}: meta {data['meta']}")
    samples = data["samples"]
    picked = samples[:: max(1, len(samples) // SAMPLES_CHECKED)]
    lam = np.array([complex(s["re"], s["im"]) for s in picked])
    c11, c12 = oracle.c11_c12(v, beta, lam)
    got11 = np.array([complex(*s["c11"]) for s in picked])
    got12 = np.array([complex(*s["c12"]) for s in picked])
    # relative where |c| > 1, absolute next to the zeros at the eigenvalue clusters
    err = max(np.max(np.abs(got11 - c11) / np.maximum(np.abs(c11), 1.0)),
              np.max(np.abs(got12 - c12) / np.maximum(np.abs(c12), 1.0)))
    if not err <= SAMPLE_TOL:
        problems.append(f"{label}: sampled c11/c12 off by {err:.1e}")
    return problems


def _forward_op(work: Path, pot: dict) -> Op:
    src = work / f"potential-{pot['name']}.json"
    _write_potential(src, pot)
    outdir = work / f"forward-{pot['name']}"
    return Op(
        argv=["forward", str(src), "--out", str(outdir)],
        outputs=[outdir / "spectral-data.json", outdir / "spectrum-report.json"],
        check=lambda: _check_forward(pot, outdir),
        label=pot["name"],
        anchor=pot is EIG_ANCHOR,
    )


def forward(work: Path, seed: int, shared: Path) -> Workload:
    ops = [_forward_op(work, pot) for pot in potentials(seed)]
    return Workload(ops)


# --- inverse -------------------------------------------------------------------

#: Runs forward over every potential of a workload in a child process, so
#: the memory forward needs does not count toward the inverse process.
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spectral_sl.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[2])))
"""


def prepare_inverse(shared: Path, seed: int, src: Path) -> list:
    """Write the spectral-data files of the seed's potentials with forward.

    Runs once per benchmark process, before the set-up repeats, because it
    costs as much as a whole forward pass.  Returns problems, as a check does.
    """
    fwd = [_forward_op(shared, pot) for pot in potentials(seed)]
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src),
                           json.dumps([op.argv for op in fwd])], timeout=170)
    return [f"forward for the inverse inputs exited {done.returncode}"] if done.returncode else []


def _check_inverse(pot: dict, out: Path) -> list:
    label = pot["name"]
    doc = json.loads(out.read_text(encoding="utf-8"))
    problems = []
    err = abs(doc["beta"] - pot["beta"]) / pot["beta"]
    if not err <= INVERSE_TOL:
        problems.append(f"{label}: beta off by {err:.1e} relative")
    if len(doc["q"]) != N_MAX:
        return problems + [f"{label}: {len(doc['q'])} harmonics, expected {N_MAX}"]
    for n in range(1, N_MAX + 1):
        truth = _truth(pot, n)
        err = abs(complex(*doc["q"][n - 1]) - truth) / max(1.0, abs(truth))
        if not err <= INVERSE_TOL:
            problems.append(f"{label}: q_{n} off by {err:.1e} relative")
    return problems


def inverse(work: Path, seed: int, shared: Path) -> Workload:
    ops = []
    for pot in potentials(seed):
        data = shared / f"forward-{pot['name']}" / "spectral-data.json"
        out = work / f"reconstruction-{pot['name']}.json"
        ops.append(Op(
            argv=["inverse", str(data), "--out", str(out)],
            outputs=[out],
            check=lambda pot=pot, out=out: _check_inverse(pot, out),
            label=pot["name"],
        ))
    return Workload(ops)


# --- eval ----------------------------------------------------------------------


def _read_csv(path: Path) -> tuple:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    return lines[0], rows


def _check_eval_one(pot: dict, lam: complex, branch: str, path: Path) -> list:
    label = f"{pot['name']}:{branch}"
    header, rows = _read_csv(path)
    if header != EVAL_HEADER or rows.shape != (EVAL_POINTS, 6):
        return [f"{label}: header {header!r}, shape {rows.shape}"]
    lo, hi = EVAL_RANGES[branch[:2]]
    if not np.array_equal(rows[:, 0], np.linspace(lo, hi, EVAL_POINTS)):
        return [f"{label}: x column is not the requested grid"]
    if not np.all(np.isfinite(rows[:, 5])):
        return [f"{label}: non-finite ODE residual"]
    picked = rows[:: EVAL_POINTS // 8]
    v = oracle.table(pot["q"], EVAL_ORDER)
    value, deriv = oracle.solution(v, pot["beta"], branch, lam, picked[:, 0])
    err = max(np.max(np.abs(picked[:, 1] + 1j * picked[:, 2] - value) / np.abs(value)),
              np.max(np.abs(picked[:, 3] + 1j * picked[:, 4] - deriv) / np.abs(deriv)))
    if not err <= EVAL_VALUE_TOL:
        return [f"{label}: values off by {err:.1e} relative"]
    return []


def _check_wronskian(pot: dict, lam: complex, family: str, plus: Path, minus: Path) -> list:
    """W(f+, f-) = f+' f- - f+ f-' from the CSV columns: 2i lam for f1,
    2 lam beta for f2."""
    _, p = _read_csv(plus)
    _, m = _read_csv(minus)
    w = (p[:, 3] + 1j * p[:, 4]) * (m[:, 1] + 1j * m[:, 2]) - (p[:, 1] + 1j * p[:, 2]) * (
        m[:, 3] + 1j * m[:, 4])
    exact = 2j * lam if family == "f1" else 2.0 * lam * pot["beta"]
    err = float(np.max(np.abs(w - exact)) / abs(exact))
    if not err <= WRONSKIAN_TOL:
        return [f"{pot['name']}:{family}: Wronskian off by {err:.1e} relative"]
    return []


def _eval_op(work: Path, pot: dict, lam: complex, branch: str) -> Op:
    src = work / f"potential-{pot['name']}.json"
    out = work / f"eval-{pot['name']}-{branch}.csv"
    lo, hi = EVAL_RANGES[branch[:2]]
    if branch.endswith("+"):
        check = lambda: _check_eval_one(pot, lam, branch, out)
    else:
        plus = work / f"eval-{pot['name']}-{branch[:2]}+.csv"
        check = lambda: (_check_eval_one(pot, lam, branch, out)
                         + _check_wronskian(pot, lam, branch[:2], plus, out))
    return Op(
        # a negative range must be attached with '=', or argparse reads it as a flag
        argv=["eval", str(src), "-A", str(EVAL_ORDER), "--lambda", f"{lam.real!r}+{lam.imag!r}i",
              f"--x-range={lo!r}:{hi!r}:{EVAL_POINTS}", "--solution", branch, "--out", str(out)],
        outputs=[out],
        check=check,
        label=f"{pot['name']}:{branch}",
    )


def eval_(work: Path, seed: int, shared: Path) -> Workload:
    """f1+/- on [0, 6] and f2+/- on [-6, -0.003] at a seeded lambda.

    lambda is drawn from [0.3, 2]^2 in the first quadrant, at least 0.3 from
    both axes and so clear of both pole lattices.  Each minus-branch op also
    checks the Wronskian against the plus-branch file written just before it.
    """
    rng = np.random.default_rng([seed, 1])
    by_name = {p["name"]: p for p in potentials(seed)}
    ops = []
    for name in EVAL_BASES:
        pot = by_name[name]
        _write_potential(work / f"potential-{name}.json", pot)
        lam = complex(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        ops += [_eval_op(work, pot, lam, b) for b in ("f1+", "f1-", "f2+", "f2-")]
    return Workload(ops)


WORKLOADS = {"forward": forward, "inverse": inverse, "eval": eval_}
PREPARE = {"inverse": prepare_inverse}
