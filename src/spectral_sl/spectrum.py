"""Eigenvalue search, spectral singularities and resolvent kernels.

The spectral plane splits into the four open quadrants S_k = {k pi/2 <
arg lam < (k+1) pi/2}.  Eigenvalues are the zeros of one connection
coefficient per quadrant (c12(lam), c11(-lam), c12(-lam), c11(lam) for
k = 0, 1, 2, 3).  The operator depends on lam only through lam^2, so the
eigenvalues come in pairs lam, -lam: quadrant 2's function at -lam is
quadrant 0's at lam, and quadrant 1's at -lam is quadrant 3's at lam.  The
full scan therefore searches quadrants 0 and 3 only, by winding-number
counting over rectangles with adaptive subdivision and Newton polishing
started from the moment pencil of each box winding 1 to 4 times, and adds
the mirror of every hit.  The two axes carry the continuous spectrum, with
distinguished points at n/2 and i n/(2 beta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coeffs import CoefficientTable
from .errors import (
    BudgetExceeded,
    ContourThroughZero,
    NearSpectrum,
    SpectralError,
)
from .scattering import coefficient_evaluators
from .solutions import _continued, eval_f1, eval_f2

CONTINUOUS_SPECTRUM_AXES = "axes Re lambda = 0 and Im lambda = 0"

#: Default half-side of the per-quadrant search rectangle.  The connection
#: coefficients approach nonzero constants as |lambda| grows, so far-field
#: zeros cannot occur and a moderate box suffices.
DEFAULT_BOX_LIMIT = 10.0
DEFAULT_MARGIN = 0.1


@dataclass(frozen=True)
class Sector:
    """One open quadrant of the spectral plane."""

    k: int

    def __post_init__(self):
        if self.k not in (0, 1, 2, 3):
            raise ValueError("sector index must be 0, 1, 2 or 3")

    def contains(self, lam: complex) -> bool:
        lam = complex(lam)
        if lam == 0:
            return False
        ang = np.angle(lam) % (2.0 * np.pi)
        lo = self.k * np.pi / 2.0
        hi = (self.k + 1) * np.pi / 2.0
        return lo < ang < hi

    @staticmethod
    def of_lambda(lam: complex) -> "Sector":
        for k in range(4):
            s = Sector(k)
            if s.contains(lam):
                return s
        raise SpectralError(f"lambda {lam} lies on a sector boundary")


@dataclass(frozen=True)
class Singularity:
    """A distinguished point of the continuous spectrum."""

    kind: str  # "real" or "imaginary"
    n: int
    value: complex


@dataclass(frozen=True)
class EigenvalueHit:
    lam: complex
    sector: int
    multiplicity: int
    coefficient_value: complex


@dataclass
class SpectrumReport:
    eigenvalues: list = field(default_factory=list)
    singularities: list = field(default_factory=list)
    continuous_spectrum: str = CONTINUOUS_SPECTRUM_AXES


def spectral_singularities(beta: float, n_max: int) -> list:
    """Distinguished points n/2 and i n/(2 beta), |n| <= n_max, of the axes.

    At these points K_sym, the c-independent part of the resolvent's jump
    across the axis, has a simple pole with residue kernel
    `resolvent_residue`; the pole is present exactly when the diagonal
    table entry V[n, n] is nonzero.  `resolvent_kernel` itself is regular
    there (docs/residue.md).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = [n for n in range(-n_max, n_max + 1) if n != 0]
    out = [Singularity("real", n, complex(n / 2.0)) for n in ns]
    out += [Singularity("imaginary", n, 1j * n / (2.0 * beta)) for n in ns]
    return out


def _boundary_points(box, per_edge: int) -> np.ndarray:
    re_lo, re_hi, im_lo, im_hi = box
    t = np.arange(per_edge) / per_edge
    bottom = re_lo + (re_hi - re_lo) * t + 1j * im_lo
    right = re_hi + 1j * (im_lo + (im_hi - im_lo) * t)
    top = re_hi - (re_hi - re_lo) * t + 1j * im_hi
    left = re_lo + 1j * (im_hi - (im_hi - im_lo) * t)
    return np.concatenate([bottom, right, top, left])


def _winding(fn: Callable, box, per_edge: int, max_doublings: int = 3):
    """Winding number of fn along the box boundary, or None when the phase
    increments stay too coarse after refinement."""
    m = per_edge
    for _ in range(max_doublings + 1):
        pts = _boundary_points(box, m)
        vals = np.asarray(fn(pts), dtype=complex)
        if np.min(np.abs(vals)) < 1e-12:
            raise ContourThroughZero(f"boundary value vanished on {box}")
        dphi = np.angle(np.roll(vals, -1) / vals)
        total = dphi.sum() / (2.0 * np.pi)
        w = int(round(total))
        if np.max(np.abs(dphi)) < 2.0 and abs(total - w) < 0.25:
            return w
        m *= 2
    return None


def _newton_polish(fn: Callable, z0: complex, tol: float) -> tuple:
    """Newton iteration with a high-order central-difference derivative.

    Returns the last iterate and whether the step criterion was met; a
    non-finite value, derivative or step ends it unconverged.
    """
    z = complex(z0)
    with np.errstate(all="ignore"):  # a wild start may overflow: it then fails
        for _ in range(60):
            h = 1e-6 * max(1.0, abs(z))
            pts = np.array([z, z + 2 * h, z + h, z - h, z - 2 * h])
            f0, f2p, f1p, f1m, f2m = np.asarray(fn(pts), dtype=complex)
            if abs(f0) == 0.0:
                return z, True
            d = (-f2p + 8.0 * f1p - 8.0 * f1m + f2m) / (12.0 * h)
            step = -f0 / d
            if not np.isfinite(step):  # non-finite f0 or d, or d = 0
                break
            z += step
            if abs(step) <= tol * (1.0 + abs(z)):
                return z, True
    return z, False


def _pencil_zeros(fn: Callable, pts, vals, box, w: int, tol: float):
    """Newton-polished zeros of fn in box from the Hankel pencil of its
    moments s_p = (1/2 pi i) ∮ u^p f'/f dz, p < 2w (Kravanja & Van Barel
    2000), on u centred on the box and scaled by its half-side, by the
    midpoint rule on log(f_{j+1}/f_j).  None unless all w converge strictly
    inside the box and are pairwise distinct."""
    re_lo, re_hi, im_lo, im_hi = box
    c = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    r = 0.5 * max(re_hi - re_lo, im_hi - im_lo)
    u = (0.5 * (pts + np.roll(pts, -1)) - c) / r
    dlog = np.log(np.roll(vals, -1) / vals)
    s = np.array([np.sum(u**p * dlog) for p in range(2 * w)]) / (2j * np.pi)
    hankel = np.add.outer(np.arange(w), np.arange(w))
    try:
        starts = c + r * np.linalg.eigvals(np.linalg.solve(s[hankel], s[hankel + 1]))
    except np.linalg.LinAlgError:  # singular H0, or a non-finite pencil
        return None
    zeros = []
    for z0 in starts:
        z, converged = _newton_polish(fn, z0, tol)
        inside = re_lo < z.real < re_hi and im_lo < z.imag < im_hi
        if not (converged and inside) or any(abs(z - y) <= max(100.0 * tol, 1e-7) for y in zeros):
            return None
        zeros.append(z)
    return zeros


def find_zeros(
    fn: Callable,
    box,
    tol: float = 1e-9,
    per_edge: int = 512,
    max_depth: int = 12,
    seed: int = 0,
) -> list:
    """Zeros (with multiplicity) of an analytic function inside a rectangle.

    Recursive winding-number counting: boxes with zero winding are dropped,
    boxes small enough are handed to Newton polishing, everything else is
    quartered.  A box of winding 1 <= w <= 4, the root included, first tries
    `_pencil_zeros` on the samples of its winding count: w distinct zeros
    inside a box of winding w are all of them, and simple.  Otherwise it is
    quartered, so multiple zeros and windings > 4 reach the leaf size.
    ``fn`` must accept complex numpy arrays.
    """
    rng = np.random.default_rng(seed)
    last = []  # the boundary samples of the latest winding count

    def sampled(z):
        vals = np.asarray(fn(z), dtype=complex)
        last[:] = [z, vals]
        return vals

    def recurse(b, depth):
        if depth > max_depth:
            raise BudgetExceeded(f"subdivision exceeded depth {max_depth}")
        w = _winding(sampled, b, per_edge)
        if w is None:
            raise ContourThroughZero(f"phase too coarse on {b}")
        if w == 0:
            return []
        if w < 0:
            raise SpectralError(f"negative winding on {b}: fn is not analytic there")
        re_lo, re_hi, im_lo, im_hi = b
        size = max(re_hi - re_lo, im_hi - im_lo)
        if size <= 64.0 * max(tol, 1e-12) or size <= 1e-2:
            center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            return [(_newton_polish(fn, center, tol)[0], w)]
        if w <= 4 and (zeros := _pencil_zeros(fn, *last, b, w, tol)) is not None:
            return [(z, 1) for z in zeros]
        for attempt in range(3):
            # split lines are jittered so a zero sitting exactly on the
            # midline cannot poison all four children
            fr = 0.5 + (attempt > 0) * (rng.random() - 0.5) * 0.2
            fi = 0.5 + (attempt > 0) * (rng.random() - 0.5) * 0.2
            rm = re_lo + fr * (re_hi - re_lo)
            im = im_lo + fi * (im_hi - im_lo)
            quads = [
                (re_lo, rm, im_lo, im),
                (rm, re_hi, im_lo, im),
                (re_lo, rm, im, im_hi),
                (rm, re_hi, im, im_hi),
            ]
            try:
                out = []
                for qb in quads:
                    out.extend(recurse(qb, depth + 1))
                return out
            except ContourThroughZero:
                if attempt == 2:
                    raise

    try:
        raw = recurse(tuple(float(v) for v in box), 0)
    except ContourThroughZero:
        # one retry with a slightly inflated box
        re_lo, re_hi, im_lo, im_hi = box
        pad = 3e-3 * max(re_hi - re_lo, im_hi - im_lo) * (1.0 + rng.random())
        raw = recurse((re_lo - pad, re_hi + pad, im_lo - pad, im_hi + pad), 0)

    merged: list = []
    for z, m in sorted(raw, key=lambda t: (t[0].real, t[0].imag)):
        for i, (zi, mi) in enumerate(merged):
            if abs(z - zi) <= max(100.0 * tol, 1e-7):
                merged[i] = (zi, mi + m)
                break
        else:
            merged.append((z, m))
    return merged


def sector_coefficient_fn(table: CoefficientTable, beta: float, k: int) -> Callable:
    """The analytic function whose zeros in quadrant k are the eigenvalues."""
    c11, c12 = coefficient_evaluators(table, beta)
    return {
        0: lambda lam: c12(lam),
        1: lambda lam: c11(-np.asarray(lam, dtype=complex)),
        2: lambda lam: c12(-np.asarray(lam, dtype=complex)),
        3: lambda lam: c11(lam),
    }[k]


def default_sector_box(k: int):
    lo, hi = DEFAULT_MARGIN, DEFAULT_BOX_LIMIT
    return {
        0: (lo, hi, lo, hi),
        1: (-hi, -lo, lo, hi),
        2: (-hi, -lo, -hi, -lo),
        3: (lo, hi, -hi, -lo),
    }[k]


def find_eigenvalues(
    table: CoefficientTable,
    beta: float,
    sector: Sector,
    box=None,
    tol: float = 1e-9,
    seed: int = 0,
) -> list:
    """Eigenvalues inside one quadrant rectangle, with multiplicities."""
    if box is None:
        box = default_sector_box(sector.k)
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in box)
    corners = [complex(r, i) for r in (re_lo, re_hi) for i in (im_lo, im_hi)]
    if not all(sector.contains(c) for c in corners):
        raise ValueError(f"box {box} is not inside sector {sector.k}")
    if min(abs(re_lo), abs(re_hi)) < DEFAULT_MARGIN - 1e-12 or min(
        abs(im_lo), abs(im_hi)
    ) < DEFAULT_MARGIN - 1e-12:
        raise ValueError("box must stay at least 0.1 away from the axes")
    fn = sector_coefficient_fn(table, beta, sector.k)
    zeros = find_zeros(fn, box, tol=tol, seed=seed)
    return [
        EigenvalueHit(lam=z, sector=sector.k, multiplicity=m, coefficient_value=complex(fn(z)))
        for z, m in zeros
    ]


def scan_spectrum(
    table: CoefficientTable,
    beta: float,
    n_max: int = 6,
    tol: float = 1e-9,
    seed: int = 0,
) -> SpectrumReport:
    """Search half the spectral plane and list the singular-point candidates.

    Quadrants 0 and 3 are searched in their default boxes; each hit lam
    also yields -lam in quadrant 2 or 1 with the same multiplicity and
    coefficient value, since that quadrant's function at -lam is the
    searched one at lam.  The merged list is sorted by (Re, Im).
    """
    eigenvalues = []
    for k in (0, 3):
        for hit in find_eigenvalues(table, beta, Sector(k), tol=tol, seed=seed):
            mirror = EigenvalueHit(-hit.lam, (k + 2) % 4, hit.multiplicity, hit.coefficient_value)
            eigenvalues += [hit, mirror]
    eigenvalues.sort(key=lambda h: (h.lam.real, h.lam.imag))
    return SpectrumReport(
        eigenvalues=eigenvalues,
        singularities=spectral_singularities(beta, n_max),
    )


# --- resolvent kernels -----------------------------------------------------


def _global_f1(table, beta, lam, x) -> complex:
    """Plus oscillatory solution continued to the whole line (value only)."""
    if x >= 0:
        return eval_f1(table, lam, x, "+").value
    return _continued(table, beta, lam, x).value


def _global_f2(table, beta, lam, x) -> complex:
    """Plus exponential solution continued to the whole line (value only)."""
    if x < 0:
        return eval_f2(table, beta, lam, x, "+").value
    return _continued(table, beta, lam, x).value


def resolvent_kernel(
    table: CoefficientTable,
    beta: float,
    lam: complex,
    x: float,
    t: float,
    near_tol: float = 1e-8,
) -> complex:
    """Green kernel of the operator at a regular point of a quadrant.

    The kernel pairs the solution decaying at +infinity with the one
    decaying at -infinity for the quadrant of lam, divided by their
    (constant) Wronskian; the normalisation gives the derivative jump -1
    across x = t.  Symmetric in (x, t) by construction.
    """
    lam = complex(lam)
    k = Sector.of_lambda(lam).k
    coef = complex(sector_coefficient_fn(table, beta, k)(lam))
    if abs(coef) < near_tol:
        raise NearSpectrum(f"lambda {lam} is numerically at the spectrum of sector {k}")
    # u = f1+ at lu decays at +infinity and v = f2+ at lv at -infinity;
    # W(v, u) is 2i lu times the sector's coefficient
    lu = lam if k in (0, 1) else -lam
    lv = lam if k in (0, 3) else -lam
    hi, lo = (x, t) if x >= t else (t, x)
    return _global_f1(table, beta, lu, hi) * _global_f2(table, beta, lv, lo) / (2j * lu * coef)


def resolvent_residue(
    table: CoefficientTable,
    beta: float,
    n: int,
    axis: str,
    x: float,
    t: float,
) -> complex:
    """Closed-form residue kernel of K_sym at a distinguished point.

    K_sym is the c-independent part of the jump of `resolvent_kernel`
    across an axis.  On the real axis, for x, t >= 0,

        K_sym(x, t) = [f1+(x) f1-(t) + f1-(x) f1+(t)] / (2i lam),

    whose f1- factors have a simple pole at n/2; on the imaginary axis, for
    x, t < 0, it is the same with f2+/- and the Wronskian 2 lam beta, with
    the pole at i n/(2 beta).  Returns lim (n - 2 lam) K_sym at n/2, which
    is (2/(i n)) V[n,n] f1+(x, n/2) f1+(t, n/2), or lim (n + 2i beta lam)
    K_sym at i n/(2 beta), the same with f2+ there.  Vanishes identically
    when the diagonal entry does.  `resolvent_kernel` itself is regular at
    these points: its pole parts cancel (docs/residue.md).
    """
    if axis not in ("real", "imaginary"):
        raise ValueError("axis must be 'real' or 'imaginary'")
    if not 1 <= n <= table.order:
        raise ValueError(f"require 1 <= n <= {table.order}")
    if axis == "real":
        u, lam0 = _global_f1, n / 2.0
    else:
        u, lam0 = _global_f2, 1j * n / (2.0 * beta)
    return (2.0 / (1j * n)) * table.entry(n, n) * u(table, beta, lam0, x) * u(table, beta, lam0, t)
