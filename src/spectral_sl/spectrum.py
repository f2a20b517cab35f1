"""Eigenvalue search, spectral singularities and resolvent kernels.

The spectral plane splits into the four open quadrants S_k = {k pi/2 <
arg lam < (k+1) pi/2} (`sector_of`).  Eigenvalues are the zeros of one
connection coefficient per quadrant (c12(lam), c11(-lam), c12(-lam),
c11(lam) for k = 0, 1, 2, 3).  The operator depends on lam only through
lam^2, so they come in pairs lam, -lam, and only quadrants 0 and 3 are
solved (`LISTED`): quadrant 2's function at -lam is quadrant 0's at lam.

At a fixed table order c11 and c12 are exactly rational in lam,
d + sum_j r_j/(lam - p_j) with 2m simple poles (`scattering.rational_form`),
so each has exactly 2m zeros: the eigenvalues of one deflated secular
matrix (`secular_zeros`).  The scan lists those inside each listing box,
polished by Newton on the form (`rational_zeros`), with the mirror of every
hit; each hit's coefficient_value is the same form's value.  The two axes
carry the continuous spectrum, with distinguished points at n/2 and
i n/(2 beta).  `find_zeros`, the winding-number box search, is kept for its
tests and the benchmark's tracer.  docs/spectrum.md has the derivation.
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
from . import scattering
from .scattering import whole_line

CONTINUOUS_SPECTRUM_AXES = "axes Re lambda = 0 and Im lambda = 0"

#: Outer side of the per-quadrant listing box [DEFAULT_MARGIN,
#: DEFAULT_BOX_LIMIT]^2.  The box does not bound a search: every zero of the
#: rational form is found, and the box only decides which are listed.  Zeros
#: closer than DEFAULT_MARGIN to an axis, or beyond DEFAULT_BOX_LIMIT, are
#: left out of the report.
DEFAULT_BOX_LIMIT = 10.0
DEFAULT_MARGIN = 0.1
#: An eigenvalue's last Newton step is at most NEWTON_TOL (1 + |lambda|), and
#: zeros within max(100 NEWTON_TOL, 1e-7) of each other are merged.
NEWTON_TOL = 1e-9
#: `resolvent_kernel` refuses a lambda whose sector coefficient is below this.
NEAR_TOL = 1e-8
#: The listing rule, (quadrant, coefficient, listing box) per solved
#: quadrant: the zeros of c12 in [DEFAULT_MARGIN, DEFAULT_BOX_LIMIT]^2 and
#: of c11 in its quadrant-3 mirror.  Quadrants 2 and 1 hold their mirrors.
LISTED = (
    (0, "c12", (DEFAULT_MARGIN, DEFAULT_BOX_LIMIT, DEFAULT_MARGIN, DEFAULT_BOX_LIMIT)),
    (3, "c11", (DEFAULT_MARGIN, DEFAULT_BOX_LIMIT, -DEFAULT_BOX_LIMIT, -DEFAULT_MARGIN)),
)


def sector_of(lam: complex) -> int:
    """The open quadrant k of lam, k pi/2 < arg lam < (k+1) pi/2.  A lam on
    either axis, at 0 or with a non-finite part lies in none: SpectralError."""
    lam = complex(lam)
    if not (np.isfinite(lam) and lam.real and lam.imag):
        raise SpectralError(f"lambda {lam} lies in no open quadrant")
    if lam.imag > 0:
        return 0 if lam.real > 0 else 1
    return 3 if lam.real > 0 else 2


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


def _winding(fn: Callable, box, per_edge: int, max_doublings: int = 5):
    """(w, pts, vals): the winding number of fn on the box boundary and its
    ring, doubled (evaluating only the new midpoints) until each phase step
    is below 2 and the total within 0.25 of an integer.  A heuristic, not a
    proof: two zeros in one segment (0.077 on the root box's first ring)
    turn the phase there by about 2 pi, which aliases to a step near 0."""
    pts = _boundary_points(box, per_edge)
    vals = np.asarray(fn(pts), dtype=complex)
    for doubling in range(max_doublings + 1):
        if doubling:  # the doubled ring's even points are the old ring, bit for bit
            pts = _boundary_points(box, per_edge << doubling)
            vals = np.column_stack([vals, fn(pts[1::2])]).ravel()
        if np.min(np.abs(vals)) < 1e-12:
            raise ContourThroughZero(f"boundary value vanished on {box}")
        dphi = np.angle(np.roll(vals, -1) / vals)
        total = dphi.sum() / (2.0 * np.pi)
        w = int(round(total))
        if np.max(np.abs(dphi)) < 2.0 and abs(total - w) < 0.25:
            return w, pts, vals
    raise ContourThroughZero(f"phase too coarse on {box}")


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


#: Split fractions (real, imaginary) of a quartered box, tried in turn when
#: a child's contour passes through a zero; dyadic, so a retried child's
#: edges still lie on its parent's winding ring.
SPLITS = ((0.5, 0.5), (7 / 16, 9 / 16), (9 / 16, 7 / 16))


def find_zeros(
    fn: Callable,
    box,
    tol: float = 1e-9,
    per_edge: int = 128,
    max_depth: int = 12,
) -> list:
    """Zeros (with multiplicity) of an analytic function inside a rectangle.

    Recursive winding-number counting: boxes with zero winding are dropped,
    boxes small enough are handed to Newton polishing, everything else is
    quartered.  A box of winding 1 <= w <= 4, the root included, first tries
    `_pencil_zeros` on the samples of its winding count: w distinct zeros
    inside a box of winding w are all of them, and simple.  Otherwise it is
    quartered, so multiple zeros and windings > 4 reach the leaf size.  A
    contour through a zero retries the root on a slightly padded box, whose
    zeros more than max(100 tol, 1e-7) outside the given box are dropped.
    ``fn`` must accept complex numpy arrays.
    """

    def recurse(b, depth):
        if depth > max_depth:
            raise BudgetExceeded(f"subdivision exceeded depth {max_depth}")
        w, pts, vals = _winding(fn, b, per_edge)
        if w == 0:
            return []
        if w < 0:
            raise SpectralError(f"negative winding on {b}: fn is not analytic there")
        re_lo, re_hi, im_lo, im_hi = b
        size = max(re_hi - re_lo, im_hi - im_lo)
        if size <= 64.0 * max(tol, 1e-12) or size <= 1e-2:
            center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            return [(_newton_polish(fn, center, tol)[0], w)]
        if w <= 4 and (zeros := _pencil_zeros(fn, pts, vals, b, w, tol)) is not None:
            return [(z, 1) for z in zeros]
        for attempt, (fr, fi) in enumerate(SPLITS):
            # each fraction is used by one split only, so one zero lies on
            # the lines of at most two of the three splits
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
                if attempt == len(SPLITS) - 1:
                    raise

    try:
        raw = recurse(tuple(float(v) for v in box), 0)
    except ContourThroughZero:
        # one retry with a slightly inflated box, whose sides stay off the axes
        re_lo, re_hi, im_lo, im_hi = box
        pad = 4.5e-3 * max(re_hi - re_lo, im_hi - im_lo)
        lo = lambda v: max(v - pad, 0.25 * v) if v > 0 else v - pad
        hi = lambda v: min(v + pad, 0.25 * v) if v < 0 else v + pad
        raw = recurse((lo(re_lo), hi(re_hi), lo(im_lo), hi(im_hi)), 0)
        raw = [(z, m) for z, m in raw if _in_box(z, box, max(100.0 * tol, 1e-7))]

    return _merge(raw, tol)


def _merge(raw, tol: float) -> list:
    """(z, multiplicity) pairs sorted by (Re, Im), each pair within
    max(100 tol, 1e-7) of an earlier one folded into it."""
    merged: list = []
    for z, m in sorted(raw, key=lambda t: (t[0].real, t[0].imag)):
        for i, (zi, mi) in enumerate(merged):
            if abs(z - zi) <= max(100.0 * tol, 1e-7):
                merged[i] = (zi, mi + m)
                break
        else:
            merged.append((z, m))
    return merged


# --- the zeros of the rational form ---------------------------------------

#: A pole whose |r_j / d| is below DEFLATION times its distance to the
#: nearest other pole is deflated (Cuppen 1981): its zero is taken to first
#: order, and the pole stays out of the eigenproblem.
DEFLATION = 1e-8
#: A zero is kept when |c| <= RESIDUAL_TOL (|d| + sum_j |r_j / (lam - p_j)|).
RESIDUAL_TOL = 1e-12
#: Zeros within this distance of the listing box are Newton-polished.
POLISH_PAD = 0.05


def _in_box(z: np.ndarray, box, pad: float = 0.0) -> np.ndarray:
    """Which z lie strictly inside the box widened by pad on every side."""
    re_lo, re_hi, im_lo, im_hi = box
    return ((re_lo - pad < z.real) & (z.real < re_hi + pad)
            & (im_lo - pad < z.imag) & (z.imag < im_hi + pad))


def secular_zeros(d: complex, p: np.ndarray, r: np.ndarray) -> tuple:
    """(eigenvalues, first_order): all len(p) zeros of d + sum_j r_j/(lam - p_j).

    They are the eigenvalues of diag(p) - (r/d) 1^T, the secular equation
    (Golub 1973).  A pole whose |r_j/d| is below `DEFLATION` times its gap
    to the nearest pole is deflated: its zero p_j - r_j/(d + sum_{i != j}
    r_i/(p_j - p_i)) is taken to first order, and the eigenvalues are those
    of the matrix on the other poles, which sets the cost.  A deflated zero
    lies within about 1e-8 of its pole, on an axis.
    """
    diff = p[:, None] - p
    np.fill_diagonal(diff, np.inf)
    gap = np.min(np.abs(diff), axis=1, initial=np.inf)
    u = r / d
    small = np.abs(u) < DEFLATION * gap
    first_order = p[small] - r[small] / (d + (r / diff[small]).sum(axis=1))
    keep = ~small
    return np.linalg.eigvals(np.diag(p[keep]) - u[keep, None]), first_order


def rational_zeros(form: scattering.RationalForm, box) -> list:
    """Zeros (with multiplicity) of the form strictly inside box, by (Re, Im).

    The `secular_zeros` within `POLISH_PAD` of the box take Newton steps with
    the analytic derivative until every step is below `NEWTON_TOL` (1 +
    |lam|).  A zero is kept when it is finite and its residual is at most
    `RESIDUAL_TOL` times the scale of the terms; zeros within max(100
    NEWTON_TOL, 1e-7) of each other are merged and their multiplicities summed.
    """
    z = np.concatenate(secular_zeros(*form))
    z = z[_in_box(z, box, POLISH_PAD)]
    if not z.size:
        return []
    with np.errstate(all="ignore"):  # a wild iterate overflows: the filter drops it
        for _ in range(60):
            c, dc, _scale = form.terms(z)
            step = np.where(c == 0, 0.0, c / dc)
            z = z - step
            if not np.any(np.abs(step) > NEWTON_TOL * (1.0 + np.abs(z))):
                break
        c, _dc, scale = form.terms(z)
        keep = np.isfinite(z) & (np.abs(c) <= RESIDUAL_TOL * scale) & _in_box(z, box)
    return _merge([(complex(v), 1) for v in z[keep]], NEWTON_TOL)


def scan_spectrum(table: CoefficientTable, beta: float, n_max: int = 6) -> SpectrumReport:
    """List the eigenvalues in the listing boxes and the singular points.

    For each (k, name, box) of `LISTED`, the zeros of the coefficient's
    rational form strictly inside the box are listed in quadrant k, with
    multiplicities and the form's value there; each hit lam also yields -lam
    in quadrant k + 2 (mod 4) with the same multiplicity and coefficient
    value, since that quadrant's function at -lam is the listed one at lam.
    The box only selects which zeros are listed; `NEWTON_TOL` bounds the
    last Newton step and sets the merge radius.  The merged list is sorted
    by (Re, Im).
    """
    eigenvalues = []
    for k, name, box in LISTED:
        form = scattering.rational_form(table, beta, name)
        zeros = rational_zeros(form, box)
        for (z, m), c in zip(zeros, form([z for z, _m in zeros]).tolist()):
            eigenvalues += [EigenvalueHit(z, k, m, c), EigenvalueHit(-z, (k + 2) % 4, m, c)]
    eigenvalues.sort(key=lambda h: (h.lam.real, h.lam.imag))
    return SpectrumReport(
        eigenvalues=eigenvalues,
        singularities=spectral_singularities(beta, n_max),
    )


# --- resolvent kernels -----------------------------------------------------


def resolvent_kernel(table: CoefficientTable, beta: float, lam: complex, x: float,
                     t: float) -> complex:
    """Green kernel of the operator at a regular point of a quadrant.

    The kernel pairs the solution decaying at +infinity with the one
    decaying at -infinity for the quadrant of lam, divided by their
    (constant) Wronskian; the normalisation gives the derivative jump -1
    across x = t.  Symmetric in (x, t) by construction.  Raises
    NearSpectrum where |coefficient| < `NEAR_TOL`.
    """
    lam = complex(lam)
    k = sector_of(lam)
    # u = f1+ at lu decays at +infinity and v = f2+ at lv at -infinity;
    # W(v, u) is 2i lu times the coefficient LISTED for lv's quadrant, 0 or 3
    lu = lam if k in (0, 1) else -lam
    lv = lam if k in (0, 3) else -lam
    name = {quadrant: name for quadrant, name, _box in LISTED}[sector_of(lv)]
    coef = scattering.rational_form(table, beta, name)(lv)
    if abs(coef) < NEAR_TOL:
        raise NearSpectrum(f"lambda {lam} is numerically at the spectrum of sector {k}")
    hi, lo = (x, t) if x >= t else (t, x)
    u, v = whole_line(table, beta, "f1", lu, hi), whole_line(table, beta, "f2", lv, lo)
    return u.value * v.value / (2j * lu * coef)


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
    family, lam0 = ("f1", n / 2.0) if axis == "real" else ("f2", 1j * n / (2.0 * beta))
    u = [whole_line(table, beta, family, lam0, s).value for s in (x, t)]
    return (2.0 / (1j * n)) * table.entry(n, n) * u[0] * u[1]
