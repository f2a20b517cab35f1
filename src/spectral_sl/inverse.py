"""Reconstruction of (beta, q) from spectral data.

The data consists of the eigenvalues plus the two coefficient functions
c11 and c12, evaluable off the singular points (a provider).  Recovery
proceeds in four steps:

  1. pole strengths of c11/c12 at the half integers give the diagonal
     table entries,
  2. the diagonal determines the whole coefficient table,
  3. the column sums of the table give the potential harmonics,
  4. beta comes from i c11(lam_n) c11(-lam_n) at an eigenvalue, or, when
     the point spectrum is empty, from the large-lambda limit of c12.

A provider is the forward model (`AnalyticProvider`) or a data file's samples
(`SampledProvider`, which `cli` alone reads and checks); the extraction code
only ever calls their evaluators, each time on an array of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coeffs import FourierPotential, build_table, table_from_diagonal
from .errors import InsufficientSamples, NoData, NonRealBeta, SchemaError
from .scattering import coefficient_evaluators, pole_circle, pole_strengths, richardson_limit
from .spectrum import scan_spectrum

#: Far-field evaluation ring used by the asymptotic beta recovery.
FALLBACK_RADII = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)
FALLBACK_DIRECTION = complex(np.exp(0.25j * np.pi))
#: The far-field points r * FALLBACK_DIRECTION, in the order of FALLBACK_RADII.
FALLBACK_POINTS = np.array([r * FALLBACK_DIRECTION for r in FALLBACK_RADII])
#: The largest |Im beta| a consistent recovery may leave.
IMAG_TOL = 1e-6


@dataclass
class ReconstructionResult:
    beta: float
    q: list
    diagnostics: dict = field(default_factory=dict)


class AnalyticProvider:
    """The forward model of a potential, built at once: its table, the
    `scan_spectrum` report with singular points up to n_max, the eigenvalue
    (lam, sector, multiplicity) triples and the c11, c12 rational forms.
    Raises SchemaError unless order >= n_max >= 1, and a SpectralError, with
    no numpy warning, where the poles or residues overflow."""

    def __init__(self, potential: FourierPotential, order: int = 30, n_max: int = 6):
        if not order >= n_max >= 1:
            raise SchemaError("require order >= n_max >= 1")
        with np.errstate(all="ignore"):  # an overflow is refused, not warned about
            self.table = build_table(potential, order)
            self.report = scan_spectrum(self.table, potential.beta, n_max)
            self.eval_c11, self.eval_c12 = coefficient_evaluators(self.table, potential.beta)
        self.eigenvalues = [(h.lam, h.sector, h.multiplicity) for h in self.report.eigenvalues]


class SampledProvider:
    """Spectral data read from point samples.

    A query is answered only by the sample stored at that exact point (the
    first of two at one point wins), whatever else its batch holds; a query
    with none raises InsufficientSamples.  A spectral-data export holds
    the points of `sample_points`, which are those the inverse reads.
    """

    def __init__(self, points: Sequence[complex], c11: Sequence[complex],
                 c12: Sequence[complex], eigenvalues: Sequence[tuple] = (),
                 meta: dict | None = None):
        points = np.asarray(points, dtype=complex)
        self._c11 = np.asarray(c11, dtype=complex)
        self._c12 = np.asarray(c12, dtype=complex)
        if not (points.shape == self._c11.shape == self._c12.shape):
            raise ValueError("points, c11 and c12 must have matching shapes")
        # built back to front, so the first index of a repeated point wins
        self._index = dict(zip(points.tolist()[::-1], range(len(points) - 1, -1, -1)))
        self.eigenvalues = list(eigenvalues)
        #: the advisory "meta" object of the file the samples came from
        self.meta = dict(meta or {})
        #: the number of samples, repeated points included
        self.sample_count = len(points)

    def _interpolate(self, values: np.ndarray, lam):
        """values at lam, a scalar or an array, each looked up by its point."""
        queries = np.asarray(lam, dtype=complex).reshape(-1).tolist()
        try:
            hits = np.fromiter(map(self._index.__getitem__, queries), np.intp, len(queries))
        except KeyError as missing:  # the first query without a sample
            raise InsufficientSamples(f"no sample at {missing.args[0]}") from None
        out = values[hits]
        return out.reshape(np.shape(lam)) if np.ndim(lam) else complex(out[0])

    def eval_c11(self, lam):
        return self._interpolate(self._c11, lam)

    def eval_c12(self, lam):
        return self._interpolate(self._c12, lam)


def sampled_provider(path) -> SampledProvider:
    """The provider of a spectral-data JSON file, which `cli` reads and checks."""
    from .cli import load_spectral_data

    return load_spectral_data(path)


def recover_diagonal(provider, n_max: int) -> tuple[list, list]:
    """Diagonal entries V[n, n] for n = 1 ... n_max from pole strengths,
    and for each a flag that is False where its estimate was rejected.

    All n_max circles `scattering.pole_circle(n)`, which a spectral-data
    file samples exactly, are read in one c12 and one c11 call; a file
    without one of their points raises InsufficientSamples.  A harmonic
    whose circle estimate is rejected is reported as zero and flagged; the
    other harmonics keep theirs.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values, reasons = pole_strengths(provider.eval_c11, provider.eval_c12, np.arange(1, n_max + 1))
    flags = [reason is None for reason in reasons]
    return [v if ok else 0.0 + 0.0j for v, ok in zip(values.tolist(), flags)], flags


def _beta_points(eigenvalues) -> tuple[np.ndarray, bool]:
    """The points beta is read from, and whether they are the eigenvalue
    path's: every sector 0 lam, then every -lam, where c11 is read; with no
    sector 0 eigenvalue, the far-field FALLBACK_POINTS, where c12 is read."""
    lams = [lam for lam, sector, _mult in eigenvalues if sector == 0]
    if lams:
        return np.array(lams + [-lam for lam in lams], dtype=complex), True
    return FALLBACK_POINTS, False


def sample_points(eigenvalues, n_max: int) -> np.ndarray:
    """Every point `reconstruct` reads for this eigenvalue list, each once:
    the pole circles `pole_circle(n)` for n = 1 ... n_max, then the beta
    points of `_beta_points`, so 32 n_max + 2 (sector 0 eigenvalues) points,
    or 32 n_max + 6 when there is none."""
    circles = pole_circle(np.arange(1, n_max + 1)).reshape(-1)
    return np.concatenate([circles, _beta_points(eigenvalues)[0]])


def recover_beta(provider) -> float:
    """Density parameter from the spectral data.

    Uses i c11(lam_n) c11(-lam_n) averaged over the first-quadrant
    eigenvalues when any exist; otherwise extrapolates the large-lambda
    limit of c12 along the first-quadrant diagonal.  Either path reads its
    points (`_beta_points`) in one call.  An estimate that is not finite, or
    has a non-positive real part or an imaginary part of at least
    `IMAG_TOL`, means the data is inconsistent and raises NonRealBeta.
    """
    points, on_eigenvalues = _beta_points(provider.eigenvalues)
    if on_eigenvalues:
        c11 = provider.eval_c11(points).tolist()
        half = len(c11) // 2
        with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
            est = complex(np.mean([1j * a * b for a, b in zip(c11[:half], c11[half:])]))
    else:
        try:
            c12 = provider.eval_c12(points).tolist()
        except InsufficientSamples as exc:
            raise NoData(
                "no eigenvalues and no far-field samples for the asymptotic path"
            ) from exc
        # c12 -> -(1 + i beta)/2 with a power series in 1/|lambda|, ordered
        # by decreasing step h = 1/r; radii double, so the ratio is 2
        est = richardson_limit([1j * (2.0 * c + 1.0) for c in c12], 2.0)
    if not (np.isfinite(est) and est.real > 0.0):
        raise NonRealBeta(f"recovered beta {est} is not finite with a positive real part")
    if abs(est.imag) >= IMAG_TOL:
        raise NonRealBeta(f"recovered beta {est} has imaginary part >= {IMAG_TOL}")
    return float(est.real)


def reconstruct(provider, n_max: int) -> ReconstructionResult:
    """Full recovery (beta, q_1 ... q_n_max) with per-step diagnostics.

    The rebuilt table is of size n_max, which is all the first n_max
    harmonics require.  Each step refuses with a SpectralError and no numpy
    warning: `recover_beta` a beta it cannot read as real and positive,
    then `table_from_diagonal` a harmonic that is not finite.
    """
    diag, flags = recover_diagonal(provider, n_max)
    beta = recover_beta(provider)
    q = list(table_from_diagonal(diag).harmonics)
    diagnostics = {"stable_harmonics": flags, "eigenvalue_count": len(provider.eigenvalues)}
    return ReconstructionResult(beta=beta, q=q, diagnostics=diagnostics)
