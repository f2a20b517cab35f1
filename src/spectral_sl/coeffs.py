"""Triangular coefficient tables for exponential-series solutions.

For the operator -y'' + q(x) y = lambda^2 rho(x) y with a band-limited
potential q(x) = sum_{n>=1} q_n e^{inx}, the solution series are built from a
triangular array V[n, a] (1 <= n <= a <= A) satisfying

    a (a - n) V[n, a] + sum_{s=n}^{a-1} q_{a-s} V[n, s] = 0    (n < a)
    a * sum_{n=1}^{a} V[n, a] + q_a = 0

Column a of the first relation needs only q_1 ... q_{a-1}, so the second
fixes either V[a, a] from q_a or q_a from V[a, a]: the harmonics and the
diagonal each determine the whole table.  All of that lives here; nothing
in this module depends on the spectral parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SchemaError, SpectralError


@dataclass(frozen=True)
class FourierPotential:
    """Density parameter beta plus the stored harmonics q_1 ... q_N."""

    beta: float
    q: tuple = ()

    def __post_init__(self):
        if isinstance(self.beta, complex):
            raise ValueError("beta must be a real scalar")
        beta = float(self.beta)
        if not math.isfinite(beta) or beta <= 0.0:
            raise ValueError(f"beta must be finite and positive, got {beta!r}")
        object.__setattr__(self, "beta", beta)
        coeffs = tuple(complex(c) for c in self.q)
        if any(not (math.isfinite(c.real) and math.isfinite(c.imag)) for c in coeffs):
            raise ValueError("harmonics must be finite")
        object.__setattr__(self, "q", coeffs)

    def harmonic(self, n: int) -> complex:
        """q_n, with harmonics beyond the stored band exactly zero."""
        if n < 1:
            raise ValueError("harmonic index starts at 1")
        return self.q[n - 1] if n <= len(self.q) else 0.0 + 0.0j

    def at(self, x):
        """Evaluate q(x) = sum_n q_n e^{inx}, elementwise over an array x."""
        x = np.asarray(x)
        return sum(c * np.exp(1j * n * x) for n, c in enumerate(self.q, start=1))


@dataclass(frozen=True)
class TailReport:
    """Weighted norm of a table split into stored part and projected tail."""

    stored: float
    tail_estimate: float
    converged: bool


class CoefficientTable:
    """Immutable triangular array V[n, a], 1 <= n <= a <= order, with the
    harmonics q_1 ... q_order it satisfies.

    Entries are stored in a dense complex matrix; position [n-1, a-1] holds
    V[n, a] and everything below the diagonal is zero.  The connection
    coefficients read the live rows, a branch's series only the harmonics.
    """

    def __init__(self, entries: np.ndarray, harmonics: Sequence[complex]):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if entries.shape[0] < 1:
            raise ValueError("order must be at least 1")
        entries = np.triu(entries)  # a copy: the caller's array is never written
        entries.setflags(write=False)
        self._entries = entries
        #: 0-based indices of the rows that are not identically zero.  Only
        #: these carry a pole of a coefficient; for a table that satisfies the
        #: recurrences they are exactly the rows with V[n, n] != 0.
        self.live_rows = np.flatnonzero(np.any(entries != 0.0, axis=1))
        self.harmonics = tuple(complex(c) for c in harmonics)  #: q_1 ... q_order

    @property
    def order(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def entry(self, n: int, a: int) -> complex:
        if not (1 <= n <= a <= self.order):
            raise IndexError(f"require 1 <= n <= a <= {self.order}")
        return complex(self._entries[n - 1, a - 1])

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self._entries).copy()


def _fill(order: int, band: Sequence[complex] = (), diag=None) -> CoefficientTable:
    """Run the two recurrences column by column over q = [0, q_1, ...],
    with q_1 ... q_order read from ``band`` and zero past it.

    At column a the off-diagonal relation gives rows n < a from q_1 ...
    q_{a-1}; the divisor a (a - n) is at least 1, and entries left of the
    diagonal are zero, so the sum over s = n ... a-1 is one product with
    the known block of columns < a.  The column sum then gives V[a, a] from
    q_a, or, with ``diag`` given, q_a from V[a, a], written into q.  The
    table is allocated before anything runs over the order, and a size
    numpy refuses or cannot allocate is a SchemaError; an order below 1 is
    refused by `CoefficientTable`.
    """
    size = max(order, 0) + 1
    try:
        v = np.zeros((size, size), dtype=complex)
    except (ValueError, MemoryError) as exc:  # numpy refuses the size, or cannot allocate it
        raise SchemaError(f"a table of order {order} cannot be allocated ({exc})") from exc
    q = np.zeros(size, dtype=complex)
    band = band[: size - 1]
    q[1 : len(band) + 1] = band
    for a in range(1, size):
        n = np.arange(1, a)
        v[1:a, a] = -(v[1:a, 1:a] @ q[a - 1 : 0 : -1]) / (a * (a - n))
        if diag is None:
            v[a, a] = -q[a] / a - v[1:a, a].sum()
        else:
            v[a, a] = diag[a - 1]
            q[a] = -a * v[1 : a + 1, a].sum()
    return CoefficientTable(v[1:, 1:], q[1:])


def build_table(potential: FourierPotential, order: int = 30) -> CoefficientTable:
    """Fill the table from the potential harmonics q_1 ... q_order.  An entry
    past the float range is a SpectralError, with no numpy warning."""
    with np.errstate(all="ignore"):  # an overflow is refused, not warned about
        table = _fill(order, potential.q)
    if not np.isfinite(table.entries).all():
        raise SpectralError(f"the table of order {order} overflows double precision")
    return table


def table_from_diagonal(diag: Sequence[complex]) -> CoefficientTable:
    """Fill the table, and with it q_1 ... q_order, from its diagonal V[n, n].
    A harmonic that is not finite is a SpectralError, with no numpy warning."""
    with np.errstate(all="ignore"):  # an overflow is refused, not warned about
        table = _fill(len(diag), diag=diag)
    bad = np.flatnonzero(~np.isfinite(table.harmonics))
    if bad.size:
        raise SpectralError(f"the rebuilt harmonic q_{bad[0] + 1} is not finite")
    return table


def harmonics_from_table(table: CoefficientTable) -> list:
    """q_1 ... q_order: as given to `build_table`, or as `table_from_diagonal`
    solved the column sums for them."""
    return list(table.harmonics)


def recurrence_residuals(table: CoefficientTable, harmonics: Sequence[complex]) -> tuple[float, float]:
    """Max absolute residuals of the two defining recurrences.

    ``harmonics`` supplies q_1 ... (missing entries are treated as zero);
    returns (off-diagonal residual, column-sum residual).
    """
    order = table.order
    q = np.zeros(order + 1, dtype=complex)
    given = [complex(c) for c in harmonics][:order]
    q[1 : len(given) + 1] = given
    ent = table.entries
    r_offdiag = 0.0
    r_colsum = 0.0
    for a in range(1, order + 1):
        n = np.arange(1, a)
        acc = a * (a - n) * ent[: a - 1, a - 1] + ent[: a - 1, : a - 1] @ q[a - 1 : 0 : -1]
        r_offdiag = max(r_offdiag, float(np.max(np.abs(acc), initial=0.0)))
        r_colsum = max(r_colsum, abs(a * ent[:a, a - 1].sum() + q[a]))
    return r_offdiag, r_colsum


def tail_report(table: CoefficientTable) -> TailReport:
    """Weighted norm plus a geometric projection of the dropped columns.

    The projection takes the decay ratio of the final columns.  When the
    column contributions fail to decrease over the last five columns, the
    report says so: ``converged`` is False and ``tail_estimate`` inf.  It
    neither warns nor raises, since the recursion itself is always well
    defined.
    """
    idx = np.arange(1, table.order + 1, dtype=float)
    contrib = (np.abs(table.entries) / idx[:, None]).sum(axis=0) * idx  # a sum_n |V[n, a]| / n
    stored = float(contrib.sum())
    window = contrib[-5:]
    if not np.all((window[1:] < window[:-1]) | (window[1:] == 0.0)):
        return TailReport(stored=stored, tail_estimate=math.inf, converged=False)
    last = float(contrib[-1])
    if contrib.size < 2 or last == 0.0:
        # nothing left to project, or a single column to project from
        return TailReport(stored=stored, tail_estimate=last, converged=True)
    # the window check makes the last column smaller than the one before
    ratio = last / float(contrib[-2])
    return TailReport(stored=stored, tail_estimate=last * ratio / (1.0 - ratio), converged=True)
