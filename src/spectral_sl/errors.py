"""Exception types shared across the package.

Everything numerical raises a subclass of SpectralError so the CLI can map
the whole family to a single exit code.
"""


class SpectralError(Exception):
    """Base class for numerical / spectral failures."""


class PoleProximity(SpectralError):
    """The spectral parameter is too close to a pole lattice of a series
    representation; the caller should switch to a limit evaluation."""


class ZeroWavenumber(SpectralError):
    """Connection coefficients are undefined at lambda = 0."""


class ExtrapolationDivergence(SpectralError):
    """Successive pole-strength estimates did not stabilise."""


class ContourThroughZero(SpectralError):
    """A search rectangle boundary passed (numerically) through a zero."""


class BudgetExceeded(SpectralError):
    """Adaptive subdivision exceeded its depth budget."""


class NearSpectrum(SpectralError):
    """Resolvent evaluation requested too close to the spectrum."""


class NonRealBeta(SpectralError):
    """Recovered density parameter has a non-negligible imaginary part or a
    non-positive real part, i.e. the spectral data is inconsistent."""


class NoData(SpectralError):
    """Neither recovery path for the density parameter is available."""


class InsufficientSamples(SpectralError):
    """A sampled data set holds no sample at the requested point."""


class SchemaError(Exception):
    """A structured input file does not match its documented schema."""
