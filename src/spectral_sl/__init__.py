"""Forward and inverse spectral computations for the Sturm-Liouville
operator -y'' + q(x) y = lambda^2 rho(x) y with an analytic exponential
potential and an indefinite two-piece density."""

from .coeffs import (
    CoefficientTable,
    FourierPotential,
    TailReport,
    build_table,
    table_from_diagonal,
    tail_report,
)
from .errors import (
    InsufficientSamples,
    NearSpectrum,
    NoData,
    NonRealBeta,
    PoleProximity,
    SchemaError,
    SpectralError,
    ZeroWavenumber,
)
from .inverse import (
    AnalyticProvider,
    ReconstructionResult,
    SampledProvider,
    recover_beta,
    recover_diagonal,
    reconstruct,
    sampled_provider,
)
from .scattering import (
    ConnectionCoefficients,
    coefficient_evaluators,
    connection_coefficients,
    whole_line,
    wronskian,
)
from .solutions import (
    POLE_TOL,
    SolutionSample,
    eval_f1,
    eval_f2,
    eval_fn_limit,
    ode_residual,
)
from .spectrum import (
    EigenvalueHit,
    Singularity,
    SpectrumReport,
    resolvent_kernel,
    resolvent_residue,
    scan_spectrum,
    spectral_singularities,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticProvider",
    "CoefficientTable",
    "ConnectionCoefficients",
    "EigenvalueHit",
    "FourierPotential",
    "InsufficientSamples",
    "NearSpectrum",
    "NoData",
    "NonRealBeta",
    "POLE_TOL",
    "PoleProximity",
    "ReconstructionResult",
    "SampledProvider",
    "SchemaError",
    "Singularity",
    "SolutionSample",
    "SpectralError",
    "SpectrumReport",
    "TailReport",
    "ZeroWavenumber",
    "build_table",
    "coefficient_evaluators",
    "connection_coefficients",
    "eval_f1",
    "eval_f2",
    "eval_fn_limit",
    "ode_residual",
    "recover_beta",
    "recover_diagonal",
    "reconstruct",
    "resolvent_kernel",
    "resolvent_residue",
    "sampled_provider",
    "scan_spectrum",
    "spectral_singularities",
    "table_from_diagonal",
    "tail_report",
    "whole_line",
    "wronskian",
]
