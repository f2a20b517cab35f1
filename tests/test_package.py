"""The package's public names."""

import spectral_sl

EXPORTS = [
    "AnalyticProvider", "CoefficientTable", "ConnectionCoefficients", "EigenvalueHit",
    "FourierPotential", "InsufficientSamples", "NearSpectrum", "NoData", "NonRealBeta",
    "POLE_TOL", "PoleProximity", "ReconstructionResult", "SampledProvider", "SchemaError",
    "Singularity", "SolutionSample", "SpectralError", "SpectrumReport", "TailReport",
    "ZeroWavenumber", "build_table", "coefficient_evaluators", "connection_coefficients",
    "eval_f1", "eval_f2", "eval_fn_limit", "ode_residual", "recover_beta", "recover_diagonal",
    "reconstruct", "resolvent_kernel", "resolvent_residue", "sampled_provider", "scan_spectrum",
    "spectral_singularities", "table_from_diagonal", "tail_report", "whole_line", "wronskian",
]

#: Names that live on in their modules but that no CLI path or acceptance
#: criterion reads, so the package does not export them.
MODULE_ONLY = {
    "spectrum": ("find_zeros",),
    "errors": ("BudgetExceeded", "ContourThroughZero", "ExtrapolationDivergence"),
    "scattering": ("pole_strength",),
    "coeffs": ("recurrence_residuals", "harmonics_from_table"),
}


def test_exports():
    assert spectral_sl.__all__ == EXPORTS
    assert all(hasattr(spectral_sl, name) for name in EXPORTS)


def test_module_only_names_are_not_exported():
    for module, names in MODULE_ONLY.items():
        home = getattr(spectral_sl, module)
        for name in names:
            assert hasattr(home, name)
            assert not hasattr(spectral_sl, name)
