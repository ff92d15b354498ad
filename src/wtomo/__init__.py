"""Simulated three-qubit W-state tomography.

Library for the full pipeline: W-state preparation, noisy measurement of the
17-setting (three-qubit) and 7-setting (two-qubit) schemes, readout-error
mitigation, spectral positivity correction, whole-from-parts reconstruction
of the global pure state from two bipartite marginals, and fidelity
reporting against published reference matrices.
"""

from .circuits import (
    MeasurementSetting,
    prepare_w,
    three_qubit_settings,
    two_qubit_settings,
    w_vector,
)
from .linalg import EigenSystem, eig_hermitian, outer, partial_trace
from .metrics import FidelityReport, fidelity_pure, trace_distance
from .mitigation import mitigation_matrix, spectral_correct
from .noise import (
    QubitReadout,
    ReadoutModel,
    apply_readout_noise,
    exact_probs,
    simulate_calibration,
)
from .pipeline import ExperimentConfig, run_pipeline, run_trial
from .tomography import (
    TomographyScheme,
    lsq_reconstruct,
    reconstruct_2q,
    reconstruct_3q,
    three_qubit_scheme,
    two_qubit_scheme,
)
from .wholeparts import (
    DegenerateSpectrumError,
    MarginalPair,
    ReconstructionError,
    ReconstructionResult,
    diosi_reconstruct,
    purify_structures,
    single_party_marginals,
    solve_phases,
)

__version__ = "0.1.0"

__all__ = [
    "EigenSystem",
    "ExperimentConfig",
    "DegenerateSpectrumError",
    "FidelityReport",
    "MarginalPair",
    "MeasurementSetting",
    "QubitReadout",
    "ReadoutModel",
    "ReconstructionError",
    "ReconstructionResult",
    "TomographyScheme",
    "apply_readout_noise",
    "diosi_reconstruct",
    "eig_hermitian",
    "exact_probs",
    "fidelity_pure",
    "lsq_reconstruct",
    "mitigation_matrix",
    "outer",
    "partial_trace",
    "prepare_w",
    "purify_structures",
    "reconstruct_2q",
    "reconstruct_3q",
    "run_pipeline",
    "run_trial",
    "simulate_calibration",
    "single_party_marginals",
    "solve_phases",
    "spectral_correct",
    "three_qubit_scheme",
    "three_qubit_settings",
    "trace_distance",
    "two_qubit_scheme",
    "two_qubit_settings",
    "w_vector",
]
