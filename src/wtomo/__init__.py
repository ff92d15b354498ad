"""Simulated three-qubit W-state tomography.

Library for the full pipeline: W-state preparation, noisy measurement of the
17-setting (three-qubit) and 7-setting (two-qubit) schemes, readout-error
mitigation, spectral positivity correction, whole-from-parts reconstruction
of the global pure state from two bipartite marginals, and fidelity
reporting against published reference matrices.
"""

from .circuits import MeasurementSetting, prepare_w, w_vector
from .linalg import eig_hermitian, outer, partial_trace
from .metrics import fidelity_pure
from .mitigation import mitigation_matrix, spectral_correct
from .noise import (
    QubitReadout,
    ReadoutModel,
    apply_readout_noise,
    exact_probs,
)
from .pipeline import ExperimentConfig, run_pipeline
from .tomography import TomographyScheme, reconstruct, tomography_scheme
from .wholeparts import (
    DegenerateSpectrumError,
    MarginalPair,
    ReconstructionError,
    ReconstructionResult,
    diosi_reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "DegenerateSpectrumError",
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
    "mitigation_matrix",
    "outer",
    "partial_trace",
    "prepare_w",
    "reconstruct",
    "run_pipeline",
    "spectral_correct",
    "tomography_scheme",
    "w_vector",
]
