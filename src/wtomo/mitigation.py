"""Readout-error mitigation and spectral positivity correction."""

from __future__ import annotations

import json

import numpy as np

from .linalg import eig_hermitian, is_hermitian, kron


def check_calibration_matrix(f: np.ndarray) -> None:
    """A usable calibration matrix is column-stochastic and invertible."""
    if f.shape != (2, 2):
        raise ValueError(f"calibration matrix must be 2x2, got {f.shape}")
    if np.abs(f.sum(axis=0) - 1.0).max() > 1e-9 or f.min() < -1e-12 or f.max() > 1 + 1e-12:
        raise ValueError("calibration matrix is not column-stochastic")
    if abs(np.linalg.det(f)) <= 1e-6:
        raise ValueError("calibration matrix is numerically singular")


def mitigation_matrix(fs: list[np.ndarray]) -> np.ndarray:
    """(F_A ⊗ F_B ⊗ ...)^-1 as the Kronecker product of the checked inverses."""
    inv = np.eye(1)
    for f in fs:
        check_calibration_matrix(f)
        inv = kron(inv, np.linalg.inv(f))
    return inv


def mitigate_probs(p: np.ndarray, fs: list[np.ndarray]) -> np.ndarray:
    """Error-mitigated probabilities p' = (F_A ⊗ F_B ⊗ ...)^-1 p.

    Small negative entries are passed through unclipped; positivity is
    restored later at the density-matrix level.
    """
    if 2 ** len(fs) != len(p):
        raise ValueError("need one calibration matrix per measured qubit")
    return mitigation_matrix(fs) @ p


def spectral_correct(rho: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues to zero and renormalize the rest.

    Returns the physical (Hermitian, PSD, unit-trace) matrix rebuilt from the
    renormalized spectrum. Idempotent.
    """
    if not is_hermitian(rho, 1e-8):
        raise ValueError("matrix is not Hermitian within tolerance")
    es = eig_hermitian(rho)
    w = np.clip(es.eigenvalues, 0.0, None)
    total = w.sum()
    if total <= 0:
        raise ValueError("no positive eigenvalues; cannot correct to a state")
    w /= total
    return (es.eigenvectors * w) @ es.eigenvectors.conj().T


def save_calibration(fs: list[np.ndarray], labels: list[str], path) -> None:
    """Calibration file: JSON {qubit-label -> [[f00, f01], [f10, f11]]}."""
    with open(path, "w") as fh:
        json.dump(
            {label: f.tolist() for label, f in zip(labels, fs)},
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")


def load_calibration(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a calibration file holds a JSON object of matrices")
    return {label: np.array(mat, dtype=float) for label, mat in obj.items()}
