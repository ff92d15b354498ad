"""Readout-error mitigation and spectral positivity correction."""

from __future__ import annotations

import numpy as np

from .linalg import eig_hermitian, first_true, flag, kron_qubits


def mitigation_matrix(fs) -> np.ndarray:
    """(F_A ⊗ F_B ⊗ ...)^-1 as the Kronecker product of the inverses of the
    per-qubit calibration matrices fs, an array (..., n, 2, 2) that gives a
    map (..., 2**n, 2**n). Raises the first ValueError ``_calibration_inverses`` records."""
    fs = np.asarray(fs, dtype=float)
    if fs.ndim < 3 or fs.shape[-2:] != (2, 2):
        raise ValueError(f"expected calibration matrices (..., n, 2, 2), got shape {fs.shape}")
    errors: dict = {}
    inverses = _calibration_inverses(fs, errors)
    if errors:
        raise next(iter(errors.values()))
    return kron_qubits(inverses)


def _calibration_inverses(fs: np.ndarray, errors: dict) -> np.ndarray:
    """The inverses (..., n, 2, 2) of the per-qubit calibration matrices fs.
    Records (``linalg.flag``) each member of the stack with an unusable matrix,
    one that is not column-stochastic (a non-finite entry counts as such) or
    is numerically singular; such a member's matrices all invert to the identity."""
    in_range = ((fs >= -1e-12) & (fs <= 1 + 1e-12)).all(axis=(-2, -1))  # False for NaN
    fs_in_range = np.where(in_range[..., None, None], fs, np.eye(2))  # sum and det stay finite
    not_stochastic = ~in_range | (np.abs(fs_in_range.sum(axis=-2) - 1.0).max(axis=-1) > 1e-9)
    bad = not_stochastic | (np.abs(np.linalg.det(fs_in_range)) <= 1e-6)
    failing = bad.any(axis=-1)
    flag(errors, failing, lambda k: ValueError("calibration matrix is " + (
        "not column-stochastic" if not_stochastic[k][first_true(bad[k])]  # its first bad one
        else "numerically singular")))
    return np.linalg.inv(np.where(failing[..., None, None, None], np.eye(2), fs))


def mitigate(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Tables p (..., L, d) mitigated by the maps m (..., d, d), one per stack member."""
    return (m[..., None, :, :] @ p[..., None])[..., 0]


def spectral_correct(rho: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues to zero and renormalize the rest.

    Returns the physical (Hermitian, PSD, unit-trace) matrix rebuilt from the
    renormalized spectrum, for a matrix or each matrix of a stack. Idempotent.
    """
    w, v = eig_hermitian(rho)  # rejects a matrix that is not Hermitian
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("no positive eigenvalues; cannot correct to a state")
    w /= total
    vw = v * w[..., None, :]
    return vw @ np.conj(v, out=v).swapaxes(-1, -2)  # conjugated in place: one stack less
