"""Readout-error mitigation and spectral positivity correction."""

from __future__ import annotations

import numpy as np

from .linalg import eig_hermitian, first_true, flag


def check_calibration_matrix(f: np.ndarray) -> None:
    """A usable calibration matrix is column-stochastic and invertible.

    f may be a stack (..., 2, 2); the first unusable matrix is reported.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (2, 2):
        raise ValueError(f"calibration matrix must be 2x2, got {f.shape}")
    _flag_calibrations(f[..., None, :, :], None)


def _flag_calibrations(fs: np.ndarray, errors: dict | None) -> np.ndarray:
    """Flag (``linalg.flag``) and return the mask (...) of each member of a stack
    (..., n, 2, 2) of per-qubit calibration matrices with an unusable one."""
    not_stochastic = (
        (np.abs(fs.sum(axis=-2) - 1.0).max(axis=-1) > 1e-9)
        | (fs.min(axis=(-2, -1)) < -1e-12)
        | (fs.max(axis=(-2, -1)) > 1 + 1e-12)
    )
    bad = not_stochastic | (np.abs(np.linalg.det(fs)) <= 1e-6)
    flag(errors, bad.any(axis=-1), lambda k: ValueError("calibration matrix is " + (
        "not column-stochastic" if not_stochastic[k][first_true(bad[k])]  # its first bad one
        else "numerically singular")))
    return bad.any(axis=-1)


def mitigation_matrix(fs) -> np.ndarray:
    """(F_A ⊗ F_B ⊗ ...)^-1 as the Kronecker product of the checked inverses.

    fs holds one 2x2 matrix per qubit: a list, or an array (..., n, 2, 2)
    that gives a stack of maps (..., 2**n, 2**n).
    """
    if not isinstance(fs, np.ndarray):  # checked one by one: a wrong-sized one is named
        for f in fs:
            check_calibration_matrix(f)
        fs = np.array(fs, dtype=float)
    check_calibration_matrix(fs)
    return _mitigation_matrix(fs, None)


def _mitigation_matrix(fs: np.ndarray, errors: dict | None) -> np.ndarray:
    """mitigation_matrix of a stack (..., n, 2, 2) that flags each member with an
    unusable calibration matrix in errors; such a member gets the identity map."""
    bad = _flag_calibrations(fs, errors)
    inv = np.linalg.inv(np.where(bad[..., None, None, None], np.eye(2), fs))
    out = inv[..., 0, :, :]
    for k in range(1, fs.shape[-3]):
        d = 2 * out.shape[-1]
        out = np.einsum("...ij,...kl->...ikjl", out, inv[..., k, :, :])
        out = out.reshape(*fs.shape[:-3], d, d)
    return out


def spectral_correct(rho: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues to zero and renormalize the rest.

    Returns the physical (Hermitian, PSD, unit-trace) matrix rebuilt from the
    renormalized spectrum, for a matrix or each matrix of a stack. Idempotent.
    """
    es = eig_hermitian(rho)  # rejects a matrix that is not Hermitian
    w = np.clip(es.eigenvalues, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("no positive eigenvalues; cannot correct to a state")
    w /= total
    v = es.eigenvectors
    vw = v * w[..., None, :]
    return vw @ np.conj(v, out=v).swapaxes(-1, -2)  # conjugated in place: one stack less
