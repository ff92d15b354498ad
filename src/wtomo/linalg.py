"""Dense complex linear algebra for small multi-qubit operators.

Everything here works on plain numpy arrays. Vectors are 1-d complex arrays,
matrices are square 2-d complex arrays in row-major computational-basis order.
Qubit 0 (subsystem A) is the most significant bit of the basis index
throughout the package.

Matrix functions also accept stacks of shape (..., d, d) and then act on each
matrix; the result for a matrix is bitwise the same whatever stack it is in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-8


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a†)/2."""
    return (a + dagger(a)) / 2


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Whether a (every matrix of a stack) is Hermitian within tol."""
    return np.abs(a - dagger(a)).max() <= tol


def first_true(mask: np.ndarray) -> tuple:
    """Index of the first True entry of a boolean array (() for a 0-d array)."""
    return np.unravel_index(np.argmax(mask), np.shape(mask))


def vector_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, bitwise equal to np.linalg.norm of each vector."""
    v = np.asarray(v, dtype=complex)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def outer(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector v v† of a normalized vector (or of each vector of a stack)."""
    norm = vector_norm(v)
    if (norm == 0).any():
        raise ValueError("zero vector has no projector")
    off = np.abs(norm - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"vector not normalized: |v| = {norm[first_true(off)]}")
    return v[..., :, None] * v.conj()[..., None, :]


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors[:, i] is the
    normalized eigenvector for eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues[..., None, :]) @ dagger(self.eigenvectors)


def eig_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenSystem:
    """Eigendecomposition of a (nearly) Hermitian matrix, descending order.

    The input is symmetrized as (h + h†)/2 before decomposition; inputs
    further than `tol` from Hermitian are rejected. For a stack (..., d, d)
    eigenvalues is (..., d) and eigenvectors (..., d, d).
    """
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitian_part(h))
    order = np.argsort(w, axis=-1)[..., ::-1]
    return EigenSystem(
        eigenvalues=np.take_along_axis(w, order, -1),
        eigenvectors=np.take_along_axis(v, order[..., None, :], -1),
    )


def nqubits_of(rho: np.ndarray) -> int:
    """Qubit count of a vector, a matrix or a stack of matrices (last axis)."""
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim or (rho.ndim >= 2 and rho.shape[-2] != dim):
        raise ValueError(f"not a qubit-register operator: shape {rho.shape}")
    return n


def partial_trace(rho: np.ndarray, keep: list[int] | tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix on the kept qubits (order preserved).

    Qubit 0 is the most significant bit of the basis index.
    """
    n = nqubits_of(rho)
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"qubit index out of range for {n} qubits: {keep}")
    lead = rho.shape[:-2]
    t = rho.reshape(*lead, *[2] * (2 * n))
    for q in sorted((q for q in range(n) if q not in keep), reverse=True):
        half = (t.ndim - len(lead)) // 2
        t = np.trace(t, axis1=len(lead) + q, axis2=len(lead) + q + half)
    d = 2 ** len(keep)
    return t.reshape(*lead, d, d)

