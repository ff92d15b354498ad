"""Dense complex linear algebra for small multi-qubit operators.

Everything here works on plain numpy arrays. Vectors are 1-d complex arrays,
matrices are square 2-d complex arrays in row-major computational-basis order.
Qubit 0 (subsystem A) is the most significant bit of the basis index
throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-8


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a†)/2."""
    return (a + a.conj().T) / 2


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return np.abs(a - a.conj().T).max() <= tol


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor most significant."""
    return np.kron(a, b)


def outer(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector v v† of a normalized vector."""
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector has no projector")
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector not normalized: |v| = {norm}")
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors[:, i] is the
    normalized eigenvector for eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def eig_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenSystem:
    """Eigendecomposition of a (nearly) Hermitian matrix, descending order.

    The input is symmetrized as (h + h†)/2 before decomposition; inputs
    further than `tol` from Hermitian are rejected.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitian_part(h))
    order = np.argsort(w)[::-1]
    return EigenSystem(eigenvalues=w[order], eigenvectors=v[:, order])


def nqubits_of(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim or (rho.ndim == 2 and rho.shape[1] != dim):
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
    t = rho.reshape([2] * (2 * n))
    for q in sorted((q for q in range(n) if q not in keep), reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    d = 2 ** len(keep)
    return t.reshape(d, d)

