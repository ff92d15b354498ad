"""Dense complex linear algebra for small multi-qubit operators.

Everything here works on plain numpy arrays. Vectors are 1-d complex arrays,
matrices are square 2-d complex arrays in row-major computational-basis order.
Qubit 0 (subsystem A) is the most significant bit of the basis index
throughout the package.

Matrix functions also accept stacks of shape (..., d, d) and then act on each
matrix; the result for a matrix is bitwise the same whatever stack it is in.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-8


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a†)/2."""
    return (a + dagger(a)) / 2


def is_hermitian(a: np.ndarray) -> bool:
    """Whether a (every matrix of a stack) is Hermitian within HERMITICITY_TOL."""
    return np.abs(a - dagger(a)).max() <= HERMITICITY_TOL


def first_true(mask: np.ndarray) -> tuple:
    """Index of the first True entry of a boolean array (() for a 0-d array)."""
    return np.unravel_index(np.argmax(mask), np.shape(mask))


def flag(errors: dict, mask: np.ndarray, error) -> None:
    """Record error(k) under the index k of each stack member where mask holds,
    unless k has one already. A fresh dict's first entry is the first failing
    check's first failing member: the error the public functions raise."""
    for k in map(tuple, np.argwhere(mask).tolist()):
        errors.setdefault(k, error(k))


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


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (eigenvalues, eigenvectors) of a (nearly) Hermitian
    matrix, as np.linalg.eigh gives it but in descending order.

    The eigenvalues are real; eigenvectors[:, i] is the normalized eigenvector
    for eigenvalues[i]. The input is symmetrized as (h + h†)/2 before
    decomposition; inputs further than HERMITICITY_TOL from Hermitian are
    rejected. For a stack (..., d, d) the eigenvalues are (..., d) and the
    eigenvectors (..., d, d).
    """
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitian_part(h))  # ascending
    return w[..., ::-1], v[..., ::-1]


def kron_qubits(fs: np.ndarray) -> np.ndarray:
    """Kronecker product fs[..., 0] ⊗ fs[..., 1] ⊗ ... of per-qubit matrices
    fs (..., n, 2, 2), qubit 0 most significant, as a map (..., 2**n, 2**n)."""
    out = np.ones((*fs.shape[:-3], 1, 1))
    for k in range(fs.shape[-3]):
        d = 2 * out.shape[-1]
        out = np.einsum("...ij,...kl->...ikjl", out, fs[..., k, :, :])
        out = out.reshape(*fs.shape[:-3], d, d)
    return out


def nqubits_of(rho: np.ndarray) -> int:
    """Qubit count of a vector, a matrix or a stack of matrices (last axis)."""
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim or (rho.ndim >= 2 and rho.shape[-2] != dim):
        raise ValueError(f"not a qubit-register operator: shape {rho.shape}")
    return n


def partial_trace(rho: np.ndarray, keep: list[int] | tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix on the kept qubits, in register order:
    keep [1, 0] gives the (0, 1) marginal.

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

