"""Reconstruction of a tripartite pure state from two bipartite marginals.

Given rho_AB and rho_BC of a (presumed pure) three-qubit state, the global
state is recovered from matched spectral decompositions: rho_A shares its
nonzero spectrum with rho_BC, and rho_C with rho_AB, so

    psi = sum_i exp(i alpha_i) sqrt(lambda_A^i) |i;A> ⊗ |i;BC>

with the branch phases alpha_i fixed by consistency with the equivalent
(rho_C, rho_AB) decomposition. States whose single-party spectra are
degenerate (GHZ-like) are not determined by their marginals and are
rejected rather than guessed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import eig_hermitian, kron, outer, partial_trace

DEGENERACY_GAP = 1e-6
PHASE_MAGNITUDE_FLOOR = 1e-8
MIN_KEPT_MASS = 0.8


class ReconstructionError(Exception):
    """Base class for whole-from-parts failures."""


class InconsistentMarginalsError(ReconstructionError):
    """The two marginals disagree on the shared single-party state."""


class DegenerateSpectrumError(ReconstructionError):
    """Degenerate single-party spectrum: the marginals do not determine
    the global state (GHZ-like ambiguity)."""


class TooMixedError(ReconstructionError):
    """Inputs are too mixed to be marginals of any pure three-qubit state."""


class UnderdeterminedPhaseError(ReconstructionError):
    """No overlap constraint with usable magnitude fixes a branch phase."""


@dataclass(frozen=True)
class MarginalPair:
    """Two-qubit marginals rho_AB and rho_BC of a three-qubit state.

    eps_b bounds the allowed disagreement between the two estimates of the
    shared qubit B (use ~0.05 for experimental inputs, 1e-10 for exact).
    """

    rho_ab: np.ndarray
    rho_bc: np.ndarray
    eps_b: float = 0.05

    def normalized(self) -> "MarginalPair":
        out = []
        for name, rho in (("rho_ab", self.rho_ab), ("rho_bc", self.rho_bc)):
            tr = np.trace(rho).real
            if abs(tr - 1.0) > 1e-10:
                warnings.warn(f"{name} has trace {tr:.4f}; renormalizing to 1")
                rho = rho / tr
            out.append(rho)
        return MarginalPair(out[0], out[1], self.eps_b)


@dataclass(frozen=True)
class OverlapTensors:
    """Eigenbasis overlap data for the phase solve.

    a_tensor[i, j, k] = <jk | i;BC> and c_tensor[k, i, j] = <ij | k;AB>,
    with |ij> and |jk> built from the single-party eigenbases.
    """

    a_tensor: np.ndarray
    c_tensor: np.ndarray
    lambda_a: np.ndarray
    lambda_c: np.ndarray
    vectors_a: np.ndarray  # columns: |i;A>
    vectors_bc: np.ndarray  # columns: |i;BC>
    truncated_mass: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReconstructionResult:
    psi: np.ndarray
    residual_ab: float
    residual_bc: float
    truncated_mass: dict

    def to_json_dict(self) -> dict:
        return {
            "nqubits": 3,
            "re": np.real(self.psi).tolist(),
            "im": np.imag(self.psi).tolist(),
            "residual_ab": self.residual_ab,
            "residual_bc": self.residual_bc,
            "truncated_mass": self.truncated_mass,
        }


def _fix_vector_gauge(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude component is real positive."""
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) == 0:
        return v
    return v * (abs(v[k]) / v[k])


def single_party_marginals(
    pair: MarginalPair,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 2x2 marginals (rho_A, rho_B, rho_C).

    rho_B is the average of its two estimates; their max-norm discrepancy
    must stay within pair.eps_b.
    """
    pair = pair.normalized()
    rho_a = partial_trace(pair.rho_ab, [0])
    rho_b_from_ab = partial_trace(pair.rho_ab, [1])
    rho_b_from_bc = partial_trace(pair.rho_bc, [0])
    rho_c = partial_trace(pair.rho_bc, [1])
    gap = np.abs(rho_b_from_ab - rho_b_from_bc).max()
    if gap > pair.eps_b:
        raise InconsistentMarginalsError(
            f"shared-qubit marginals disagree by {gap:.4f} (> eps_b = {pair.eps_b})"
        )
    rho_b = (rho_b_from_ab + rho_b_from_bc) / 2
    return rho_a, rho_b, rho_c


def _top2(es, label: str, truncation: dict) -> tuple[np.ndarray, np.ndarray]:
    """Keep the top-2 eigenpairs, renormalize kept mass to 1."""
    w = np.clip(es.eigenvalues, 0.0, None)
    kept = w[:2].sum()
    truncation[label] = float(max(0.0, w.sum() - kept))
    if kept < MIN_KEPT_MASS:
        raise TooMixedError(
            f"{label}: kept spectral mass {kept:.3f} < {MIN_KEPT_MASS}; "
            "input too mixed for a pure-state hypothesis"
        )
    return w[:2] / kept, es.eigenvectors[:, :2]


def purify_structures(pair: MarginalPair) -> OverlapTensors:
    """Matched spectral data of all marginals, truncated to Schmidt rank 2.

    Spectra are paired in descending order: lambda_A^i with the i-th
    eigenvector of rho_BC, lambda_C^k with the k-th of rho_AB.
    """
    pair = pair.normalized()
    rho_a, rho_b, rho_c = single_party_marginals(pair)
    truncation: dict = {}
    lam_a, vec_a = _top2(eig_hermitian(rho_a), "rho_a", truncation)
    lam_c, vec_c = _top2(eig_hermitian(rho_c), "rho_c", truncation)
    _, vec_b = _top2(eig_hermitian(rho_b), "rho_b", truncation)
    _, vec_bc = _top2(eig_hermitian(pair.rho_bc), "rho_bc", truncation)
    _, vec_ab = _top2(eig_hermitian(pair.rho_ab), "rho_ab", truncation)

    vec_a = np.column_stack([_fix_vector_gauge(vec_a[:, i]) for i in range(2)])
    vec_b = np.column_stack([_fix_vector_gauge(vec_b[:, i]) for i in range(2)])
    vec_c = np.column_stack([_fix_vector_gauge(vec_c[:, i]) for i in range(2)])
    vec_bc = np.column_stack([_fix_vector_gauge(vec_bc[:, i]) for i in range(2)])
    vec_ab = np.column_stack([_fix_vector_gauge(vec_ab[:, i]) for i in range(2)])

    a_tensor = np.einsum("bj,ck,bci->ijk", vec_b.conj(), vec_c.conj(), vec_bc.reshape(2, 2, 2))
    c_tensor = np.einsum("ai,bj,abk->kij", vec_a.conj(), vec_b.conj(), vec_ab.reshape(2, 2, 2))
    return OverlapTensors(
        a_tensor=a_tensor,
        c_tensor=c_tensor,
        lambda_a=lam_a,
        lambda_c=lam_c,
        vectors_a=vec_a,
        vectors_bc=vec_bc,
        truncated_mass=truncation,
    )


def solve_phases(t: OverlapTensors, gap: float = DEGENERACY_GAP) -> np.ndarray:
    """Branch phases alpha_i making the two pure-state decompositions agree.

    The consistency constraint
        exp(i alpha_i) sqrt(lambda_A^i) A[i,j,k]
            == exp(i gamma_k) sqrt(lambda_C^k) C[k,i,j]
    is solved in the gauge gamma_0 = 0: the relative phase alpha_i - gamma_k
    is read off the j-summed overlap M[i,k], gamma_1 follows from the
    best-conditioned branch, and each alpha_i is refined as the argument of
    the gamma-weighted overlap sum.
    """
    lam_a = t.lambda_a
    if abs(lam_a[0] - lam_a[1]) <= gap:
        raise DegenerateSpectrumError(
            f"rho_A spectrum {lam_a} is degenerate within {gap}; "
            "the marginals do not determine the global state"
        )
    t1 = np.sqrt(lam_a)[:, None, None] * t.a_tensor  # [i, j, k]
    t2 = np.einsum("k,kij->ijk", np.sqrt(t.lambda_c), t.c_tensor)
    m = np.einsum("ijk,ijk->ik", t2, t1.conj())  # arg(m[i,k]) = alpha_i - gamma_k

    live = np.sqrt(lam_a) > 1e-8  # phases of zero-amplitude branches are moot
    for i in range(2):
        if live[i] and np.abs(m[i]).max() < PHASE_MAGNITUDE_FLOOR:
            raise UnderdeterminedPhaseError(
                f"no usable overlap constraint for branch {i}"
            )

    gamma = np.zeros(2)
    alpha = np.where(live, np.angle(m[:, 0]), 0.0)
    i_best = int(np.argmax(np.abs(m[:, 1])))
    gamma[1] = alpha[i_best] - np.angle(m[i_best, 1])
    refined = np.angle(m @ np.exp(1j * gamma))
    return np.where(live & (np.abs(m).max(axis=1) >= PHASE_MAGNITUDE_FLOOR), refined, 0.0)


def diosi_reconstruct(pair: MarginalPair) -> ReconstructionResult:
    """Reconstruct the global pure state from (rho_AB, rho_BC).

    Residuals compare the partial traces of the output against the original
    (untruncated, trace-normalized) inputs; the global phase is fixed by
    making the largest-magnitude amplitude real positive.
    """
    pair = pair.normalized()
    t = purify_structures(pair)
    alpha = solve_phases(t)
    psi = np.zeros(8, dtype=complex)
    for i in range(2):
        psi += (
            np.exp(1j * alpha[i])
            * np.sqrt(t.lambda_a[i])
            * kron(t.vectors_a[:, i], t.vectors_bc[:, i])
        )
    psi /= np.linalg.norm(psi)
    psi = _fix_vector_gauge(psi)
    rho = outer(psi)
    residual_ab = float(np.abs(partial_trace(rho, [0, 1]) - pair.rho_ab).max())
    residual_bc = float(np.abs(partial_trace(rho, [1, 2]) - pair.rho_bc).max())
    return ReconstructionResult(
        psi=psi,
        residual_ab=residual_ab,
        residual_bc=residual_bc,
        truncated_mass=t.truncated_mass,
    )


def reconstruct_relabeled(
    rho_xy: np.ndarray, rho_yz: np.ndarray, order: str = "ABC", eps_b: float = 0.05
) -> ReconstructionResult:
    """Adapter for marginal pairs other than (AB, BC) via qubit relabeling.

    order names the physical qubits playing the (first, shared, last) roles:
    order="ACB" reconstructs from (rho_AC, rho_CB) and returns the state with
    amplitudes permuted back to physical A, B, C order.
    """
    if sorted(order) != ["A", "B", "C"]:
        raise ValueError(f"order must be a permutation of ABC, got {order!r}")
    res = diosi_reconstruct(MarginalPair(rho_xy, rho_yz, eps_b))
    perm = [order.index(q) for q in "ABC"]
    psi = res.psi.reshape(2, 2, 2).transpose(perm).reshape(8)
    return ReconstructionResult(
        psi=psi,
        residual_ab=res.residual_ab,
        residual_bc=res.residual_bc,
        truncated_mass=res.truncated_mass,
    )
