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

from .linalg import eig_hermitian, first_true, outer, partial_trace, vector_norm

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
    rho_ab and rho_bc may be stacks (..., 4, 4) of pairs sharing eps_b.
    """

    rho_ab: np.ndarray
    rho_bc: np.ndarray
    eps_b: float = 0.05

    def normalized(self) -> "MarginalPair":
        out = []
        for name, rho in (("rho_ab", self.rho_ab), ("rho_bc", self.rho_bc)):
            tr = np.trace(rho, axis1=-2, axis2=-1).real
            off = np.abs(tr - 1.0) > 1e-10
            if off.any():
                warnings.warn(f"{name} has trace {tr[first_true(off)]:.4f}; renormalizing to 1")
                rho = np.where(off[..., None, None], rho / tr[..., None, None], rho)
            out.append(rho)
        return MarginalPair(out[0], out[1], self.eps_b)


@dataclass(frozen=True)
class OverlapTensors:
    """Eigenbasis overlap data for the phase solve.

    a_tensor[i, j, k] = <jk | i;BC> and c_tensor[k, i, j] = <ij | k;AB>,
    with |ij> and |jk> built from the single-party eigenbases. Every field
    carries the leading axes of the marginal pair it was built from.
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
    """psi (..., 8) and its projector rho (..., 8, 8); residuals and truncated
    masses are floats for one pair, arrays (...) for a stack of pairs."""

    psi: np.ndarray
    rho: np.ndarray
    residual_ab: float
    residual_bc: float
    truncated_mass: dict


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A float for one pair, the array for a stack of pairs."""
    return float(x) if np.ndim(x) == 0 else x


def _fix_vector_gauge(v: np.ndarray) -> np.ndarray:
    """Rotate each vector (last axis) so its largest-magnitude component is real positive."""
    vk = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], -1)
    mag = np.hypot(vk.real, vk.imag)  # what abs() gives for one complex number
    zero = mag == 0
    return np.where(zero, v, v * (mag / np.where(zero, 1, vk)))


def _fix_column_gauge(vectors: np.ndarray) -> np.ndarray:
    """_fix_vector_gauge on each column."""
    return _fix_vector_gauge(vectors.swapaxes(-1, -2)).swapaxes(-1, -2)


def single_party_marginals(
    pair: MarginalPair,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 2x2 marginals (rho_A, rho_B, rho_C).

    rho_B is the average of its two estimates; their max-norm discrepancy
    must stay within pair.eps_b.
    """
    return _single_party_marginals(pair.normalized())


def _single_party_marginals(pair: MarginalPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """single_party_marginals of a trace-normalized pair."""
    rho_a = partial_trace(pair.rho_ab, [0])
    rho_b_from_ab = partial_trace(pair.rho_ab, [1])
    rho_b_from_bc = partial_trace(pair.rho_bc, [0])
    rho_c = partial_trace(pair.rho_bc, [1])
    gap = np.abs(rho_b_from_ab - rho_b_from_bc).max(axis=(-2, -1))
    over = gap > pair.eps_b
    if over.any():
        raise InconsistentMarginalsError(
            f"shared-qubit marginals disagree by {gap[first_true(over)]:.4f} "
            f"(> eps_b = {pair.eps_b})"
        )
    rho_b = (rho_b_from_ab + rho_b_from_bc) / 2
    return rho_a, rho_b, rho_c


def _top2(es, label: str, truncation: dict) -> tuple[np.ndarray, np.ndarray]:
    """Keep the top-2 eigenpairs, renormalize kept mass to 1."""
    w = np.clip(es.eigenvalues, 0.0, None)
    kept = w[..., :2].sum(axis=-1)
    truncation[label] = _scalar(np.maximum(0.0, w.sum(axis=-1) - kept))
    low = kept < MIN_KEPT_MASS
    if low.any():
        raise TooMixedError(
            f"{label}: kept spectral mass {kept[first_true(low)]:.3f} < {MIN_KEPT_MASS}; "
            "input too mixed for a pure-state hypothesis"
        )
    return w[..., :2] / kept[..., None], es.eigenvectors[..., :2]


def _overlaps(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """t[i, j, k] = sum_{b,c} conj(u[b, j]) conj(v[c, k]) w[2b + c, i].

    The products come from einsum, which multiplies complex numbers as
    scalar code does (numpy's vectorised `*` may round differently), in two
    steps that need smaller buffers than one; the four (b, c) terms are then
    summed in order, so the rounding is the same for every pair of a stack.
    """
    uv = np.einsum("...bj,...ck->...bcjk", u.conj(), v.conj())
    terms = np.einsum("...bcjk,...bci->...bcijk", uv, w.reshape(*w.shape[:-2], 2, 2, 2))
    return terms.reshape(*terms.shape[:-5], 4, 2, 2, 2).sum(axis=-4)


def purify_structures(pair: MarginalPair) -> OverlapTensors:
    """Matched spectral data of all marginals, truncated to Schmidt rank 2.

    Spectra are paired in descending order: lambda_A^i with the i-th
    eigenvector of rho_BC, lambda_C^k with the k-th of rho_AB.
    """
    return _purify_structures(pair.normalized())


def _purify_structures(pair: MarginalPair) -> OverlapTensors:
    """purify_structures of a trace-normalized pair."""
    rho_a, rho_b, rho_c = _single_party_marginals(pair)
    truncation: dict = {}
    lam_a, vec_a = _top2(eig_hermitian(rho_a), "rho_a", truncation)
    lam_c, vec_c = _top2(eig_hermitian(rho_c), "rho_c", truncation)
    _, vec_b = _top2(eig_hermitian(rho_b), "rho_b", truncation)
    _, vec_bc = _top2(eig_hermitian(pair.rho_bc), "rho_bc", truncation)
    _, vec_ab = _top2(eig_hermitian(pair.rho_ab), "rho_ab", truncation)
    vec_a, vec_b, vec_c, vec_bc, vec_ab = map(
        _fix_column_gauge, (vec_a, vec_b, vec_c, vec_bc, vec_ab)
    )
    return OverlapTensors(
        a_tensor=_overlaps(vec_b, vec_c, vec_bc),
        c_tensor=_overlaps(vec_a, vec_b, vec_ab),
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
    degenerate = np.abs(lam_a[..., 0] - lam_a[..., 1]) <= gap
    if degenerate.any():
        raise DegenerateSpectrumError(
            f"rho_A spectrum {lam_a[first_true(degenerate)]} is degenerate within {gap}; "
            "the marginals do not determine the global state"
        )
    t1 = np.sqrt(lam_a)[..., :, None, None] * t.a_tensor  # [i, j, k]
    t2 = np.einsum("...k,...kij->...ijk", np.sqrt(t.lambda_c), t.c_tensor)
    # products by einsum as in _overlaps, then the sum over j
    m = np.einsum("...ijk,...ijk->...ijk", t2, t1.conj()).sum(axis=-2)  # [i, k]
    # arg(m[i, k]) = alpha_i - gamma_k

    live = np.sqrt(lam_a) > 1e-8  # phases of zero-amplitude branches are moot
    usable = np.abs(m).max(axis=-1) >= PHASE_MAGNITUDE_FLOOR
    if (live & ~usable).any():
        raise UnderdeterminedPhaseError(
            f"no usable overlap constraint for branch {first_true(live & ~usable)[-1]}"
        )

    alpha = np.where(live, np.angle(m[..., :, 0]), 0.0)
    i_best = np.argmax(np.abs(m[..., :, 1]), axis=-1)[..., None]
    gamma_1 = np.take_along_axis(alpha, i_best, -1) - np.angle(
        np.take_along_axis(m[..., :, 1], i_best, -1)
    )
    gamma = np.concatenate([np.zeros_like(gamma_1), gamma_1], axis=-1)
    refined = np.angle((m @ np.exp(1j * gamma)[..., None])[..., 0])
    return np.where(live & usable, refined, 0.0)


def diosi_reconstruct(pair: MarginalPair) -> ReconstructionResult:
    """Reconstruct the global pure state from (rho_AB, rho_BC).

    Residuals compare the partial traces of the output against the original
    (untruncated, trace-normalized) inputs; the global phase is fixed by
    making the largest-magnitude amplitude real positive. A stack of pairs
    gives a stack of states, each bitwise the same as on its own.
    """
    pair = pair.normalized()
    t = _purify_structures(pair)
    alpha = solve_phases(t)
    weights = np.exp(1j * alpha) * np.sqrt(t.lambda_a)
    lead = alpha.shape[:-1]
    psi = np.zeros((*lead, 8), dtype=complex)
    for i in range(2):  # the two Schmidt branches |i;A> ⊗ |i;BC>
        branch = t.vectors_a[..., :, None, i] * t.vectors_bc[..., None, :, i]
        psi += weights[..., i, None] * branch.reshape(*lead, 8)
    psi /= vector_norm(psi)[..., None]
    psi = _fix_vector_gauge(psi)
    rho = outer(psi)
    residual_ab = np.abs(partial_trace(rho, [0, 1]) - pair.rho_ab).max(axis=(-2, -1))
    residual_bc = np.abs(partial_trace(rho, [1, 2]) - pair.rho_bc).max(axis=(-2, -1))
    return ReconstructionResult(
        psi=psi,
        rho=rho,
        residual_ab=_scalar(residual_ab),
        residual_bc=_scalar(residual_bc),
        truncated_mass=t.truncated_mass,
    )
