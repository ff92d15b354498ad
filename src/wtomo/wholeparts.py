"""Reconstruction of a tripartite pure state from two bipartite marginals.

Given rho_AB and rho_BC of a (presumed pure) three-qubit state, the global
state is recovered from matched spectral decompositions: rho_A shares its
nonzero spectrum with rho_BC, and rho_C with rho_AB, so

    psi = sum_i exp(i alpha_i) sqrt(lambda_A^i) |i;A> ⊗ |i;BC>

with the branch phases alpha_i fixed by consistency with the equivalent
(rho_C, rho_AB) decomposition. The four marginals are decomposed in two
stacks, (rho_A, rho_C) and (rho_BC, rho_AB), with one eig_hermitian call
each (see _top2), and the phases come from one contraction over the shared
qubit B (see _phase_matrix). States whose single-party spectra are
degenerate (GHZ-like), or whose branches the overlaps do not link, are not
determined by their marginals and are rejected rather than guessed; a pure
rho_C makes the state the pure rho_AB times rho_C.

Each check records (``linalg.flag``) the failing pairs of a stack in a dict of
errors, and the other pairs come out as alone; diosi_reconstruct raises the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (HERMITICITY_TOL, eig_hermitian, first_true, flag, is_hermitian, outer,
                     partial_trace, vector_norm)

DEGENERACY_GAP = 1e-6
PHASE_MAGNITUDE_FLOOR = 1e-8
LIVE_WEIGHT = 1e-12  # a branch of smaller weight is rounding (a pure rho_A reads ~1e-16)
MIN_KEPT_MASS = 0.8
TRACE_TOL = 1e-10  # a marginal whose trace is further from 1 is renormalized
EPS_B = 0.05  # base tolerance on the shared-qubit gap of experimental marginals


def unit_trace(rho: np.ndarray) -> np.ndarray:
    """rho, or each matrix of a stack, divided by its trace where that trace is
    further than TRACE_TOL from 1; rho itself when no trace is. Raises
    ValueError for a trace that is not a positive number (zero, negative, NaN)."""
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    bad = ~(tr > 0)
    if bad.any():
        raise ValueError(f"trace {tr[first_true(bad)]:g} is not positive")
    off = np.abs(tr - 1.0) > TRACE_TOL
    return np.where(off[..., None, None], rho / tr[..., None, None], rho) if off.any() else rho


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
    shared qubit B (``EPS_B`` for experimental inputs, 1e-10 for exact).
    rho_ab and rho_bc may be stacks (..., 4, 4) of pairs sharing eps_b, of
    one shape; each is stored as ``unit_trace`` gives it, then checked Hermitian.
    """

    rho_ab: np.ndarray
    rho_bc: np.ndarray
    eps_b: float

    def __post_init__(self):
        real = (int, float, np.integer, np.floating)  # bool is an int subclass
        if isinstance(self.eps_b, bool) or not isinstance(self.eps_b, real):
            raise TypeError(f"eps_b must be a real number, got {self.eps_b!r}")
        if not (np.isfinite(self.eps_b) and self.eps_b >= 0):
            # a NaN would pass every shared-qubit consistency check
            raise ValueError(f"eps_b must be a finite number >= 0, got {self.eps_b}")
        shapes = np.shape(self.rho_ab), np.shape(self.rho_bc)
        if shapes[0] != shapes[1] or shapes[0][-2:] != (4, 4):
            raise ValueError(f"rho_ab and rho_bc must be (..., 4, 4) stacks of one shape, "
                             f"got {shapes[0]} and {shapes[1]}")
        for name in ("rho_ab", "rho_bc"):
            object.__setattr__(self, name, unit_trace(getattr(self, name)))
            if not is_hermitian(getattr(self, name)):
                raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL}")


@dataclass(frozen=True)
class ReconstructionResult:
    """psi (..., 8) and its projector rho (..., 8, 8); residuals and truncated
    masses are numpy scalars for one pair, arrays (...) for a stack of pairs."""

    psi: np.ndarray
    rho: np.ndarray
    residual_ab: float
    residual_bc: float
    truncated_mass: dict


def _fix_vector_gauge(v: np.ndarray) -> np.ndarray:
    """Rotate each vector (last axis) so its largest-magnitude component is real positive."""
    vk = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], -1)
    mag = np.hypot(vk.real, vk.imag)  # what abs() gives for one complex number
    zero = mag == 0
    return np.where(zero, v, v * (mag / np.where(zero, 1, vk)))


def _single_party_marginals(pair: MarginalPair, errors: dict) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 marginals (rho_A, rho_C) of a trace-normalized pair, whose two
    estimates of the shared qubit B must agree within pair.eps_b (max norm)."""
    gap = np.abs(partial_trace(pair.rho_ab, [1]) - partial_trace(pair.rho_bc, [0])).max(axis=(-2, -1))
    flag(errors, gap > pair.eps_b, lambda k: InconsistentMarginalsError(
        f"shared-qubit marginals disagree by {gap[k]:.4f} (> eps_b = {pair.eps_b})"
    ))
    return partial_trace(pair.rho_ab, [0]), partial_trace(pair.rho_bc, [1])


def _top2(rhos: np.ndarray) -> tuple:
    """Top-2 eigenpairs, in descending order, of the marginals rhos (..., L, d, d),
    from one eig_hermitian call, with the spectrum clipped at 0.

    Returns, label axis first: the kept spectral mass (L, ...), the discarded
    mass (L, ...), the kept eigenvalues renormalized to sum 1 (L, ..., 2) and
    the kept eigenvectors (L, ..., d, 2), each column gauge-fixed by
    _fix_vector_gauge. For d = 2 nothing is discarded.
    """
    w, v = eig_hermitian(rhos)
    w = np.clip(w, 0.0, None)
    kept = w[..., :2].sum(axis=-1)
    lost = np.maximum(0.0, w.sum(axis=-1) - kept)
    vectors = _fix_vector_gauge(v[..., :2].swapaxes(-1, -2)).swapaxes(-1, -2)
    return (np.moveaxis(kept, -1, 0), np.moveaxis(lost, -1, 0),
            np.moveaxis(w[..., :2] / kept[..., None], -2, 0), np.moveaxis(vectors, -3, 0))


def _phase_matrix(lam_a, lam_c, vec_a, vec_c, vec_ab, vec_bc) -> np.ndarray:
    """m[i, k] = sqrt(lambda_A^i lambda_C^k) <i;A i;BC | k;AB k;C>, the overlap of
    branch i of the (rho_A, rho_BC) decomposition with branch k of the
    (rho_C, rho_AB) one, from one contraction over the qubits a, b, c:

        sum_abc conj(vec_a[a, i]) vec_ab[2a + b, k] conj(vec_bc[2b + c, i]) vec_c[c, k]

    A single einsum, so a pair rounds the same in a stack of any size.
    """
    lead = vec_a.shape[:-2]
    s = np.einsum("...ai,...abk,...bci,...ck->...ik", vec_a.conj(), vec_ab.reshape(*lead, 2, 2, 2),
                  vec_bc.conj().reshape(*lead, 2, 2, 2), vec_c)
    return np.sqrt(lam_a)[..., :, None] * np.sqrt(lam_c)[..., None, :] * s


def _solve_phases(lam_a, m, errors: dict) -> np.ndarray:
    """Branch phases alpha_i making the two pure-state decompositions agree.

    Spectra are paired in descending order, as _top2 gives them; m is the
    phase matrix of _phase_matrix, whose argument arg(m[i, k]) is
    alpha_i - gamma_k for the branch phases gamma_k of the (rho_C, rho_AB)
    decomposition. This is solved in the gauge gamma_0 = 0: gamma_1 follows
    from the branch i_best with the largest |m[i, 1]|, and each alpha_i is
    refined as the argument of the gamma-weighted row sum of m. A branch of
    weight at most LIVE_WEIGHT is not live, and a lone live branch needs no
    overlap: its phase is global. With both branches live, a branch without
    a usable overlap, or an i_best that does not link to C branch 0, would
    read the relative branch phase from rounding noise, and is flagged.
    """
    degenerate = np.abs(lam_a[..., 0] - lam_a[..., 1]) <= DEGENERACY_GAP
    flag(errors, degenerate, lambda k: DegenerateSpectrumError(
        f"rho_A spectrum {lam_a[k]} is degenerate within {DEGENERACY_GAP}; "
        "the marginals do not determine the global state"
    ))
    live = lam_a > LIVE_WEIGHT  # phases of zero-weight branches are moot
    usable = np.abs(m).max(axis=-1) >= PHASE_MAGNITUDE_FLOOR
    stuck = live.all(axis=-1, keepdims=True) & ~usable  # a lone live branch's phase is global
    flag(errors, stuck.any(axis=-1), lambda k: UnderdeterminedPhaseError(
        f"no usable overlap constraint for branch {first_true(stuck[k])[-1]}"
    ))

    alpha = np.where(live, np.angle(m[..., :, 0]), 0.0)
    i_best = np.argmax(np.abs(m[..., :, 1]), axis=-1)[..., None]
    m_best = np.take_along_axis(m, i_best[..., None], -2)[..., 0, :]  # m[i_best, :]
    # gamma_1 needs i_best linked to both C branches, unless all of column 1
    # is below the floor: then C's branch 1 carries no weight and gamma_1 is moot
    weak = np.abs(m_best) < PHASE_MAGNITUDE_FLOOR
    unlinked = live.all(axis=-1) & weak[..., 0] & ~weak[..., 1]
    flag(errors, unlinked, lambda k: UnderdeterminedPhaseError(
        f"branch {i_best[k][0]} fixes gamma_1 but its overlap with C branch 0 is "
        f"{abs(m_best[k][0]):.1e} < {PHASE_MAGNITUDE_FLOOR}; the relative branch phase is unresolved"
    ))
    gamma_1 = np.take_along_axis(alpha, i_best, -1) - np.angle(m_best[..., 1:])
    gamma = np.concatenate([np.zeros_like(gamma_1), gamma_1], axis=-1)
    refined = np.angle((m @ np.exp(1j * gamma)[..., None])[..., 0])
    return np.where(live & usable, refined, 0.0)


def diosi_reconstruct(pair: MarginalPair) -> ReconstructionResult:
    """Reconstruct the global pure state from (rho_AB, rho_BC).

    Residuals compare the partial traces of the output against the original
    (untruncated, trace-normalized) inputs; the global phase is fixed by
    making the largest-magnitude amplitude real positive. A stack of pairs
    gives a stack of states, each bitwise the same as on its own. Raises the first
    ReconstructionError ``_diosi_reconstruct`` records: the first failing check's first pair.
    """
    errors: dict = {}
    result = _diosi_reconstruct(pair, errors)
    if errors:
        raise next(iter(errors.values()))
    return result


def _diosi_reconstruct(pair: MarginalPair, errors: dict) -> ReconstructionResult:
    """diosi_reconstruct whose checks record failing pairs in errors (see the module docstring)."""
    _, _, (lam_a, lam_c), (vec_a, vec_c) = _top2(
        np.stack(_single_party_marginals(pair, errors), axis=-3)
    )
    kept, lost, _, (vec_bc, vec_ab) = _top2(np.stack([pair.rho_bc, pair.rho_ab], axis=-3))
    truncation: dict = {}
    for label, kept_m, lost_m in zip(("rho_bc", "rho_ab"), kept, lost):
        truncation[label] = lost_m
        flag(errors, kept_m < MIN_KEPT_MASS, lambda k: TooMixedError(
            f"{label}: kept spectral mass {kept_m[k]:.3f} < {MIN_KEPT_MASS}; "
            "input too mixed for a pure-state hypothesis"
        ))
    m = _phase_matrix(lam_a, lam_c, vec_a, vec_c, vec_ab, vec_bc)
    # a pure rho_C, one live C branch (the mirror of a lone A branch), is that branch
    # alone: no phase to solve, and C's spectrum fails no _solve_phases check
    lone_c = (lam_c[..., 1] <= LIVE_WEIGHT)[..., None]
    alpha = _solve_phases(np.where(lone_c, lam_c, lam_a), m, errors)
    weights = np.exp(1j * alpha) * np.sqrt(lam_a)
    lead = alpha.shape[:-1]
    psi = np.zeros((*lead, 8), dtype=complex)
    for i in range(2):  # the two Schmidt branches |i;A> ⊗ |i;BC>
        branch = vec_a[..., :, None, i] * vec_bc[..., None, :, i]
        psi += weights[..., i, None] * branch.reshape(*lead, 8)
    lone = vec_ab[..., :, None, 0] * vec_c[..., None, :, 0]  # |0;AB> ⊗ |0;C>
    psi = np.where(lone_c, lone.reshape(*lead, 8), psi)
    psi /= vector_norm(psi)[..., None]
    psi = _fix_vector_gauge(psi)
    rho = outer(psi)
    residual_ab = np.abs(partial_trace(rho, [0, 1]) - pair.rho_ab).max(axis=(-2, -1))
    residual_bc = np.abs(partial_trace(rho, [1, 2]) - pair.rho_bc).max(axis=(-2, -1))
    return ReconstructionResult(psi, rho, residual_ab, residual_bc, truncation)
