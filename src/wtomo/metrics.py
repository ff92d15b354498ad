"""Fidelity and distance measures, plus per-trial fidelity report rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eig_hermitian, first_true, hermitian_part


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float | np.ndarray:
    """Square-root fidelity sqrt(<psi|rho|psi>) against a pure target.

    Note the convention: this is F, not F^2. Invariant under a global phase
    of psi; values a hair outside [0, 1] from roundoff are clamped. For a
    stack of matrices (..., d, d) it returns an array (...) of fidelities.
    """
    if psi.shape[0] != rho.shape[-1]:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {rho.shape}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("target vector is not normalized")
    # <psi| (rho |psi>) as a 1 x d by d x 1 product: np.vdot's rounding, per matrix
    val = np.real(psi.conj() @ (rho @ psi)[..., None])[..., 0]
    outside = (val < -1e-12) | (val > 1 + 1e-12)
    if outside.any():
        raise ValueError(f"<psi|rho|psi> = {val[first_true(outside)]} outside [0, 1]")
    f = np.sqrt(np.clip(val, 0.0, 1.0))
    return float(f) if f.ndim == 0 else f


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) sum |eigenvalues(a - b)| for Hermitian a, b."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w = eig_hermitian(hermitian_part(a - b)).eigenvalues
    return float(np.abs(w).sum() / 2)


@dataclass(frozen=True)
class FidelityReport:
    """One trial's fidelities: full tomography vs whole-from-parts."""

    trial_id: int
    shots: int
    mitigated: bool
    f_full: float
    f_parts: float
    residual_ab: float = float("nan")
    residual_bc: float = float("nan")

    def __post_init__(self):
        for f in (self.f_full, self.f_parts):
            if not np.isnan(f) and not (0.0 <= f <= 1.0 + 1e-12):
                raise ValueError(f"fidelity {f} outside [0, 1]")
