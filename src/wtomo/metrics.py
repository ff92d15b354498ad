"""Fidelity of an estimated state against a pure target state."""

from __future__ import annotations

import numpy as np

from .linalg import first_true


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float | np.ndarray:
    """Square-root fidelity sqrt(<psi|rho|psi>) against a pure target.

    Note the convention: this is F, not F^2. Invariant under a global phase
    of psi; values a hair outside [0, 1] from roundoff are clamped. A matrix
    gives a numpy scalar, a stack (..., d, d) an array (...) of fidelities.
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
    return np.sqrt(np.clip(val, 0.0, 1.0))

