"""Fidelity of an estimated three-qubit state against the W state."""

from __future__ import annotations

import numpy as np

from .circuits import w_vector
from .linalg import first_true

_W = w_vector()  # the one target: every fidelity wtomo reports is against it
_W.setflags(write=False)


def fidelity_pure(rho: np.ndarray) -> float | np.ndarray:
    """Square-root fidelity sqrt(<W|rho|W>) against the closed form W = ``w_vector()``.

    Note the convention: this is F, not F^2. Values a hair outside [0, 1] from
    roundoff are clamped. A matrix gives a numpy scalar, a stack (..., 8, 8)
    an array (...) of fidelities.
    """
    if np.shape(rho)[-2:] != (8, 8):
        raise ValueError(f"expected an (..., 8, 8) stack, got shape {np.shape(rho)}")
    # <W| (rho |W>) as a 1 x d by d x 1 product: np.vdot's rounding, per matrix
    val = np.real(_W.conj() @ (rho @ _W)[..., None])[..., 0]
    outside = (val < -1e-12) | (val > 1 + 1e-12)
    if outside.any():
        raise ValueError(f"<W|rho|W> = {val[first_true(outside)]} outside [0, 1]")
    return np.sqrt(np.clip(val, 0.0, 1.0))
