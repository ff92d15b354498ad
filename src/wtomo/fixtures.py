"""Reference density matrices from a published W-state run on ibm_osaka.

These are the hardware-reconstructed matrices (after readout mitigation and
positivity correction) of one representative experimental trial, rounded to
two decimals as published. They serve as regression fixtures: the
whole-from-parts reconstruction run on the two-qubit matrices must reproduce
the published three-qubit result to print precision.

Index convention: as published, the two-qubit tables and the three-qubit
tables use opposite row/column conventions — the partial traces of
REF_RHO_PARTS match the transpose of the two-qubit tables, and
reconstructing from the tables as-printed yields exactly the conjugate of
REF_RHO_PARTS. experimental_marginals() therefore transposes the two-qubit
matrices on load so every fixture shares the three-qubit convention.
"""

from __future__ import annotations

import numpy as np

from .wholeparts import EPS_B, MarginalPair

# two-qubit marginals (as published; trace 0.98 resp. 0.98 before renormalization)
_RHO_AB_PUBLISHED = np.array(
    [
        [0.31, 0, 0, -0.02j],
        [0, 0.36, 0.32 + 0.03j, 0],
        [0, 0.32 - 0.03j, 0.31, 0],
        [0.02j, 0, 0, 0],
    ],
    dtype=complex,
)

_RHO_BC_PUBLISHED = np.array(
    [
        [0.31, -0.01j, 0, 0],
        [0.01j, 0.31, 0.33 + 0.01j, 0],
        [0, 0.33 - 0.01j, 0.36, -0.01j],
        [0, 0, 0.01j, 0],
    ],
    dtype=complex,
)

# three-qubit state from the 17-setting full tomography (noisy, rank-deficient
# as printed; informational reference only)
REF_RHO_FULL = np.array(
    [
        [0, -0.02 + 0.01j, 0.01j, 0, 0.015j, 0, 0, 0],
        [-0.02 - 0.01j, 0.031, 0.27 + 0.01j, -0.02j, 0.20 - 0.02j, 0.05j, 0.01 + 0.01j, 0.01 + 0.03j],
        [-0.01j, 0.27 - 0.01j, 0.33, -0.02 - 0.01j, 0.25 + 0.02j, 0.01 + 0.01j, 0.01j, 0.01 + 0.03j],
        [-0.01j, 0.02j, -0.02 + 0.01j, 0.01, -0.02, 0, 0.01, 0],
        [-0.01j, 0.20 + 0.02j, 0.25 - 0.02j, -0.02, 0.29, -0.02, 0.01j, 0.01 + 0.02j],
        [0, -0.05j, 0.01 - 0.01j, 0, -0.02, 0.02, 0, 0],
        [0, 0.01 - 0.01j, -0.01j, 0.01, -0.01j, 0, 0.01, 0],
        [0, 0.01 - 0.03j, 0.01 - 0.03j, 0, 0.01 - 0.02j, 0, 0, 0],
    ],
    dtype=complex,
)

# three-qubit pure state reconstructed from the two-qubit marginals
REF_RHO_PARTS = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0.31, 0.34 - 0.01j, 0, 0.31 - 0.04j, 0, 0, -0.01j],
        [0, 0.34 + 0.01j, 0.36, 0.01j, 0.34 - 0.03j, 0.01j, 0, -0.01j],
        [0, 0, -0.01j, 0, 0, 0, 0, 0],
        [0, 0.31 + 0.04j, 0.34 + 0.03j, 0, 0.32, 0, 0, -0.01j],
        [0, 0, -0.01j, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0.01j, 0.01j, 0, 0.01 + 0.01j, 0, 0, 0],
    ],
    dtype=complex,
)

ENTRYWISE_TOL = 0.02  # published precision
FIDELITY_PARTS_EXPECTED = 0.995
FIDELITY_PARTS_TOL = 0.01


def experimental_marginals() -> MarginalPair:
    """The two-qubit fixtures, harmonized to the three-qubit convention, with
    tolerance ``wholeparts.EPS_B``; the pair divides out their printed trace (0.98)."""
    return MarginalPair(_RHO_AB_PUBLISHED.T, _RHO_BC_PUBLISHED.T, EPS_B)
