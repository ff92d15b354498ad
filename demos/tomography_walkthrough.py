"""Walk through three-qubit state tomography of the W state, step by step.

We prepare the W state with an explicit gate sequence, compute the exact
outcome distribution of every measurement setting, and rebuild the density
matrix from those distributions alone — then check that the round trip is
exact to machine precision.
"""

import numpy as np

from wtomo import (
    exact_probs,
    fidelity_pure,
    outer,
    prepare_w,
    reconstruct,
    tomography_scheme,
    w_vector,
)

# 1. Prepare the state. prepare_w() runs a concrete circuit (RY/X/CNOT
# gates); w_vector() is the closed form (|001> + |010> + |100>)/sqrt(3).
psi = prepare_w()
print("prepared amplitudes:")
for idx in range(8):
    if abs(psi[idx]) > 1e-9:
        print(f"  |{idx:03b}>  {psi[idx].real:+.6f}")
print(f"overlap with closed form: {abs(np.vdot(w_vector(), psi)):.12f}\n")

rho = outer(psi)

# 2. Measure. Each setting is a fixed unitary applied before a computational-
# basis readout; 17 settings suffice to expose every matrix element.
scheme = tomography_scheme(3)
settings = scheme.settings
print(f"{len(settings)} measurement settings: {', '.join(s.label for s in settings)}\n")

# The data of the scheme is one (17, 8) array: row i is the outcome table of
# setting i, in the order listed above (ZZZ first).
tables = np.array([exact_probs(rho, s) for s in settings])
print(f"probability tables: shape {tables.shape}, one row per setting")
print("all-Z outcome distribution (should be 1/3 on 001, 010, 100):")
print("  " + "  ".join(f"{p:.4f}" for p in tables[0]) + "\n")

# 3. Reconstruct. Every element of rho is a signed linear combination of
# outcome probabilities; with exact tables the round trip is exact.
rho_hat = reconstruct(scheme, tables)
print(f"round-trip max entry error: {np.abs(rho_hat - rho).max():.2e}")
print(f"fidelity vs W: {fidelity_pure(rho_hat):.12f}")  # against w_vector()
