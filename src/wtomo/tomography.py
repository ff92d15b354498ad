"""Density-matrix reconstruction from per-setting probability tables.

Each scheme (L = 17 settings for three qubits, 7 for two) is derived once
into two real arrays over the d² real parameters x of the density matrix:
``measurement`` maps x to the L stacked outcome tables p, and
``reconstruction`` maps p back to x. The reconstruction weights are not
hardcoded: row k is the exact linear inversion of the measurement rows of
the settings assigned to parameter k. This makes every sign a derivation
output, pinned by the round-trip property reconstruct(exact_probs(rho)) == rho.

Diagonal elements come from the all-Z setting alone; each off-diagonal
element is assigned to the setting whose basis change exposes it (one
setting per element except the three-qubit anti-diagonal elements, which
need a pair of settings).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import (
    MeasurementSetting,
    three_qubit_settings,
    two_qubit_settings,
)

RULE_RESIDUAL_TOL = 1e-10

# bit-flip mask (row XOR col) -> labels of the assigned settings, (re, im)
_ASSIGN_3Q = {
    0b100: (("XZZ",), ("YZZ",)),
    0b010: (("ZXZ",), ("ZYZ",)),
    0b001: (("ZZX",), ("ZZY",)),
    0b110: (("CXZZ_AB",), ("CYZZ_AB",)),
    0b011: (("CZXZ_BC",), ("CZYZ_BC",)),
    0b101: (("CZZX_AC",), ("CZZY_AC",)),
    0b111: (("CXXZ_BC", "CYYZ_BC"), ("CXYZ_BC", "CYXZ_BC")),
}

_ASSIGN_2Q = {
    0b10: (("XZ",), ("YZ",)),
    0b01: (("ZX",), ("ZY",)),
    0b11: (("CXZ_AB",), ("CYZ_AB",)),
}


@dataclass(frozen=True, eq=False)
class TomographyScheme:
    """A scheme's settings and its two derived linear maps (read-only)."""

    name: str
    settings: tuple[MeasurementSetting, ...]
    measurement: np.ndarray  # (L·d, d²): p = measurement @ x
    reconstruction: np.ndarray  # (d², L·d): x = reconstruction @ p

    @property
    def nqubits(self) -> int:
        return self.settings[0].nqubits

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.settings)


def real_parameters(dim: int) -> list[tuple[str, int, int]]:
    """(part, row, col) of each real parameter, in the order of the scheme arrays.

    part is 'diag', 're' or 'im'.
    """
    params = [("diag", r, r) for r in range(dim)]
    for r, c in zip(*np.triu_indices(dim, 1)):
        params += [("re", int(r), int(c)), ("im", int(r), int(c))]
    return params


def _measurement_rows(s: MeasurementSetting, params) -> np.ndarray:
    """Row m holds Tr[M_m B_k] for each parameter k, with M_m = U† |m><m| U."""
    u = s.unitary()
    ops = u.conj()[:, :, None] * u[:, None, :]  # ops[m] = M_m
    # B_k is |r><r|, |r><c| + |c><r| or i|r><c| - i|c><r|
    traces = {"diag": ops.real, "re": 2 * ops.real, "im": 2 * ops.imag}
    return np.stack([traces[part][:, r, c] for part, r, c in params], axis=1)


def derive_scheme(
    name: str,
    settings: tuple[MeasurementSetting, ...],
    assignment: dict[int, tuple[tuple[str, ...], tuple[str, ...]]],
) -> TomographyScheme:
    """Derive a scheme's arrays; raises if any parameter is not determined."""
    dim = 2 ** settings[0].nqubits
    params = real_parameters(dim)
    measurement = np.vstack([_measurement_rows(s, params) for s in settings])
    cond = np.linalg.cond(measurement)
    if cond > 1e8:
        raise RuntimeError(f"measurement map is numerically singular (cond {cond:.2e})")
    rows = {s.label: np.arange(i * dim, (i + 1) * dim) for i, s in enumerate(settings)}
    diag_label = settings[0].label  # all-Z setting is first by convention
    identity = np.eye(len(params))
    reconstruction = np.zeros(measurement.T.shape)
    for k, (part, r, c) in enumerate(params):
        labels = (diag_label,) if part == "diag" else assignment[r ^ c][part == "im"]
        cols = np.concatenate([rows[label] for label in labels])
        a = measurement[cols].T
        w, *_ = np.linalg.lstsq(a, identity[k], rcond=None)
        residual = np.linalg.norm(a @ w - identity[k])
        if residual > RULE_RESIDUAL_TOL:
            raise RuntimeError(
                f"settings {labels} cannot determine {part} rho[{r},{c}] "
                f"(inversion residual {residual:.2e})"
            )
        reconstruction[k, cols] = np.where(np.abs(w) > 1e-12, w, 0.0)
    measurement.setflags(write=False)
    reconstruction.setflags(write=False)
    return TomographyScheme(name, settings, measurement, reconstruction)


@lru_cache(maxsize=None)
def three_qubit_scheme() -> TomographyScheme:
    return derive_scheme("ThreeQubit17", three_qubit_settings(), _ASSIGN_3Q)


@lru_cache(maxsize=None)
def two_qubit_scheme() -> TomographyScheme:
    return derive_scheme("TwoQubit7", two_qubit_settings(), _ASSIGN_2Q)


def _stacked_tables(scheme: TomographyScheme, tables: dict[str, np.ndarray]) -> np.ndarray:
    dim = 2**scheme.nqubits
    for label in scheme.labels:
        if label not in tables:
            raise ValueError(f"missing probability table for setting {label}")
        if np.shape(tables[label])[-1:] != (dim,):
            raise ValueError(f"table for {label} has wrong length")
    return np.concatenate([tables[label] for label in scheme.labels], axis=-1)


def _assemble(x: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix (or stack of them) from the real parameters on the last axis."""
    rho = np.zeros((*x.shape[:-1], dim, dim), dtype=complex)
    rho[..., range(dim), range(dim)] = x[..., :dim]
    rows, cols = np.triu_indices(dim, 1)
    upper = x[..., dim::2] + 1j * x[..., dim + 1::2]
    rho[..., rows, cols] = upper
    rho[..., cols, rows] = upper.conj()
    return rho


def reconstruct(scheme: TomographyScheme, tables: dict[str, np.ndarray]) -> np.ndarray:
    """Linear-inversion estimate: Hermitian, unit trace on normalized tables.

    Each table may be a stack (..., d) of tables; the result is then a stack
    (..., d, d) of estimates. The output may have negative eigenvalues before
    spectral correction.
    """
    x = scheme.reconstruction @ _stacked_tables(scheme, tables)[..., None]
    return _assemble(x[..., 0], 2**scheme.nqubits)


def reconstruct_3q(tables: dict[str, np.ndarray]) -> np.ndarray:
    """Three-qubit reconstruction from the 17-setting tables."""
    return reconstruct(three_qubit_scheme(), tables)


def reconstruct_2q(tables: dict[str, np.ndarray]) -> np.ndarray:
    """Two-qubit reconstruction from the 7-setting tables."""
    return reconstruct(two_qubit_scheme(), tables)


def lsq_reconstruct(
    scheme: TomographyScheme, tables: dict[str, np.ndarray]
) -> np.ndarray:
    """Least-squares fit of a Hermitian matrix to all tables.

    Minimizes the summed squared deviation between the tables and the
    predicted outcome probabilities over every setting of the scheme. Agrees
    with the closed-form reconstruction on exact data; on noisy data it
    spreads the residual across all settings instead. On normalized tables
    the fit has unit trace without a constraint, because each setting's
    outcome operators sum to the identity.
    """
    p = _stacked_tables(scheme, tables)
    x, *_ = np.linalg.lstsq(scheme.measurement, p, rcond=None)
    return _assemble(x, 2**scheme.nqubits)
