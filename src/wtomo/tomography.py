"""Density-matrix reconstruction from per-setting probability tables.

``SCHEMES`` holds the paper's two schemes by qubit count, and
``tomography_scheme(n)`` derives the one for n qubits. A scheme's data is one
array p (..., L, d) of outcome tables, row i for setting i in
``scheme.settings`` order (L = 17 settings of d = 8 outcomes for three qubits,
7 of 4 for two); labels name the rows only in files (``io``). Each scheme is
derived once into one real array, ``reconstruction``, which maps the
flattened tables p to the d² real parameters x of the density matrix. Its
weights are not hardcoded: row k is the exact linear inversion of the
measurement rows (p = M x, built only during the derivation) of the
settings assigned to parameter k. This makes every sign a derivation
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

from .circuits import MeasurementSetting

RULE_RESIDUAL_TOL = 1e-10

# qubit count -> (name, setting labels in scheme order, the all-Z setting
# first, and the assignment: bit-flip mask (row XOR col) -> labels of the
# settings assigned to the element's (re, im))
SCHEMES = {
    3: ("ThreeQubit17", (
        "ZZZ",
        "XZZ", "ZXZ", "ZZX",
        "YZZ", "ZYZ", "ZZY",
        "CXZZ_AB", "CZXZ_BC", "CZZX_AC",
        "CYZZ_AB", "CZYZ_BC", "CZZY_AC",
        "CXXZ_BC", "CYYZ_BC", "CXYZ_BC", "CYXZ_BC",
    ), {
        0b100: (("XZZ",), ("YZZ",)),
        0b010: (("ZXZ",), ("ZYZ",)),
        0b001: (("ZZX",), ("ZZY",)),
        0b110: (("CXZZ_AB",), ("CYZZ_AB",)),
        0b011: (("CZXZ_BC",), ("CZYZ_BC",)),
        0b101: (("CZZX_AC",), ("CZZY_AC",)),
        0b111: (("CXXZ_BC", "CYYZ_BC"), ("CXYZ_BC", "CYXZ_BC")),
    }),
    2: ("TwoQubit7", ("ZZ", "XZ", "ZX", "ZY", "YZ", "CXZ_AB", "CYZ_AB"), {
        0b10: (("XZ",), ("YZ",)),
        0b01: (("ZX",), ("ZY",)),
        0b11: (("CXZ_AB",), ("CYZ_AB",)),
    }),
}


@dataclass(frozen=True, eq=False)
class TomographyScheme:
    """A scheme's settings and its one derived linear map (read-only)."""

    name: str
    settings: tuple[MeasurementSetting, ...]
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
    """Derive a scheme's reconstruction map; raises if any parameter is not determined."""
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
    reconstruction.setflags(write=False)
    return TomographyScheme(name, settings, reconstruction)


@lru_cache(maxsize=None)
def tomography_scheme(nqubits: int) -> TomographyScheme:
    """The scheme of ``SCHEMES`` for nqubits qubits, derived on first use."""
    if nqubits not in SCHEMES:
        raise ValueError(f"tomography schemes are for 2 or 3 qubits, not {nqubits!r}")
    name, labels, assignment = SCHEMES[nqubits]
    settings = tuple(MeasurementSetting.from_label(label, nqubits) for label in labels)
    return derive_scheme(name, settings, assignment)


def _assemble(x: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix (or stack of them) from the real parameters on the last axis."""
    rho = np.zeros((*x.shape[:-1], dim, dim), dtype=complex)
    rho[..., range(dim), range(dim)] = x[..., :dim]
    rows, cols = np.triu_indices(dim, 1)
    upper = x[..., dim::2] + 1j * x[..., dim + 1::2]
    rho[..., rows, cols] = upper
    rho[..., cols, rows] = upper.conj()
    return rho


def reconstruct(scheme: TomographyScheme, p: np.ndarray) -> np.ndarray:
    """Linear-inversion estimate from the tables p (..., L, d) in setting order:
    Hermitian, unit trace on normalized tables, and possibly with negative
    eigenvalues before spectral correction; a stack gives a stack (..., d, d)."""
    dim = 2**scheme.nqubits
    if np.shape(p)[-2:] != (len(scheme.settings), dim):
        raise ValueError(f"{scheme.name} takes tables (..., {len(scheme.settings)}, {dim}) "
                         f"in setting order, got shape {np.shape(p)}")
    x = scheme.reconstruction @ np.reshape(p, (*np.shape(p)[:-2], -1, 1))
    return _assemble(x[..., 0], dim)

