"""Gate matrices, W-state preparation, and measurement-setting unitaries.

Measurement settings follow the label grammar ``<g><g><g>[_<pair>]`` with a
leading ``C`` when a CNOT precedes the local basis changes: g is Z (no gate),
X (Hadamard) or Y (R_x(pi/2)), and pair is the CNOT qubit pair, e.g.
``CXZZ_AB`` = (H ⊗ I ⊗ I) · CNOT_AB. The CNOT control is the pair qubit that
carries the non-Z gate; with the control elsewhere the setting's outcome
statistics contain no coherence between the pair and cannot determine the
matrix elements assigned to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import kron_qubits

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def rx(theta: float) -> np.ndarray:
    """R_x(theta) = cos(theta/2) I - i sin(theta/2) X."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


# basis-change gates applied before a computational-basis measurement
BASIS_CHANGE = {"Z": I2, "X": H, "Y": rx(np.pi / 2)}

QUBIT_NAMES = "ABC"


def lift(u: np.ndarray, qubit: int, nqubits: int) -> np.ndarray:
    """Embed a single-qubit gate into the full register (qubit 0 = MSB)."""
    if not 0 <= qubit < nqubits:
        raise ValueError(f"qubit {qubit} out of range for {nqubits} qubits")
    return kron_qubits(np.array([u if q == qubit else I2 for q in range(nqubits)]))


def cnot_matrix(control: int, target: int, nqubits: int) -> np.ndarray:
    """CNOT on an n-qubit register: the basis permutation that flips the
    target bit of each basis index whose control bit is 1."""
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < nqubits:
            raise ValueError(f"qubit {q} out of range for {nqubits} qubits")
    idx = np.arange(2**nqubits)
    flip = (idx >> (nqubits - 1 - control)) & 1
    return np.eye(2**nqubits, dtype=complex)[idx ^ (flip << (nqubits - 1 - target))]


@dataclass(frozen=True)
class MeasurementSetting:
    """A pre-measurement unitary recipe: optional CNOT, then local rotations."""

    label: str
    nqubits: int
    basis: str  # one char in {Z, X, Y} per qubit
    cnot: tuple[int, int] | None = None  # (control, target)

    @classmethod
    def from_label(cls, label: str, nqubits: int) -> "MeasurementSetting":
        if label.startswith("C"):
            body, _, pair = label[1:].partition("_")
            if len(pair) != 2 or len(body) != nqubits:
                raise ValueError(f"malformed setting label {label!r}")
            pair_idx = tuple(QUBIT_NAMES.index(p) for p in pair)
            hot = [q for q in pair_idx if body[q] != "Z"]
            control = hot[0] if hot else pair_idx[0]
            target = pair_idx[1] if control == pair_idx[0] else pair_idx[0]
            return cls(label=label, nqubits=nqubits, basis=body, cnot=(control, target))
        if len(label) != nqubits or any(c not in "ZXY" for c in label):
            raise ValueError(f"malformed setting label {label!r}")
        return cls(label=label, nqubits=nqubits, basis=label, cnot=None)

    def unitary(self) -> np.ndarray:
        local = kron_qubits(np.array([BASIS_CHANGE[c] for c in self.basis]))
        if self.cnot is None:
            return local
        return local @ cnot_matrix(*self.cnot, self.nqubits)


def w_vector() -> np.ndarray:
    """Closed-form W state: amplitude 1/sqrt(3) at |100>, |010>, |001>."""
    v = np.zeros(8, dtype=complex)
    v[[1, 2, 4]] = 1 / np.sqrt(3)
    return v


def w_preparation_circuit() -> list[np.ndarray]:
    """Exact W-state preparation from |000> with {X, RY, CNOT} gates: the
    nine 8x8 gate unitaries in application order (first gate acts first).

    The controlled-RY(pi/2) on B (control A = 0) is realized as
    RY(pi/4)·CNOT·RY(-pi/4)·CNOT inside an X-sandwich on A.
    """
    theta1 = 2 * np.arcsin(1 / np.sqrt(3))
    return [
        lift(ry(theta1), 0, 3),         # sqrt(2/3)|000> + sqrt(1/3)|100>
        lift(X, 0, 3),
        cnot_matrix(0, 2, 3),           # A=0 branch -> |001>
        cnot_matrix(0, 1, 3),           # start anti-controlled RY(pi/2) on B
        lift(ry(-np.pi / 4), 1, 3),
        cnot_matrix(0, 1, 3),
        lift(ry(np.pi / 4), 1, 3),
        lift(X, 0, 3),
        cnot_matrix(1, 2, 3),           # |011> -> |010>
    ]


def prepare_w() -> np.ndarray:
    """Run the preparation circuit on |000> and validate the closed form."""
    u = np.eye(8, dtype=complex)
    for gate in w_preparation_circuit():
        u = gate @ u
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1
    psi = u @ psi
    overlap = abs(np.vdot(w_vector(), psi))
    if abs(overlap - 1.0) > 1e-12:
        raise RuntimeError(f"W preparation circuit failed validation: |overlap| = {overlap}")
    return psi
