"""Readout-noise simulation: exact outcome probabilities, per-qubit
confusion and finite-shot sampling.

All sampling uses numpy's PCG64 generator; a fixed seed gives a bit-for-bit
reproducible stream. In a simulated run trial t draws from one stream,
``default_rng([seed, t])``: every circuit of the trial in one multinomial
call over the (37, 8) table ``pipeline._noisy_probs`` builds once per noise
model, one right-aligned row per circuit, whose leading zeros draw nothing
(``sample_counts``). So no two trials share a stream, and ``RNG_ALGORITHM``
names this keying rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import MeasurementSetting
from .linalg import kron_qubits

RNG_ALGORITHM = (
    "numpy PCG64 (default_rng), one stream per trial keyed [seed, trial], "
    "circuits drawn in row order"
)
MAX_SHOTS = 2**63 - 1  # numpy's multinomial takes shots as an int64

# ibm_osaka readout calibration for the qubit triple (q97, q98, q99) = (A, B, C)
IBM_OSAKA_READOUT = (
    ("q97", 0.023, 0.008),
    ("q98", 0.004, 0.009),
    ("q99", 0.030, 0.034),
)


@dataclass(frozen=True)
class QubitReadout:
    """Per-qubit confusion: p01 = P(read 0 | prepared 1), p10 = P(read 1 | 0)."""

    p01: float
    p10: float

    def __post_init__(self):
        real = (int, float, np.integer, np.floating)  # bool is an int subclass
        for name in ("p01", "p10"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, real):
                raise TypeError(f"{name} must be a real number, got {value!r}")

    def calibration_matrix(self) -> np.ndarray:
        """Column-stochastic 2x2 matrix [[p(0|0), p(0|1)], [p(1|0), p(1|1)]]."""
        return np.array([[1 - self.p10, self.p01], [self.p10, 1 - self.p01]])


@dataclass(frozen=True)
class ReadoutModel:
    """Independent per-qubit readout confusion for a register, ordered A, B, C."""

    qubits: tuple[QubitReadout, ...]

    def __post_init__(self):
        # a list would be accepted here, then fail to hash in a run
        if not (isinstance(self.qubits, tuple)
                and all(isinstance(q, QubitReadout) for q in self.qubits)):
            raise TypeError(f"qubits must be a tuple of QubitReadout, got {self.qubits!r}")
        for q in self.qubits:
            if not (0 <= q.p01 <= 1 and 0 <= q.p10 <= 1):
                raise ValueError(f"confusion probabilities out of range: {q}")

    @classmethod
    def ibm_osaka(cls) -> "ReadoutModel":
        return cls(tuple(QubitReadout(p01, p10) for _, p01, p10 in IBM_OSAKA_READOUT))

    def subset(self, qubits: list[int] | tuple[int, ...]) -> "ReadoutModel":
        return ReadoutModel(tuple(self.qubits[q] for q in qubits))

    def confusion_matrix(self) -> np.ndarray:
        """Tensor product of per-qubit calibration matrices."""
        fs = np.array([q.calibration_matrix() for q in self.qubits]).reshape(-1, 2, 2)
        return kron_qubits(fs)


def exact_probs(rho: np.ndarray, s: MeasurementSetting) -> np.ndarray:
    """Outcome probabilities p[m] = <m| U rho U† |m> for a setting."""
    u = s.unitary()
    if u.shape[0] != rho.shape[0]:
        raise ValueError(
            f"setting acts on {u.shape[0]}-dim space, state is {rho.shape[0]}-dim"
        )
    p = np.real(np.einsum("ij,jk,ik->i", u, rho, u.conj()))
    return np.clip(p, 0.0, None)


def apply_readout_noise(p: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Forward confusion: p' = (F_A ⊗ F_B ⊗ ...) p, for p (..., d) row by row."""
    if 2 ** len(model.qubits) != np.shape(p)[-1]:
        raise ValueError("readout model does not cover all measured qubits")
    return (model.confusion_matrix() @ np.asarray(p)[..., None])[..., 0]


def outcome_distribution(p: np.ndarray) -> np.ndarray:
    """The distribution the sampler draws from: p validated, clipped at zero
    and renormalized (each row of a stack separately)."""
    p = np.asarray(p, dtype=float)
    if (not np.isfinite(p).all() or p.min() < -1e-9
            or (np.abs(p.sum(axis=-1) - 1.0) > 1e-9).any()):
        raise ValueError("invalid outcome distribution")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def sample_counts(dist: np.ndarray, shots: int, seed: int, trials: int) -> np.ndarray:
    """(trials, R, d) counts of the (R, d) distribution dist. Trial t draws every
    row in one multinomial call from its own stream ``default_rng([seed, t])``, so
    its counts do not depend on the other trials. numpy rejects a negative seed
    (``ValueError: expected non-negative integer``).

    numpy draws a row as a chain of binomials, and a binomial with p == 0
    returns 0 without drawing while the remaining mass stays exactly 1.0. So
    zeros that lead a row draw nothing: a row right-aligned in a wider table
    gets the counts a call over its own outcomes gives."""
    counts = np.empty((trials, *dist.shape), dtype=np.int64)
    for t in range(trials):
        counts[t] = np.random.default_rng([seed, t]).multinomial(shots, dist)
    return counts


def counts_to_probs(counts: np.ndarray) -> np.ndarray:
    """Outcome frequencies of a counts table (each row of a stack separately)."""
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum(axis=-1, keepdims=True)

