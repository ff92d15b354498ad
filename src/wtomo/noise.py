"""Readout-noise simulation: exact outcome probabilities, per-qubit
confusion and finite-shot sampling.

All sampling uses numpy's PCG64 generator (``np.random.default_rng``); a
fixed seed gives a bit-for-bit reproducible stream. In a simulated run
circuit j of trial t is row j of the trial's zero-padded (37, 8) table
(``pipeline.LAYOUT``) and draws from its own stream, keyed [seed, t, j], over
its own outcomes only (``sample_counts``), so no two circuits share a stream.
The key reaches ``SeedSequence`` as the uint32 words that numpy makes of the
list [seed, t, j] (each int's 32-bit words, least significant first), so it
is the same stream as ``default_rng([seed, t, j])`` without the per-int
coercion, and ``RNG_ALGORITHM`` names it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import MeasurementSetting

RNG_ALGORITHM = "numpy PCG64 (default_rng), stream key [seed, trial, stream]"
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

    def calibration_matrix(self) -> np.ndarray:
        """Column-stochastic 2x2 matrix [[p(0|0), p(0|1)], [p(1|0), p(1|1)]]."""
        return np.array([[1 - self.p10, self.p01], [self.p10, 1 - self.p01]])


@dataclass(frozen=True)
class ReadoutModel:
    """Independent per-qubit readout confusion for a register, ordered A, B, C."""

    qubits: tuple[QubitReadout, ...]

    def __post_init__(self):
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
        f = np.eye(1)
        for q in self.qubits:
            f = np.kron(f, q.calibration_matrix())
        return f


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
    """Forward confusion: p' = (F_A ⊗ F_B ⊗ ...) p."""
    if 2 ** len(model.qubits) != len(p):
        raise ValueError("readout model does not cover all measured qubits")
    return model.confusion_matrix() @ p


def outcome_distribution(p: np.ndarray) -> np.ndarray:
    """The distribution the sampler draws from: p validated, clipped at zero
    and renormalized (each row of a stack separately)."""
    p = np.asarray(p, dtype=float)
    if p.min() < -1e-9 or (np.abs(p.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("invalid outcome distribution")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _words(n: int) -> list[int]:
    """The 32-bit words of n >= 0, least significant first and at least one:
    what ``SeedSequence`` makes of an int in its entropy."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def sample_counts(
    dist: np.ndarray, widths: list[int], shots: int, seed: int, trials: list[int]
) -> np.ndarray:
    """Counts (T, R, D) of the trials' circuits, one per row of dist (R, D):
    circuit j of trial t draws shots from the stream [seed, t, j] over the first
    widths[j] outcomes of dist[j] only, so the zero padding past them stays 0.

    Each trial's R keys are one uint32 table whose row j holds the words of
    seed, t and j in that order; ``default_rng`` takes a row as its entropy
    as it is, which gives the stream of the list [seed, t, j] bit for bit."""
    rows = [dist[j, :w] for j, w in enumerate(widths)]
    seed_words = _words(seed)
    counts = np.zeros((len(trials), *dist.shape), dtype=np.int64)
    for c, t in zip(counts, trials):
        head = seed_words + _words(t)
        keys = np.empty((len(rows), len(head) + 1), dtype=np.uint32)
        keys[:, :-1] = head
        keys[:, -1] = np.arange(len(rows))
        for out, key, row in zip(c, keys, rows):
            out[: row.size] = np.random.default_rng(key).multinomial(shots, row)
    return counts


def counts_to_probs(counts: np.ndarray) -> np.ndarray:
    """Outcome frequencies of a counts table (each row of a stack separately)."""
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum(axis=-1, keepdims=True)

