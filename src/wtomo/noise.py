"""Readout-noise simulation: exact outcome probabilities, per-qubit
confusion and finite-shot sampling.

All sampling uses numpy's PCG64 generator; a fixed seed gives a bit-for-bit
reproducible stream. In a simulated run circuit j of trial t is row j of the
trial's zero-padded (37, 8) table (``pipeline.LAYOUT``) and draws from its own
stream, keyed [seed, t, j], over its own outcomes only (``sample_counts``), so
no two circuits share a stream. The stream is ``default_rng([seed, t, j])``
and ``RNG_ALGORITHM`` names it unchanged; ``sample_counts`` only splits the
seeding into its two steps. numpy's ``SeedSequence`` mixes each key into its
4-word pool, and one batched step (``_pcg64_states``) hashes every pool of the
batch into the four uint64 words that seed PCG64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def _state_hash_constants() -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) uint32 constant of each of the 8 output words of
    ``SeedSequence.generate_state``: its hash constant starts at INIT_B and is
    multiplied by MULT_B before each word."""
    h, xor, mult = 0x8B51F9DD, [], []
    for _ in range(8):
        xor.append(h)
        h = h * 0x58F38DED & 0xFFFFFFFF
        mult.append(h)
    return np.array(xor, dtype=np.uint32), np.array(mult, dtype=np.uint32)


_STATE_XOR, _STATE_MULT = _state_hash_constants()


def _pcg64_states(pools: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of every 4-word uint32
    pool of a stack (..., 4), as uint64 (..., 4): word i hashes pool word
    i % 4 in uint32 wrap-around arithmetic, and words 2k and 2k + 1 are the
    low and high halves of uint64 k (numpy pairs them little-endian). The
    result is C-contiguous, so each (4,) row is a block PCG64 can read."""
    w = np.concatenate((pools, pools), axis=-1) ^ _STATE_XOR
    w *= _STATE_MULT
    w ^= w >> 16
    w = w.astype(np.uint64)
    return np.ascontiguousarray(w[..., 0::2] | (w[..., 1::2] << 32))


class _KnownState(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed: it gives
    them for PCG64's one request and refuses any other. PCG64 reads the
    words as raw memory, so state must be a C-contiguous (4,) uint64 array,
    as each row of ``_pcg64_states`` is."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only PCG64's 4 uint64 state words are known, not {n_words} {dtype}")
        return self.state


def sample_counts(
    dist: np.ndarray, widths: list[int], shots: int, seed: int, trials: list[int]
) -> np.ndarray:
    """Counts (T, R, D) of the trials' circuits, one per row of dist (R, D):
    circuit j of trial t draws shots from the stream [seed, t, j] over the first
    widths[j] outcomes of dist[j] only, so the zero padding past them stays 0.

    Each trial's R keys are one uint32 table whose row j holds the words of
    seed, t and j in that order, the entropy numpy makes of the list
    [seed, t, j]. numpy's ``SeedSequence`` mixes each row into its pool; one
    ``_pcg64_states`` step over the (T, R, 4) pool table gives every
    circuit's PCG64 state, so circuit j draws from ``default_rng([seed, t, j])``
    bit for bit."""
    rows = [dist[j, :w] for j, w in enumerate(widths)]
    seed_words = _words(seed)
    pools = np.empty((len(trials), len(rows), 4), dtype=np.uint32)
    for pool, t in zip(pools, trials):
        head = seed_words + _words(t)
        keys = np.empty((len(rows), len(head) + 1), dtype=np.uint32)
        keys[:, :-1] = head
        keys[:, -1] = np.arange(len(rows))
        for out, key in zip(pool, keys):
            out[:] = np.random.SeedSequence(key).pool
    states = _pcg64_states(pools)
    counts = np.zeros((len(trials), *dist.shape), dtype=np.int64)
    for c, trial_states in zip(counts, states):
        for out, state, row in zip(c, trial_states, rows):
            rng = np.random.Generator(np.random.PCG64(_KnownState(state)))
            out[: row.size] = rng.multinomial(shots, row)
    return counts


def counts_to_probs(counts: np.ndarray) -> np.ndarray:
    """Outcome frequencies of a counts table (each row of a stack separately)."""
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum(axis=-1, keepdims=True)

