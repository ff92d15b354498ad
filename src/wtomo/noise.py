"""Readout-noise simulation: exact outcome probabilities, per-qubit
confusion and finite-shot sampling.

All sampling uses numpy's PCG64 generator; a fixed seed gives a bit-for-bit
reproducible stream. In a simulated run circuit j of trial t is row j of the
trial's zero-padded (37, 8) table (``pipeline.LAYOUT``) and draws from its own
stream, keyed [seed, t, j], over its own outcomes only (``sample_counts``), so
no two circuits share a stream. The stream is ``default_rng([seed, t, j])``
and ``RNG_ALGORITHM`` names it unchanged; ``sample_counts`` only computes
numpy's seeding for the whole batch at once. One numpy step (``_seed_pools``)
mixes every key into its 4-word pool as ``SeedSequence`` does, and one more
(``_pcg64_states``) hashes every pool into the four uint64 words that seed
PCG64.
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
    if (not np.isfinite(p).all() or p.min() < -1e-9
            or (np.abs(p.sum(axis=-1) - 1.0) > 1e-9).any()):
        raise ValueError("invalid outcome distribution")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _words(n: int) -> list[int]:
    """The 32-bit words of n >= 0, least significant first and at least one:
    what ``SeedSequence`` makes of an int in its entropy. Like
    ``SeedSequence``, it rejects a negative n."""
    if n < 0:
        raise ValueError(f"stream key words need an integer >= 0, not {n}")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) uint32 constants of n successive hashes of
    ``SeedSequence``: its hash constant starts at init, is the xor constant
    of a hash, and is multiplied by mult to give that hash's multiplier,
    which is also the next hash's xor constant."""
    h, xor, out = init, [], []
    for _ in range(n):
        xor.append(h)
        h = h * mult & 0xFFFFFFFF
        out.append(h)
    return np.array(xor, dtype=np.uint32), np.array(out, dtype=np.uint32)


# generate_state's 8 output words: INIT_B, MULT_B
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` of uint32 words, one hash constant step each."""
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of uint32 pool words x with hashed words y."""
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> 16
    return r


def _seed_pools(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).pool`` of every uint32 key of a table (..., K), as
    uint32 (..., 4): numpy's ``mix_entropy`` in uint32 wrap-around arithmetic.
    The first 4 words (zeros past K) are hashed into the pool, each pool word
    is mixed with the hash of every other, then each word past the fourth
    with every pool word. Its hash constant (INIT_A, MULT_A) steps once per
    hash whatever the data, so the 4 * max(K, 4) constants are computed
    once per table."""
    k = keys.shape[-1]
    xor, mult = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * max(k, 4))
    head = np.zeros((*keys.shape[:-1], 4), dtype=np.uint32)
    head[..., : min(k, 4)] = keys[..., :4]
    pool = _hashmix(head, xor[:4], mult[:4])
    c = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[..., src, None], xor[c : c + 3], mult[c : c + 3])
        pool[..., dst] = _mix(pool[..., dst], h)
        c += 3
    for src in range(4, k):
        pool = _mix(pool, _hashmix(keys[..., src, None], xor[c : c + 4], mult[c : c + 4]))
        c += 4
    return pool


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

    Circuit j's key is the uint32 row holding the words of seed, t and j in
    that order, the entropy numpy makes of the list [seed, t, j]. One
    ``_seed_pools`` step mixes the key table of every trial whose t has the
    same number of words (a zero word cannot pad a key without changing its
    stream), as ``SeedSequence`` does; one ``_pcg64_states`` step over the
    (T, R, 4) pool table gives every circuit's PCG64 state, so circuit j
    draws from ``default_rng([seed, t, j])`` bit for bit."""
    rows = [dist[j, :w] for j, w in enumerate(widths)]
    seed_words = _words(seed)
    trial_words = [_words(t) for t in trials]
    pools = np.empty((len(trials), len(rows), 4), dtype=np.uint32)
    for n in {len(w) for w in trial_words}:
        group = [i for i, w in enumerate(trial_words) if len(w) == n]
        keys = np.empty((len(group), len(rows), len(seed_words) + n + 1), dtype=np.uint32)
        keys[..., : len(seed_words)] = seed_words
        t_words = np.array([trial_words[i] for i in group], dtype=np.uint32)
        keys[..., len(seed_words) : -1] = t_words[:, None]
        keys[..., -1] = np.arange(len(rows))
        pools[group] = _seed_pools(keys)
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

