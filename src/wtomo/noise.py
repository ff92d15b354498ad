"""Readout-noise simulation: exact outcome probabilities, per-qubit
confusion, finite-shot sampling, and simulated calibration runs.

All sampling uses numpy's PCG64 generator (``np.random.default_rng``); a
fixed seed gives a bit-for-bit reproducible stream. In a simulated run every
sampled circuit draws from its own stream, keyed [seed, trial, stream], so
no two circuits of any trials share a stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import MeasurementSetting, QUBIT_NAMES
from .linalg import kron

RNG_ALGORITHM = "numpy PCG64 (default_rng), stream key [seed, trial, stream]"

# Stream ids within a trial: the 17 three-qubit settings are 0-16, the AB
# and BC two-qubit settings 17-23 and 24-30, the 6 calibration circuits 31-36.
STREAM_AB, STREAM_BC, STREAM_CALIBRATION = 17, 24, 31

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
    def noiseless(cls, nqubits: int) -> "ReadoutModel":
        return cls(tuple(QubitReadout(0.0, 0.0) for _ in range(nqubits)))

    @classmethod
    def ibm_osaka(cls) -> "ReadoutModel":
        return cls(tuple(QubitReadout(p01, p10) for _, p01, p10 in IBM_OSAKA_READOUT))

    def subset(self, qubits: list[int] | tuple[int, ...]) -> "ReadoutModel":
        return ReadoutModel(tuple(self.qubits[q] for q in qubits))

    def confusion_matrix(self) -> np.ndarray:
        """Tensor product of per-qubit calibration matrices."""
        f = np.eye(1)
        for q in self.qubits:
            f = kron(f, q.calibration_matrix())
        return f

    def to_json_dict(self) -> dict:
        return {
            f"q{QUBIT_NAMES[i]}": {"p01": q.p01, "p10": q.p10}
            for i, q in enumerate(self.qubits)
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReadoutModel":
        return cls(tuple(QubitReadout(v["p01"], v["p10"]) for v in d.values()))


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


def sample_shots(p: np.ndarray, shots: int, seed: int | list[int]) -> np.ndarray:
    """Multinomial counts over outcomes; deterministic for a given seed or key."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return np.random.default_rng(seed).multinomial(shots, outcome_distribution(p))


def sample_circuits(
    dists: np.ndarray, shots: int, key: tuple[int, ...], first_stream: int
) -> np.ndarray:
    """Counts of one circuit per row of dists (from outcome_distribution).

    Row j draws from the stream [*key, first_stream + j].
    """
    return np.stack([
        np.random.default_rng([*key, first_stream + j]).multinomial(shots, p)
        for j, p in enumerate(dists)
    ])


def counts_to_probs(counts: np.ndarray) -> np.ndarray:
    """Outcome frequencies of a counts table (each row of a stack separately)."""
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum(axis=-1, keepdims=True)


@lru_cache(maxsize=None)
def _calibration_dists(model: ReadoutModel) -> np.ndarray:
    """Outcome distributions of the calibration circuits, in stream order."""
    dists = outcome_distribution(
        [d for q in model.qubits for d in ([1 - q.p10, q.p10], [q.p01, 1 - q.p01])]
    )
    dists.setflags(write=False)
    return dists


def simulate_calibration(
    model: ReadoutModel, shots: int, key: tuple[int, ...]
) -> list[np.ndarray]:
    """Empirical calibration matrices from simulated |0>/|1> preparation runs.

    Two circuits per qubit (6 for three qubits); columns are exact count
    fractions, so each estimated matrix is column-stochastic by construction.
    Circuit j (qubit j // 2 prepared in |j % 2>) draws from the stream
    [*key, STREAM_CALIBRATION + j].
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    counts = sample_circuits(_calibration_dists(model), shots, key, STREAM_CALIBRATION)
    # counts[2 qi + prep] is column prep of qubit qi's matrix
    return list(counts.reshape(-1, 2, 2).transpose(0, 2, 1) / shots)


def counts_file_dict(
    counts: dict[str, np.ndarray],
    shots: int,
    seed: int | list[int],
    model: ReadoutModel | None,
    nqubits: int,
) -> dict:
    """Counts-file JSON object: {label -> {bitstring -> count}, shots, seed, noise}.

    seed is the seed or key prefix the counts were drawn from; the pipeline
    writes its trial key [seed, trial].
    """
    obj: dict = {}
    for label, c in counts.items():
        obj[label] = {
            format(m, f"0{nqubits}b"): int(c[m]) for m in range(len(c)) if c[m]
        }
    obj["shots"] = int(shots)
    obj["seed"] = np.asarray(seed).tolist()
    obj["noise"] = model.to_json_dict() if model is not None else None
    return obj


def load_counts_file(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a counts JSON file; returns (label -> counts array, metadata)."""
    with open(path) as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        raise ValueError("a counts file holds a JSON object of tables")
    meta = {k: obj.pop(k, None) for k in ("shots", "seed", "noise")}
    counts = {}
    for label, table in obj.items():
        if not isinstance(table, dict) or not table:
            raise ValueError(f"table {label!r} is not a non-empty object of counts")
        lengths = sorted({len(bits) for bits in table})
        if len(lengths) > 1:
            raise ValueError(f"table {label!r} mixes bitstrings of lengths {lengths}")
        bad = [bits for bits in table if not bits or set(bits) - {"0", "1"}]
        if bad:
            raise ValueError(f"table {label!r} has key {bad[0]!r}, not a bitstring of 0s and 1s")
        nqubits = lengths[0]
        c = np.zeros(2**nqubits, dtype=int)
        for bits, v in table.items():
            c[int(bits, 2)] = v
        counts[label] = c
    return counts, meta
