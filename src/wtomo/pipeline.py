"""End-to-end simulated experiment: calibration, noisy measurement of every
setting, optional mitigation, reconstruction, and fidelity reporting.

Each trial mirrors one hardware run: 37 circuits in four groups (``LAYOUT``),
the 17 three-qubit settings, 7 two-qubit settings per marginal and 6
calibration circuits. ``_noisy_probs`` builds their (37, 8) table once per
noise model, each group's rows right-aligned; ``_groups`` gives each group's
view of any (..., 37, 8) block.

A run is draw, ``_estimate``, assemble; only the draw differs between exact and
sampled runs. An exact run gives every trial the table. A sampled run draws
trial t in one multinomial call from one stream keyed [seed, t]
(``noise.sample_counts``), so a fixed configuration reproduces byte-identical
reports and no two trials share a stream. ``_estimate`` runs every later stage
once on the (trial, 37, 8) block of frequencies, on stacks with leading axes
(pass, trial), pass 0 unmitigated and pass 1 mitigated; the two-qubit route
adds a pair axis, AB then BC, so (pass, trial, pair, 7, 4). A trial's result is
bitwise the same in a batch of any size. Errors are keyed (pass, trial): the
calibration check fails pass 1, a Diosi check (a ``ReconstructionError``) the
pass it flags. A failing trial gets the error of its first failing pass and
keeps the passes before it; any other error propagates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circuits import prepare_w
from .linalg import kron_qubits, outer, partial_trace
from .metrics import fidelity_pure
from .mitigation import _calibration_inverses, mitigate, spectral_correct
from .noise import (
    MAX_SHOTS,
    QubitReadout,
    ReadoutModel,
    apply_readout_noise,
    counts_to_probs,
    exact_probs,
    outcome_distribution,
    sample_counts,
)
from .tomography import reconstruct, tomography_scheme
from .wholeparts import EPS_B, MarginalPair, ReconstructionResult, _diosi_reconstruct


# A trial's circuit groups in the order they draw from its stream, as (outcomes
# per circuit, measured qubits): the 3q, AB and BC settings in setting order,
# then qubit A, B, C each prepared in |0> then |1> and read alone.
LAYOUT = ((8, (0, 1, 2)), (4, (0, 1)), (4, (1, 2)), (2, (0, 1, 2)))
_ROWS = (slice(0, 17), slice(17, 24), slice(24, 31), slice(31, 37))  # their rows of a block

# The routes a run can take: the 17-setting full scheme, the 7-setting marginals, or both.
RUN_SCHEMES = ("full3q", "parts2q", "both")


@dataclass(frozen=True)
class ExperimentConfig:
    shots: int = 20000
    trials: int = 5
    seed: int = 1234
    noise: ReadoutModel | None = field(default_factory=ReadoutModel.ibm_osaka)
    mitigate: bool = True
    exact: bool = False  # analytic probabilities, no sampling
    scheme: str = "both"  # one of RUN_SCHEMES

    def __post_init__(self):
        # a float, bool or string would run, then be written as given
        for name in ("shots", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # JSON writes no numpy integer
        for name in ("mitigate", "exact"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise TypeError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))  # JSON writes no numpy bool
        for name, low in (("shots", 1), ("trials", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.shots > MAX_SHOTS:
            raise ValueError(f"shots must be <= {MAX_SHOTS} (2**63 - 1), got {self.shots}")
        if self.scheme not in RUN_SCHEMES:
            raise ValueError(f"scheme must be one of {RUN_SCHEMES}, got {self.scheme!r}")
        if self.noise is not None and not isinstance(self.noise, ReadoutModel):
            raise TypeError(f"noise must be a ReadoutModel or None, got {self.noise!r}")
        if self.noise is not None and len(self.noise.qubits) != 3:
            raise ValueError(f"noise model covers {len(self.noise.qubits)} qubits, not 3")


class Fidelities(NamedTuple):
    """One pass's fidelities against W; NaN for a scheme the run skips."""

    f_full: float
    f_parts: float


@dataclass
class TrialResult:
    trial_id: int
    calibration: np.ndarray  # (3, 2, 2): one matrix per qubit
    reports: dict[bool, Fidelities] = field(default_factory=dict)  # key: mitigated
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    counts: np.ndarray | None = None  # (17, 8): the 3q counts in setting order
    parts: ReconstructionResult | None = None  # the written pass's Diosi result
    error: str | None = None


def _groups(block: np.ndarray) -> list[np.ndarray]:
    """The groups of LAYOUT in a (..., 37, 8) block, each a view over its own (last) columns."""
    return [block[..., rows, -width:] for rows, (width, _) in zip(_ROWS, LAYOUT, strict=True)]


@lru_cache(maxsize=None)
def _noisy_probs(model: ReadoutModel | None):
    """The noisy outcome probabilities of every circuit of a trial, prepared
    by the W circuit (``circuits.prepare_w``).

    They depend on the noise model only, not on the trial, so every trial
    shares one read-only copy. Returns (table, dist): the exact probabilities
    of the 37 circuits, one row each, the groups of ``LAYOUT`` in order, and
    the same as the sampler draws from them (``noise.outcome_distribution``).
    Both are (37, 8): a group of d outcomes fills the last d columns, and
    zeros lead it (``noise.sample_counts``).
    """
    model = model or ReadoutModel((QubitReadout(0.0, 0.0),) * 3)  # no noise: perfect readout
    rho_w = outer(prepare_w())
    table, dist = np.zeros((2, 37, 8))
    for (width, qubits), t, d in zip(LAYOUT, _groups(table), _groups(dist), strict=True):
        if width == 2:  # calibration: the columns of each qubit's matrix
            probs = np.concatenate([model.qubits[q].calibration_matrix().T for q in qubits])
        else:
            rho = partial_trace(rho_w, qubits)
            settings = tomography_scheme(len(qubits)).settings
            probs = apply_readout_noise(np.array([exact_probs(rho, s) for s in settings]),
                                        model.subset(qubits))
        t[...] = probs
        d[...] = outcome_distribution(probs)
    for a in (table, dist):
        a.setflags(write=False)
    return table, dist


def run_pipeline(cfg: ExperimentConfig) -> list[TrialResult]:
    """All trials as one batch (see the module docstring): draw, ``_estimate``,
    assemble. ``io.write_outputs`` writes them as a run directory."""
    table, dist = _noisy_probs(cfg.noise)
    if cfg.exact:  # the only difference between exact and sampled runs
        freqs, counts = np.broadcast_to(table, (cfg.trials, *table.shape)), None
        eps_b = 1e-8 if cfg.noise is None else EPS_B
    else:
        block = sample_counts(dist, cfg.shots, cfg.seed, cfg.trials)
        # each group normalized over its own columns: counts_to_probs sums the
        # counts as floats, and from 2**53 shots a sum that takes in a row's
        # leading zeros can round differently
        freqs = np.zeros(block.shape)
        for f, c in zip(_groups(freqs), _groups(block), strict=True):
            f[...] = counts_to_probs(c)
        counts = _groups(block)[0].copy()  # the 3q counts; a view would keep the block alive
        # base experimental tolerance plus a shot-noise allowance
        eps_b = EPS_B + 2.0 / np.sqrt(cfg.shots)
    f_full, f_parts, matrices, recon, f_hats, errors = _estimate(freqs, eps_b, cfg)

    written = int(cfg.mitigate)
    results = []
    for t in range(cfg.trials):
        r = TrialResult(t, counts=None if counts is None else counts[t], calibration=f_hats[t])
        for p in (0, 1):  # a trial keeps the passes before its first error
            if (exc := errors.get((p, t))) is not None:
                r.error = f"{type(exc).__name__}: {exc}"
                break
            r.reports[bool(p)] = Fidelities(float(f_full[p, t]), float(f_parts[p, t]))
            if p == written:
                r.matrices = {name: m[t] for name, m in matrices.items()}
                r.parts = None if recon is None else _member(recon, t)
        results.append(r)
    return results


def _estimate(freqs: np.ndarray, eps_b: float, cfg: ExperimentConfig):
    """Every stage after the draw on a (T, 37, 8) block of outcome frequencies.
    Returns the fidelities (pass, trial) of both schemes, the written pass's
    matrices and Diosi result (None without the parts route), the (T, 3, 2, 2)
    calibration stack and the errors keyed (pass, trial)."""
    p3, ab, bc, calibration = _groups(freqs)
    # row 2q + b is column b of qubit q's matrix; copied, so no trial keeps the block alive
    f_hats = calibration.reshape(-1, 3, 2, 2).swapaxes(-1, -2).copy()

    # Pass 0 is unmitigated, pass 1 mitigated. The 3q and AB/BC maps compose one
    # checked stack of per-qubit inverses; a calibration error fails pass 1.
    found: dict = {}  # (t,): a calibration error
    inverses = _calibration_inverses(f_hats, found)
    errors = {(1, *k): exc for k, exc in found.items()}  # (pass, t): its first error
    f_full = f_parts = np.full((2, len(freqs)), np.nan)
    matrices, recon = {}, None
    if cfg.scheme in ("full3q", "both"):
        p3 = np.stack([p3, mitigate(kron_qubits(inverses), p3)])  # (pass, trial, 17, 8)
        matrices["rho_full"] = spectral_correct(reconstruct(tomography_scheme(3), p3))
        f_full = fidelity_pure(matrices["rho_full"])
    if cfg.scheme in ("parts2q", "both"):
        p2 = np.stack([ab, bc], axis=1)  # (trial, pair AB|BC, 7, 4)
        m2 = kron_qubits(np.stack([inverses[:, :2], inverses[:, 1:]], axis=1))
        rho_2q = spectral_correct(reconstruct(tomography_scheme(2), np.stack([p2, mitigate(m2, p2)])))
        recon = _diosi_reconstruct(MarginalPair(rho_2q[:, :, 0], rho_2q[:, :, 1], eps_b), errors)
        matrices.update(rho_ab=rho_2q[:, :, 0], rho_bc=rho_2q[:, :, 1])
        f_parts = fidelity_pure(recon.rho)
    # copies of the written pass, so the trials' views do not keep both alive
    matrices = {name: m[int(cfg.mitigate)].copy() for name, m in matrices.items()}
    recon = None if recon is None else copy.deepcopy(_member(recon, int(cfg.mitigate)))
    return f_full, f_parts, matrices, recon, f_hats, errors


def _member(result: ReconstructionResult, k) -> ReconstructionResult:
    """Member k of a stack of Diosi results; its arrays are views of the stack's."""
    masses = {label: m[k] for label, m in result.truncated_mass.items()}
    return ReconstructionResult(result.psi[k], result.rho[k], result.residual_ab[k],
                                result.residual_bc[k], masses)
