"""End-to-end simulated experiment: calibration, noisy measurement of every
setting, optional mitigation, reconstruction, and fidelity reporting.

Each trial mirrors one hardware run: four circuit groups (``LAYOUT``), the
17 three-qubit settings, 7 two-qubit settings per marginal and 6
calibration circuits, each one table at its own width. Trial t draws its
groups in order from one stream keyed [seed, t] (``noise.sample_counts``),
so a fixed configuration reproduces byte-identical reports and no two
trials share a stream.

The trials of a run form one batch: after sampling, every stage runs once
on stacks with leading axes (pass, trial), pass 0 unmitigated and pass 1
mitigated; the two-qubit route adds a pair axis, AB then BC, so (pass,
trial, pair, 7, 4). A trial's result is bitwise the same in a batch of any
size. Errors are keyed (pass, trial): the calibration check fails pass 1, a
Diosi check (a ``ReconstructionError``) the pass it flags. A failing trial
gets the error of its first failing pass and keeps the passes before it;
any other error propagates.
"""

from __future__ import annotations

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
    ReadoutModel,
    apply_readout_noise,
    counts_to_probs,
    exact_probs,
    outcome_distribution,
    sample_counts,
)
from .tomography import reconstruct, tomography_scheme
from .wholeparts import EPS_B, MarginalPair, _diosi_reconstruct


# A trial's circuit groups in the order they draw from its stream, as (outcomes
# per circuit, measured qubits): the 3q, AB and BC settings in setting order,
# then qubit A, B, C each prepared in |0> then |1> and read alone.
LAYOUT = ((8, (0, 1, 2)), (4, (0, 1)), (4, (1, 2)), (2, (0, 1, 2)))


@dataclass(frozen=True)
class ExperimentConfig:
    shots: int = 20000
    trials: int = 5
    seed: int = 1234
    noise: ReadoutModel | None = field(default_factory=ReadoutModel.ibm_osaka)
    mitigate: bool = True
    exact: bool = False  # analytic probabilities, no sampling
    scheme: str = "both"  # full3q | parts2q | both

    def __post_init__(self):
        # a float or bool would run, then be written as given
        for name in ("shots", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # JSON writes no numpy integer
        if self.trials < 1 or self.shots < 1:
            raise ValueError("trials and shots must be >= 1")
        if self.shots > MAX_SHOTS:
            raise ValueError(f"shots must be <= {MAX_SHOTS} (2**63 - 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.scheme not in ("full3q", "parts2q", "both"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.noise is not None and len(self.noise.qubits) != 3:
            raise ValueError(f"noise model covers {len(self.noise.qubits)} qubits, not 3")


class Fidelities(NamedTuple):
    """One pass's fidelities against W; NaN for a scheme the run skips."""

    f_full: float
    f_parts: float


@dataclass
class TrialResult:
    trial_id: int
    reports: dict[bool, Fidelities] = field(default_factory=dict)  # key: mitigated
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    counts: np.ndarray | None = None  # (17, 8): the 3q counts in setting order
    calibration: np.ndarray | None = None  # (3, 2, 2): one matrix per qubit
    residuals: dict[str, float] = field(default_factory=dict)
    error: str | None = None


@lru_cache(maxsize=None)
def _noisy_probs(model: ReadoutModel | None):
    """The W state and the noisy outcome probabilities of every circuit of a trial.

    They depend on the noise model only, not on the trial, so every trial
    shares one read-only copy. Returns (psi_w, tables, dists): per group of
    ``LAYOUT`` the exact probabilities of its circuits, one row each, of
    shapes (17, 8), (7, 4), (7, 4) and (6, 2), and the same as the sampler
    draws from them (``noise.outcome_distribution``).
    """
    psi_w = prepare_w()
    rho_w = outer(psi_w)
    tables = []
    for width, qubits in LAYOUT:
        if width == 2:  # calibration: the columns of each qubit's matrix
            tables.append(np.concatenate([
                np.eye(2) if model is None else model.qubits[q].calibration_matrix().T
                for q in qubits]))
        else:
            rho = partial_trace(rho_w, qubits)
            settings = tomography_scheme(len(qubits)).settings
            probs = np.array([exact_probs(rho, s) for s in settings])
            if model is not None:
                probs = apply_readout_noise(probs, model.subset(qubits))
            tables.append(probs)
    dists = tuple(outcome_distribution(table) for table in tables)
    for a in (psi_w, *tables, *dists):
        a.setflags(write=False)
    return psi_w, tuple(tables), dists


def run_pipeline(cfg: ExperimentConfig) -> list[TrialResult]:
    """All trials as one batch (see the module docstring); ``io.write_outputs``
    writes them as a run directory."""
    psi_w, tables, dists = _noisy_probs(cfg.noise)
    if cfg.exact:
        counts = None
        p3, pab, pbc, calibration = [
            np.broadcast_to(table, (cfg.trials, *table.shape)) for table in tables]
    else:
        counts = sample_counts(dists, cfg.shots, cfg.seed, list(range(cfg.trials)))
        p3, pab, pbc, calibration = [counts_to_probs(c) for c in counts]
    # row 2q + b of the calibration group is column b of qubit q's matrix
    f_hats = calibration.reshape(cfg.trials, 3, 2, 2).swapaxes(-1, -2)
    if cfg.exact and cfg.noise is None:
        eps_b = 1e-8
    else:
        # base experimental tolerance plus a shot-noise allowance
        eps_b = EPS_B + (0.0 if cfg.exact else 2.0 / np.sqrt(cfg.shots))

    # Pass 0 is unmitigated, pass 1 mitigated. The 3q and AB/BC maps compose one
    # checked stack of per-qubit inverses; a calibration error fails pass 1.
    found: dict = {}  # (t,): a calibration error
    inverses = _calibration_inverses(f_hats, found)
    errors = {(1, *k): exc for k, exc in found.items()}  # (pass, t): its first error
    f_full = f_parts = np.full((2, cfg.trials), np.nan)
    matrices, recon = {}, None
    if cfg.scheme in ("full3q", "both"):
        p3 = np.stack([p3, mitigate(kron_qubits(inverses), p3)])  # (pass, trial, 17, 8)
        matrices["rho_full"] = spectral_correct(reconstruct(tomography_scheme(3), p3))
        f_full = fidelity_pure(psi_w, matrices["rho_full"])
    if cfg.scheme in ("parts2q", "both"):
        p2 = np.stack([pab, pbc], axis=1)  # (trial, pair AB|BC, 7, 4)
        m2 = kron_qubits(np.stack([inverses[:, :2], inverses[:, 1:]], axis=1))
        rho_2q = spectral_correct(reconstruct(tomography_scheme(2), np.stack([p2, mitigate(m2, p2)])))
        recon = _diosi_reconstruct(MarginalPair(rho_2q[:, :, 0], rho_2q[:, :, 1], eps_b), errors)
        matrices.update(rho_ab=rho_2q[:, :, 0], rho_bc=rho_2q[:, :, 1], rho_parts=recon.rho)
        f_parts = fidelity_pure(psi_w, recon.rho)

    written = int(cfg.mitigate)
    # a copy of the written pass, so the trials' views do not keep both alive
    matrices = {name: m[written].copy() for name, m in matrices.items()}
    results = []
    for t in range(cfg.trials):
        r = TrialResult(t, counts=None if counts is None else counts[0][t],  # the 3q settings
                        calibration=f_hats[t])
        for p in (0, 1):  # a trial keeps the passes before its first error
            if (exc := errors.get((p, t))) is not None:
                r.error = f"{type(exc).__name__}: {exc}"
                break
            r.reports[bool(p)] = Fidelities(float(f_full[p, t]), float(f_parts[p, t]))
            if p == written:
                r.matrices = {name: m[t] for name, m in matrices.items()}
                if recon is not None:
                    r.residuals = {
                        "residual_ab": float(recon.residual_ab[p, t]),
                        "residual_bc": float(recon.residual_bc[p, t]),
                        "truncated_mass": {k: float(v[p, t])
                                           for k, v in recon.truncated_mass.items()},
                    }
        results.append(r)
    return results
