"""End-to-end simulated experiment: calibration, noisy measurement of every
setting, optional mitigation, reconstruction, and fidelity reporting.

Each trial mirrors one hardware run: 6 calibration circuits, the 17
three-qubit settings, and 7 two-qubit settings per marginal (14 circuits).
Each sampled circuit of trial t draws from the stream keyed [seed, t,
stream] (stream ids in ``noise``), so a fixed configuration reproduces
byte-identical reports and no two circuits share a stream.

The trials of a run form one batch: after sampling, every stage runs once
on stacks with a leading trial axis. Each trial's result is bitwise the
same as ``run_trial`` gives it alone, which is the same code on a batch of
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import io
from .circuits import prepare_w, three_qubit_settings, two_qubit_settings
from .linalg import outer, partial_trace
from .metrics import FidelityReport, fidelity_pure
from .mitigation import mitigation_matrix, spectral_correct
from .noise import (
    STREAM_AB,
    STREAM_BC,
    ReadoutModel,
    apply_readout_noise,
    counts_to_probs,
    exact_probs,
    outcome_distribution,
    sample_circuits,
    simulate_calibration,
)
from .tomography import reconstruct_2q, reconstruct_3q
from .wholeparts import MarginalPair, ReconstructionError, diosi_reconstruct


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
        if self.trials < 1 or self.shots < 1:
            raise ValueError("trials and shots must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.scheme not in ("full3q", "parts2q", "both"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.noise is not None and len(self.noise.qubits) != 3:
            raise ValueError(f"noise model covers {len(self.noise.qubits)} qubits, not 3")


@dataclass
class TrialResult:
    trial_id: int
    reports: dict[bool, FidelityReport] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    counts: dict[str, np.ndarray] = field(default_factory=dict)
    calibration: list[np.ndarray] = field(default_factory=list)
    residuals: dict[str, float] = field(default_factory=dict)
    error: str | None = None


@lru_cache(maxsize=None)
def _noisy_probs(model: ReadoutModel | None):
    """The W state and the noisy outcome probabilities of every setting on it.

    They depend on the noise model only, not on the trial, so every trial
    shares one read-only copy. Returns (psi_w, tables, dists): tables holds
    the exact (L, d) tables of the 3q, AB and BC settings in setting order,
    dists the same tables as the sampler draws from them
    (``noise.outcome_distribution``).
    """
    psi_w = prepare_w()
    rho_w = outer(psi_w)
    tables = []
    for qubits, settings in (
        ([0, 1, 2], three_qubit_settings()),
        ([0, 1], two_qubit_settings()),
        ([1, 2], two_qubit_settings()),
    ):
        rho = partial_trace(rho_w, qubits)
        sub = model.subset(qubits) if model is not None else None
        probs = [exact_probs(rho, s) for s in settings]
        tables.append(np.stack([p if sub is None else apply_readout_noise(p, sub) for p in probs]))
    dists = [outcome_distribution(t) for t in tables]
    for a in (psi_w, *tables, *dists):
        a.setflags(write=False)
    return psi_w, tuple(tables), tuple(dists)


_LABELS_3Q = tuple(s.label for s in three_qubit_settings())
_LABELS_2Q = tuple(s.label for s in two_qubit_settings())


def _by_label(labels: tuple[str, ...], p: np.ndarray) -> dict[str, np.ndarray]:
    """Stacked tables (n, L, d) as {setting label: (n, d) tables}."""
    return dict(zip(labels, p.swapaxes(0, 1)))


def _calibrations(cfg: ExperimentConfig, key) -> list[np.ndarray]:
    """The calibration matrices a trial mitigates with, one per qubit."""
    model = cfg.noise
    if model is not None and not cfg.exact:
        return simulate_calibration(model, cfg.shots, key)
    if model is not None:
        return [q.calibration_matrix() for q in model.qubits]
    return [np.eye(2) for _ in range(3)]


def _fill(cfg, results, mitigated, f_full, f_parts, matrices, recon) -> None:
    """Store one pass (mitigated or not) of a batch in its trial results."""
    nan = float("nan")
    for t, r in enumerate(results):
        r.reports[mitigated] = FidelityReport(
            trial_id=r.trial_id,
            shots=cfg.shots,
            mitigated=mitigated,
            f_full=float(f_full[t]),
            f_parts=float(f_parts[t]),
            residual_ab=nan if recon is None else float(recon.residual_ab[t]),
            residual_bc=nan if recon is None else float(recon.residual_bc[t]),
        )
        if mitigated != cfg.mitigate:
            continue
        r.matrices = {name: m[t] for name, m in matrices.items()}
        if recon is not None:
            r.residuals = {
                "residual_ab": float(recon.residual_ab[t]),
                "residual_bc": float(recon.residual_bc[t]),
                "truncated_mass": {k: float(v[t]) for k, v in recon.truncated_mass.items()},
            }


def _sample(cfg: ExperimentConfig, results: list[TrialResult], dists) -> list[np.ndarray]:
    """Sampled (n, L, d) frequency tables of the 3q, AB and BC settings.

    Each trial's three-qubit counts are stored in its result.
    """
    counts = [np.empty((len(results), *d.shape), dtype=np.int64) for d in dists]
    for t, r in enumerate(results):
        for c, dist, first in zip(counts, dists, (0, STREAM_AB, STREAM_BC)):
            c[t] = sample_circuits(dist, cfg.shots, (cfg.seed, r.trial_id), first)
        r.counts = dict(zip(_LABELS_3Q, counts[0][t]))
    return [counts_to_probs(c) for c in counts]


def _reconstruct(cfg: ExperimentConfig, psi_w, p3, pab, pbc, eps_b: float):
    """One pass over stacked tables: (f_full, f_parts, matrices, Diosi result)."""
    nan = np.full(len(p3), np.nan)
    f_full = f_parts = nan
    matrices, recon = {}, None
    if cfg.scheme in ("full3q", "both"):
        matrices["rho_full"] = spectral_correct(reconstruct_3q(_by_label(_LABELS_3Q, p3)))
        f_full = fidelity_pure(psi_w, matrices["rho_full"])
    if cfg.scheme in ("parts2q", "both"):
        rho_ab = spectral_correct(reconstruct_2q(_by_label(_LABELS_2Q, pab)))
        rho_bc = spectral_correct(reconstruct_2q(_by_label(_LABELS_2Q, pbc)))
        recon = diosi_reconstruct(MarginalPair(rho_ab, rho_bc, eps_b))
        matrices.update(rho_ab=rho_ab, rho_bc=rho_bc, rho_parts=recon.rho)
        f_parts = fidelity_pure(psi_w, matrices["rho_parts"])
    return f_full, f_parts, matrices, recon


def _run_batch(cfg: ExperimentConfig, results: list[TrialResult]) -> None:
    """Run the trials of results as one batch, filling each result in place.

    Every circuit of trial t samples from its own stream [seed, t, stream];
    every later stage runs once on the stack of all the trials. Raises if
    any trial fails; the results then hold the passes completed before.
    """
    psi_w, tables, dists = _noisy_probs(cfg.noise)
    if cfg.exact:
        measured = [np.broadcast_to(tab, (len(results), *tab.shape)) for tab in tables]
    else:
        measured = _sample(cfg, results, dists)
    for r in results:
        r.calibration = _calibrations(cfg, (cfg.seed, r.trial_id))
    f_hats = np.array([r.calibration for r in results])  # (n, 3, 2, 2)
    if cfg.exact and cfg.noise is None:
        eps_b = 1e-8
    else:
        # base experimental tolerance plus a shot-noise allowance
        eps_b = 0.05 + (0.0 if cfg.exact else 2.0 / np.sqrt(cfg.shots))

    for mitigated in (False, True):
        if mitigated:  # the last pass, so the unmitigated tables can go
            measured = [
                (mitigation_matrix(fs)[:, None] @ p[..., None])[..., 0]
                for fs, p in zip((f_hats, f_hats[:, :2], f_hats[:, 1:]), measured)
            ]
        _fill(cfg, results, mitigated, *_reconstruct(cfg, psi_w, *measured, eps_b))


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    """One trial: the batch code on a batch of one. A reconstruction or value
    error is recorded in the result, which keeps what was done before it."""
    result = TrialResult(trial_id=trial_index)
    try:
        _run_batch(cfg, [result])
    except (ReconstructionError, ValueError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_pipeline(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[TrialResult]:
    """All trials as one batch. If the batch fails, each trial runs on its own,
    so that only the failing trials fail."""
    results = [TrialResult(trial_id=t) for t in range(cfg.trials)]
    try:
        _run_batch(cfg, results)
    except (ReconstructionError, ValueError):
        results = [run_trial(cfg, t) for t in range(cfg.trials)]
    if out_dir is not None:
        io.write_outputs(cfg, results, Path(out_dir))
    return results
