"""End-to-end simulated experiment: calibration, noisy measurement of every
setting, optional mitigation, reconstruction, and fidelity reporting.

Each trial mirrors one hardware run: 6 calibration circuits, the 17
three-qubit settings, and 7 two-qubit settings per marginal (14 circuits).
Each sampled circuit of trial t draws from the stream keyed [seed, t,
stream] (stream ids in ``noise``), so a fixed configuration reproduces
byte-identical reports and no two circuits share a stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import noise as noise_mod
from .circuits import prepare_w, three_qubit_settings, two_qubit_settings
from .linalg import outer, partial_trace
from .metrics import FidelityReport, fidelity_pure
from .mitigation import mitigation_matrix, save_calibration, spectral_correct
from .noise import (
    RNG_ALGORITHM,
    STREAM_AB,
    STREAM_BC,
    ReadoutModel,
    apply_readout_noise,
    counts_to_probs,
    exact_probs,
    sample_shots,
    simulate_calibration,
)
from .tomography import density_to_json_dict, reconstruct_2q, reconstruct_3q
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

    def to_json_dict(self) -> dict:
        return {
            "shots": self.shots,
            "trials": self.trials,
            "seed": self.seed,
            "noise": self.noise.to_json_dict() if self.noise else None,
            "mitigate": self.mitigate,
            "exact": self.exact,
            "scheme": self.scheme,
            "rng": RNG_ALGORITHM,
        }


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
    shares one read-only copy. Returns (psi_w, 3q tables, AB tables, BC tables).
    """
    psi_w = prepare_w()
    psi_w.setflags(write=False)
    rho_w = outer(psi_w)
    groups = []
    for qubits in ([0, 1, 2], [0, 1], [1, 2]):
        settings = three_qubit_settings() if len(qubits) == 3 else two_qubit_settings()
        rho = partial_trace(rho_w, qubits)
        sub = model.subset(qubits) if model is not None else None
        tables = {}
        for s in settings:
            p = exact_probs(rho, s)
            if sub is not None:
                p = apply_readout_noise(p, sub)
            p.setflags(write=False)
            tables[s.label] = p
        groups.append(tables)
    return psi_w, *groups


def _measure(probs, cfg, key, first_stream, counts_out):
    """Probability tables for every setting, sampled unless cfg.exact."""
    if cfg.exact:
        return probs
    tables = {}
    for idx, (label, p) in enumerate(probs.items()):
        c = sample_shots(p, cfg.shots, [*key, first_stream + idx])
        counts_out[label] = c
        tables[label] = counts_to_probs(c)
    return tables


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    result = TrialResult(trial_id=trial_index)
    key = (cfg.seed, trial_index)
    model = cfg.noise
    psi_w, probs_3q, probs_ab, probs_bc = _noisy_probs(model)

    if model is not None and not cfg.exact:
        f_hats = simulate_calibration(model, cfg.shots, key)
    elif model is not None:
        f_hats = [q.calibration_matrix() for q in model.qubits]
    else:
        f_hats = [np.eye(2) for _ in range(3)]
    result.calibration = f_hats

    tables_3q = _measure(probs_3q, cfg, key, 0, result.counts)
    tables_ab = _measure(probs_ab, cfg, key, STREAM_AB, {})
    tables_bc = _measure(probs_bc, cfg, key, STREAM_BC, {})

    try:
        for mitigated in (False, True):
            if mitigated:
                m3, mab, mbc = (mitigation_matrix(fs) for fs in (f_hats, f_hats[:2], f_hats[1:]))
                t3 = {l: m3 @ p for l, p in tables_3q.items()}
                tab = {l: mab @ p for l, p in tables_ab.items()}
                tbc = {l: mbc @ p for l, p in tables_bc.items()}
            else:
                t3, tab, tbc = tables_3q, tables_ab, tables_bc

            f_full = f_parts = float("nan")
            residual_ab = residual_bc = float("nan")
            if cfg.scheme in ("full3q", "both"):
                rho_full = spectral_correct(reconstruct_3q(t3))
                f_full = fidelity_pure(psi_w, rho_full)
            if cfg.scheme in ("parts2q", "both"):
                rho_ab = spectral_correct(reconstruct_2q(tab))
                rho_bc = spectral_correct(reconstruct_2q(tbc))
                if cfg.exact and model is None:
                    eps_b = 1e-8
                else:
                    # base experimental tolerance plus a shot-noise allowance
                    eps_b = 0.05 + (0.0 if cfg.exact else 2.0 / np.sqrt(cfg.shots))
                recon = diosi_reconstruct(MarginalPair(rho_ab, rho_bc, eps_b))
                rho_parts = outer(recon.psi)
                f_parts = fidelity_pure(psi_w, rho_parts)
                residual_ab, residual_bc = recon.residual_ab, recon.residual_bc

            result.reports[mitigated] = FidelityReport(
                trial_id=trial_index,
                shots=cfg.shots,
                mitigated=mitigated,
                f_full=f_full,
                f_parts=f_parts,
                residual_ab=residual_ab,
                residual_bc=residual_bc,
            )
            if mitigated == cfg.mitigate:
                if cfg.scheme in ("full3q", "both"):
                    result.matrices["rho_full"] = rho_full
                if cfg.scheme in ("parts2q", "both"):
                    result.matrices["rho_ab"] = rho_ab
                    result.matrices["rho_bc"] = rho_bc
                    result.matrices["rho_parts"] = rho_parts
                    result.residuals = {
                        "residual_ab": recon.residual_ab,
                        "residual_bc": recon.residual_bc,
                        "truncated_mass": recon.truncated_mass,
                    }
    except (ReconstructionError, ValueError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_pipeline(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[TrialResult]:
    results = [run_trial(cfg, t) for t in range(cfg.trials)]
    if out_dir is not None:
        write_outputs(cfg, results, Path(out_dir))
    return results


REPORT_HEADER = (
    "trial,shots,f_full_unmitigated,f_full_mitigated,"
    "f_parts_unmitigated,f_parts_mitigated"
)


def report_csv_text(results: list[TrialResult]) -> str:
    lines = [REPORT_HEADER]
    for r in results:
        if r.error is not None or not r.reports:
            lines.append(f"{r.trial_id},error,,,,")
            continue
        u, m = r.reports[False], r.reports[True]
        lines.append(
            f"{r.trial_id},{u.shots},{u.f_full:.6f},{m.f_full:.6f},"
            f"{u.f_parts:.6f},{m.f_parts:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_outputs(cfg: ExperimentConfig, results: list[TrialResult], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv_text(results))
    with open(out / "run_metadata.json", "w") as f:
        json.dump(
            {
                "config": cfg.to_json_dict(),
                "errors": {r.trial_id: r.error for r in results if r.error},
            },
            f, indent=1, sort_keys=True,
        )
        f.write("\n")
    for r in results:
        tdir = out / f"trial_{r.trial_id}"
        tdir.mkdir(exist_ok=True)
        for name, rho in r.matrices.items():
            obj = density_to_json_dict(rho)
            if name == "rho_parts":
                obj.update(r.residuals)
            with open(tdir / f"{name}.json", "w") as f:
                json.dump(obj, f, indent=1, sort_keys=True)
                f.write("\n")
        if r.counts:
            obj = noise_mod.counts_file_dict(
                r.counts, cfg.shots, [cfg.seed, r.trial_id], cfg.noise, 3
            )
            with open(tdir / "counts_3q.json", "w") as f:
                json.dump(obj, f, indent=1, sort_keys=True)
                f.write("\n")
        if r.calibration:
            save_calibration(r.calibration, ["qA", "qB", "qC"], tdir / "calibration.json")


def exact_noiseless_config(**overrides) -> ExperimentConfig:
    """Oracle configuration: analytic probabilities, no noise, one trial."""
    cfg = ExperimentConfig(noise=None, exact=True, trials=1)
    return replace(cfg, **overrides) if overrides else cfg
