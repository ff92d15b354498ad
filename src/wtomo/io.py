"""Every file wtomo reads or writes, and its format.

JSON files are written with indent 1, sorted keys and a trailing newline.
Complex arrays are stored as two real arrays "re" and "im" (row-major). A
reader raises ``ValueError`` (or ``OSError``, ``KeyError``) for a file it
cannot use; the CLI reports those as ``cannot read <path>: ...``.

A run directory of ``write_outputs`` holds ``report.csv``,
``run_metadata.json`` and per trial ``trial_<t>/`` with ``rho_full.json``,
``rho_ab.json``, ``rho_bc.json``, ``rho_parts.json``, ``counts_3q.json`` and
``calibration.json`` (each where the run produced it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .circuits import QUBIT_NAMES
from .noise import RNG_ALGORITHM, QubitReadout, ReadoutModel

if TYPE_CHECKING:
    from .pipeline import ExperimentConfig, TrialResult
    from .wholeparts import ReconstructionResult

REPORT_HEADER = (
    "trial,shots,f_full_unmitigated,f_full_mitigated,"
    "f_parts_unmitigated,f_parts_mitigated"
)


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _read_json(path):
    return json.loads(Path(path).read_text())


def _read_object(path, holds: str) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(holds)
    return obj


# density files: {"nqubits": n, "re": [[..]], "im": [[..]]}


def density_to_json_dict(rho: np.ndarray) -> dict:
    n = rho.shape[0].bit_length() - 1
    return {"nqubits": n, "re": np.real(rho).tolist(), "im": np.imag(rho).tolist()}


def density_from_json_dict(d: dict) -> np.ndarray:
    rho = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
    dim = 2 ** int(d["nqubits"])
    if rho.shape != (dim, dim):
        raise ValueError(f"matrix shape {rho.shape} inconsistent with nqubits")
    return rho


def save_density(rho: np.ndarray, path) -> None:
    _write_json(path, density_to_json_dict(rho))


def load_density(path, nqubits: int) -> np.ndarray:
    """An nqubits density matrix with positive trace from a density file."""
    rho = density_from_json_dict(_read_object(path, "a density file holds a JSON object"))
    n = rho.shape[0].bit_length() - 1
    if n != nqubits:
        raise ValueError(f"density matrix is for {n} qubits, not {nqubits}")
    tr = np.trace(rho).real
    if not tr > 0:
        raise ValueError(f"density matrix has trace {tr:.6g}, not positive")
    return rho


# counts files: {label -> {bitstring -> count}, "shots", "seed", "noise"}


def counts_file_dict(
    counts: dict[str, np.ndarray],
    shots: int,
    seed: int | list[int],
    model: ReadoutModel | None,
    nqubits: int,
) -> dict:
    """Counts-file object; zero counts are left out.

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
    obj["noise"] = readout_model_to_json_dict(model) if model is not None else None
    return obj


def load_counts_file(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a counts file; returns (label -> counts array, metadata)."""
    obj = _read_object(path, "a counts file holds a JSON object of tables")
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
        c = np.zeros(2 ** lengths[0], dtype=int)
        for bits, v in table.items():
            c[int(bits, 2)] = v
        counts[label] = c
    return counts, meta


# calibration files: {qubit label -> [[f00, f01], [f10, f11]]}


def save_calibration(fs: list[np.ndarray], labels: list[str], path) -> None:
    _write_json(path, {label: f.tolist() for label, f in zip(labels, fs)})


def load_calibration(path) -> dict[str, np.ndarray]:
    obj = _read_object(path, "a calibration file holds a JSON object of matrices")
    return {label: np.array(mat, dtype=float) for label, mat in obj.items()}


# noise-model files: {"qA": {"p01": .., "p10": ..}, ...}, ordered A, B, C


def readout_model_to_json_dict(model: ReadoutModel) -> dict:
    return {
        f"q{QUBIT_NAMES[i]}": {"p01": q.p01, "p10": q.p10}
        for i, q in enumerate(model.qubits)
    }


def readout_model_from_json_dict(d: dict) -> ReadoutModel:
    return ReadoutModel(tuple(QubitReadout(v["p01"], v["p10"]) for v in d.values()))


def load_readout_model(path, nqubits: int) -> ReadoutModel:
    """A readout model of nqubits qubits from a noise-model file."""
    d = _read_object(path, "a noise-model file holds a JSON object of qubits")
    model = readout_model_from_json_dict(d)
    if len(model.qubits) != nqubits:
        raise ValueError(f"noise model covers {len(model.qubits)} qubits, not {nqubits}")
    return model


# the Diosi state file: psi as {"nqubits": 3, "re", "im"} plus its residuals


def reconstruction_to_json_dict(result: ReconstructionResult) -> dict:
    return {
        "nqubits": 3,
        "re": np.real(result.psi).tolist(),
        "im": np.imag(result.psi).tolist(),
        "residual_ab": result.residual_ab,
        "residual_bc": result.residual_bc,
        "truncated_mass": result.truncated_mass,
    }


def save_reconstruction(result: ReconstructionResult, path) -> None:
    _write_json(path, reconstruction_to_json_dict(result))


# run directories


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    """The "config" object of run_metadata.json."""
    return {
        "shots": cfg.shots,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "noise": readout_model_to_json_dict(cfg.noise) if cfg.noise else None,
        "mitigate": cfg.mitigate,
        "exact": cfg.exact,
        "scheme": cfg.scheme,
        "rng": RNG_ALGORITHM,
    }


def report_csv_text(results: list[TrialResult]) -> str:
    """report.csv: one row per trial, fidelities to 6 decimals."""
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
    """Write a run directory (see the module docstring)."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv_text(results))
    _write_json(out / "run_metadata.json", {
        "config": config_to_json_dict(cfg),
        "errors": {r.trial_id: r.error for r in results if r.error},
    })
    for r in results:
        tdir = out / f"trial_{r.trial_id}"
        tdir.mkdir(exist_ok=True)
        for name, rho in r.matrices.items():
            obj = density_to_json_dict(rho)
            if name == "rho_parts":
                obj.update(r.residuals)
            _write_json(tdir / f"{name}.json", obj)
        if r.counts:
            _write_json(tdir / "counts_3q.json", counts_file_dict(
                r.counts, cfg.shots, [cfg.seed, r.trial_id], cfg.noise, 3
            ))
        if r.calibration:
            save_calibration(r.calibration, ["qA", "qB", "qC"], tdir / "calibration.json")
