"""Every file wtomo reads or writes, and its format. Inside the library a
scheme's tables are one (L, d) array in setting order (``tomography``);
setting labels, bitstrings and qubit names exist only in these files.

The API is one reader and at most one writer per format, the functions the
CLI and a run directory use: ``save_density`` and ``load_density``,
``load_counts_file``, ``save_calibration`` and ``load_calibration``,
``load_readout_model``, ``save_reconstruction`` and ``write_outputs``.

JSON files are written with indent 1, sorted keys and a trailing newline.
Complex arrays are stored as two real arrays "re" and "im" (row-major). A
reader raises ``ValueError`` (or ``OSError``, ``KeyError``) for a file it
cannot use; the CLI reports those as ``cannot read <path>: ...``.

A run directory of ``write_outputs`` holds ``report.csv``,
``run_metadata.json`` and per trial ``trial_<t>/`` with ``rho_full.json``,
``rho_ab.json``, ``rho_bc.json``, ``rho_parts.json`` and ``counts_3q.json``
(each where the run produced it) and ``calibration.json``; ``rho_parts.json``
carries the three Diosi fields of the ``diosi`` state file beside its matrix.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .circuits import QUBIT_NAMES
from .linalg import HERMITICITY_TOL, is_hermitian
from .noise import MAX_SHOTS, RNG_ALGORITHM, QubitReadout, ReadoutModel
from .tomography import tomography_scheme
from .wholeparts import ReconstructionResult, unit_trace

if TYPE_CHECKING:
    from .pipeline import ExperimentConfig, TrialResult


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _read_object(path, holds: str) -> dict:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(holds)
    return obj


def _numbers(obj, holds: str) -> np.ndarray:
    """obj, nested lists of JSON numbers, as a float array; a bool, a string, a
    ragged list or an integer beyond a float raises ValueError(holds)."""
    try:
        a = np.array(obj, dtype=object)  # ragged lists stay list entries
        if all(type(v) in (int, float) for v in a.flat):  # bool is an int subclass
            return a.astype(float)
    except (ValueError, OverflowError):
        pass
    raise ValueError(holds)


# density files: {"nqubits": n, "re": [[..]], "im": [[..]]}


def _complex_object(a: np.ndarray) -> dict:
    """{"nqubits", "re", "im"} of a matrix or vector of 2**nqubits rows."""
    n = a.shape[0].bit_length() - 1
    return {"nqubits": n, "re": np.real(a).tolist(), "im": np.imag(a).tolist()}


def save_density(rho: np.ndarray, path) -> None:
    _write_json(path, _complex_object(rho))


def load_density(path, nqubits: int) -> np.ndarray:
    """An nqubits density matrix from a density file, divided by its trace (``unit_trace``)."""
    return _read_density(path, nqubits)[1]


def _read_density(path, nqubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(as read, divided by its trace) of a density file; divided, it is Hermitian within 1e-8."""
    d = _read_object(path, "a density file holds a JSON object")
    for key in ("nqubits", "re", "im"):
        if key not in d:
            raise ValueError(f"density file has no {key!r}")
    n = d["nqubits"]
    if type(n) is not int or not 1 <= n <= 3:  # a bool is an int; a large n costs 2**n
        raise ValueError(f"nqubits must be an integer from 1 to 3, got {n!r}")
    re, im = (_numbers(d[key], f"{key!r} is not an array of numbers") for key in ("re", "im"))
    if re.shape != im.shape:
        raise ValueError(f"'re' has shape {re.shape} but 'im' has shape {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):  # json reads NaN and Infinity
        raise ValueError("density matrix has non-finite entries")
    rho = re + 1j * im
    if rho.ndim == 1:  # e.g. the file wtomo diosi writes
        raise ValueError(
            f"file holds a state vector of {rho.size} amplitudes, not a density matrix"
        )
    if rho.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {rho.shape} inconsistent with nqubits")
    if n != nqubits:
        raise ValueError(f"density matrix is for {n} qubits, not {nqubits}")
    if not is_hermitian(unit := unit_trace(rho)):
        raise ValueError(f"density matrix is not Hermitian within {HERMITICITY_TOL}")
    return rho, unit


# counts files: {label -> {bitstring -> count}, "shots", "seed", "noise"}, written
# by write_outputs


def load_counts_file(path, nqubits: int) -> np.ndarray:
    """The counts (L, d) of the nqubits scheme's settings, in setting order,
    from a counts file; "shots", "seed" and "noise" are not read. Every table
    has bitstrings of one length, at most 3 bits; every count is a
    non-negative JSON integer of at most ``MAX_SHOTS`` and every table has a
    positive total. Each setting of the scheme needs a table of d = 2**nqubits
    counts; tables of other labels are checked but not returned."""
    obj = _read_object(path, "a counts file holds a JSON object of tables")
    for key in ("shots", "seed", "noise"):
        obj.pop(key, None)
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
        if lengths[0] > len(QUBIT_NAMES):  # checked before 2**length counts are allocated
            raise ValueError(f"table {label!r} has {lengths[0]}-bit strings, "
                             f"more than the {len(QUBIT_NAMES)} qubits wtomo reads")
        c = np.zeros(2 ** lengths[0], dtype=int)
        for bits, v in table.items():
            if type(v) is not int or v < 0:  # bool is an int subclass, JSON true is not
                raise ValueError(
                    f"table {label!r} has count {v!r} for {bits!r}, not a non-negative integer")
            if v > MAX_SHOTS:  # more than an int64 holds
                raise ValueError(
                    f"table {label!r} has count {v} for {bits!r}, more than {MAX_SHOTS}")
            c[int(bits, 2)] = v
        if not c.any():
            raise ValueError(f"table {label!r} has no counts")
        counts[label] = c
    scheme = tomography_scheme(nqubits)
    for label in scheme.labels:  # the first bad one in setting order
        if label not in counts:
            raise ValueError(f"missing probability table for setting {label}")
        if len(counts[label]) != 2**nqubits:
            raise ValueError(f"table for {label} has wrong length")
    return np.array([counts[label] for label in scheme.labels])


def _by_qubit(entries: dict, holds: str) -> dict:
    """entries in qubit order; their keys, in any order, must be the labels
    qA, qB, ... of the first len(entries) qubits."""
    labels = [f"q{name}" for name in QUBIT_NAMES[:len(entries)]]
    if sorted(entries) != labels:
        raise ValueError(f"{holds} has qubit labels {', '.join(entries)}, not {', '.join(labels)}")
    return {label: entries[label] for label in labels}


# calibration files: {"qA": [[f00, f01], [f10, f11]], ...}, read by label


def save_calibration(fs: np.ndarray, path) -> None:
    _write_json(path, {f"q{QUBIT_NAMES[i]}": f for i, f in enumerate(np.asarray(fs).tolist())})


def load_calibration(path, nqubits: int) -> np.ndarray:
    """The nqubits 2x2 matrices of a calibration file, in qubit order A, B,
    C, as an (nqubits, 2, 2) array."""
    obj = _read_object(path, "a calibration file holds a JSON object of matrices")
    fs = {}
    for label, mat in obj.items():
        fs[label] = _numbers(mat, f"calibration matrix {label!r} is not a 2x2 array of "
                                  "numbers [[f00, f01], [f10, f11]]")
    if len(fs) != nqubits:
        raise ValueError(f"need {nqubits} calibration matrices, found {len(fs)}")
    fs = list(_by_qubit(fs, "calibration file").values())
    for f in fs:
        if f.shape != (2, 2):
            raise ValueError(f"calibration matrix must be 2x2, got {f.shape}")
    return np.array(fs)


# noise-model files: {"qA": {"p01": .., "p10": ..}, ...}, read by label; the
# "noise" of a counts file and of run_metadata.json's "config"


def load_readout_model(path, nqubits: int) -> ReadoutModel:
    """A readout model of nqubits qubits from a noise-model file."""
    d = _read_object(path, "a noise-model file holds a JSON object of qubits")
    qubits = []
    for label, v in _by_qubit(d, "noise model").items():
        if not isinstance(v, dict):
            raise ValueError(f"qubit {label!r} is not an object of p01 and p10")
        for key in ("p01", "p10"):
            if key not in v:
                raise ValueError(f"qubit {label!r} has no {key!r}")
        p01, p10 = v["p01"], v["p10"]
        # bool is an int subclass, JSON true is not a number
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in (p01, p10)):
            raise ValueError(f"qubit {label!r}: p01 {p01!r}, p10 {p10!r} are not numbers")
        qubits.append(QubitReadout(p01, p10))
    model = ReadoutModel(tuple(qubits))
    if len(model.qubits) != nqubits:
        raise ValueError(f"noise model covers {len(model.qubits)} qubits, not {nqubits}")
    return model


# the Diosi state file: psi as {"nqubits": 3, "re", "im"} plus its residuals


def _diosi_object(result: ReconstructionResult, a: np.ndarray) -> dict:
    """The complex object of a (psi or rho of one Diosi result) beside the result's fields."""
    return {**_complex_object(a), "residual_ab": result.residual_ab,
            "residual_bc": result.residual_bc, "truncated_mass": result.truncated_mass}


def save_reconstruction(result: ReconstructionResult, path) -> None:
    _write_json(path, _diosi_object(result, result.psi))


# run directories


def write_outputs(cfg: ExperimentConfig, results: list[TrialResult], out: Path) -> None:
    """Write a run directory (see the module docstring). In report.csv, one row
    per trial, fidelities to 6 decimals: a failed trial reads "error" for its
    shots and keeps the fidelities of the passes it completed; the others are
    empty."""
    out.mkdir(parents=True, exist_ok=True)
    lines = ["trial,shots,f_full_unmitigated,f_full_mitigated,"
             "f_parts_unmitigated,f_parts_mitigated"]
    for r in results:
        u, m = (
            (f"{p.f_full:.6f}", f"{p.f_parts:.6f}") if p is not None else ("", "")
            for p in (r.reports.get(False), r.reports.get(True))
        )
        shots = cfg.shots if r.error is None else "error"
        lines.append(f"{r.trial_id},{shots},{u[0]},{m[0]},{u[1]},{m[1]}")
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    noise = None if cfg.noise is None else {  # a noise-model file's object
        f"q{name}": {"p01": q.p01, "p10": q.p10} for name, q in zip(QUBIT_NAMES, cfg.noise.qubits)
    }
    _write_json(out / "run_metadata.json", {
        "config": {"shots": cfg.shots, "trials": cfg.trials, "seed": cfg.seed, "noise": noise,
                   "mitigate": cfg.mitigate, "exact": cfg.exact, "scheme": cfg.scheme,
                   "rng": RNG_ALGORITHM},
        "errors": {r.trial_id: r.error for r in results if r.error},
    })
    labels = tomography_scheme(3).labels
    for r in results:
        tdir = out / f"trial_{r.trial_id}"
        tdir.mkdir(exist_ok=True)
        for name, rho in r.matrices.items():
            save_density(rho, tdir / f"{name}.json")
        if r.parts is not None:
            _write_json(tdir / "rho_parts.json", _diosi_object(r.parts, r.parts.rho))
        # zero counts are left out; default_rng(seed) replays the trial's draws
        if r.counts is not None:
            tables = {label: {format(k, "03b"): int(c) for k, c in enumerate(row) if c}
                      for label, row in zip(labels, r.counts, strict=True)}
            _write_json(tdir / "counts_3q.json", {
                **tables, "shots": cfg.shots, "seed": [cfg.seed, r.trial_id], "noise": noise,
            })
        save_calibration(r.calibration, tdir / "calibration.json")
