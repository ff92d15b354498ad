"""The file formats of wtomo.io, pinned byte for byte.

Each test writes a small fixed object, compares the file with a literal
(indent 1, sorted keys, trailing newline) and reads it back bitwise.
"""

import json

import numpy as np
import pytest

from wtomo import io
from wtomo.noise import QubitReadout, ReadoutModel
from wtomo.pipeline import ExperimentConfig, Fidelities, TrialResult
from wtomo.tomography import tomography_scheme
from wtomo.wholeparts import ReconstructionResult

MODEL = ReadoutModel((QubitReadout(0.25, 0.5),) * 3)

NOISE_FILE = """{
 "qA": {
  "p01": 0.25,
  "p10": 0.5
 },
 "qB": {
  "p01": 0.25,
  "p10": 0.5
 },
 "qC": {
  "p01": 0.25,
  "p10": 0.5
 }
}
"""

DENSITY_FILE = """{
 "im": [
  [
   0.0,
   -0.2
  ],
  [
   0.2,
   0.0
  ]
 ],
 "nqubits": 1,
 "re": [
  [
   0.6666666666666666,
   0.1
  ],
  [
   0.1,
   0.3333333333333333
  ]
 ]
}
"""

CALIBRATION_FILE = """{
 "qA": [
  [
   0.75,
   0.5
  ],
  [
   0.25,
   0.5
  ]
 ]
}
"""

STATE_FILE = """{
 "im": [
  0.0,
  0.0,
  0.8,
  0.0,
  0.0,
  0.0,
  0.0,
  0.0
 ],
 "nqubits": 3,
 "re": [
  0.0,
  0.6,
  0.0,
  0.0,
  0.0,
  0.0,
  0.0,
  0.0
 ],
 "residual_ab": 0.125,
 "residual_bc": 0.0625,
 "truncated_mass": {
  "rho_bc": 0.5
 }
}
"""

REPORT_FILE = """\
trial,shots,f_full_unmitigated,f_full_mitigated,f_parts_unmitigated,f_parts_mitigated
0,10,0.500000,0.500000,0.750000,0.875000
1,error,,,,
"""

METADATA_FILE = """{
 "config": {
  "exact": false,
  "mitigate": true,
  "noise": {
   "qA": {
    "p01": 0.25,
    "p10": 0.5
   },
   "qB": {
    "p01": 0.25,
    "p10": 0.5
   },
   "qC": {
    "p01": 0.25,
    "p10": 0.5
   }
  },
  "rng": "numpy PCG64 (default_rng), one stream per trial keyed [seed, trial], circuits drawn in row order",
  "scheme": "both",
  "seed": 7,
  "shots": 10,
  "trials": 2
 },
 "errors": {
  "1": "ReconstructionError: x"
 }
}
"""

# every setting's table reads {"001": 3, "100": 7}; labels sort before "noise"
COUNTS_FILE = "{\n" + "".join(
    f' "{label}": {{\n  "001": 3,\n  "100": 7\n }},\n'
    for label in sorted(tomography_scheme(3).labels)
) + """ "noise": {
  "qA": {
   "p01": 0.25,
   "p10": 0.5
  },
  "qB": {
   "p01": 0.25,
   "p10": 0.5
  },
  "qC": {
   "p01": 0.25,
   "p10": 0.5
  }
 },
 "seed": [
  7,
  0
 ],
 "shots": 10
}
"""

RHO_PARTS_FILE = """{
 "im": [
  [
   0.0,
   0.0
  ],
  [
   0.0,
   0.0
  ]
 ],
 "nqubits": 1,
 "re": [
  [
   1.0,
   0.0
  ],
  [
   0.0,
   0.0
  ]
 ],
 "residual_ab": 0.125,
 "residual_bc": 0.0625,
 "truncated_mass": {
  "rho_bc": 0.5
 }
}
"""


def test_density_file(tmp_path):
    rho = np.array([[2 / 3, 0.1 - 0.2j], [0.1 + 0.2j, 1 / 3]])
    path = tmp_path / "rho.json"
    io.save_density(rho, path)
    assert path.read_text() == DENSITY_FILE
    assert np.array_equal(io.load_density(path, 1), rho)


def test_density_file_is_read_divided_by_its_trace(tmp_path):
    # the one division of a file: load_density returns the unit-trace matrix it checked
    rho = np.array([[2 / 3, 0.1 - 0.2j], [0.1 + 0.2j, 1 / 3]])
    path = tmp_path / "rho.json"
    io.save_density(0.5 * rho, path)
    assert np.array_equal(io.load_density(path, 1), 0.5 * rho / np.trace(0.5 * rho).real)
    raw, unit = io._read_density(path, 1)
    assert np.array_equal(raw, 0.5 * rho) and np.array_equal(unit, io.load_density(path, 1))


@pytest.mark.parametrize("literal, shown", [
    ("null", "None"), ("[3]", "[3]"), ("1e400", "inf"), ("3.5", "3.5"), ("true", "True"),
    ("0", "0"), ("4", "4"), ("100000000", "100000000"), ('"3"', "'3'"),
], ids=["null", "list", "overflow", "fraction", "bool", "zero", "four", "huge", "string"])
def test_density_file_nqubits_is_checked(literal, shown, tmp_path):
    # nqubits is checked before 2**nqubits is computed: no TypeError,
    # OverflowError or silent coercion, and no huge integer for 100000000
    path = tmp_path / "rho.json"
    path.write_text(f'{{"nqubits": {literal}, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}}')
    with pytest.raises(ValueError) as exc:
        io.load_density(path, 1)
    assert str(exc.value) == f"nqubits must be an integer from 1 to 3, got {shown}"


def test_calibration_file(tmp_path):
    f = np.array([[0.75, 0.5], [0.25, 0.5]])
    path = tmp_path / "calibration.json"
    io.save_calibration([f], path)
    assert path.read_text() == CALIBRATION_FILE
    assert np.array_equal(io.load_calibration(path, 1), [f])


LAYOUT = r"calibration matrix '{}' is not a 2x2 array of numbers \[\[f00, f01\], \[f10, f11\]\]"


@pytest.mark.parametrize("matrices, message", [
    ([[[1, 0], [0, 1]]] * 3, "need 2 calibration matrices, found 3"),
    ([[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "must be 2x2, got \\(3, 3\\)"),
    ([[[1, 0], [0, 1]], [1, 0]], "must be 2x2, got \\(2,\\)"),
    ([[1, 0], [0, 1]] * 3, "need 2 calibration matrices, found 6"),
    ([[[1, 0], [0, 1]], [[0.5, 0.5], [0.5]]], LAYOUT.format("qB")),
    ([[[1, 0], [0, 1]], "x"], LAYOUT.format("qB")),
    ([{"a": 1}, [[1, 0], [0, 1]]], LAYOUT.format("qA")),
    ([[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0.5, 0.5], [0.5]]], LAYOUT.format("qC")),
    # numpy's float conversion once read true as 1.0 and "0.99" as 0.99, and
    # raised OverflowError for an integer beyond a float
    ([[[1, 0], [0, 1]], [[True, 0], [0, 1]]], LAYOUT.format("qB")),
    ([[[1, 0], [0, 1]], [[1, False], [0, 1]]], LAYOUT.format("qB")),
    ([[[1, 0], [0, 1]], [["0.99", 0.02], [0.01, 0.98]]], LAYOUT.format("qB")),
    ([[[1, 0], [0, 1]], [[10**400, 0], [0, 1]]], LAYOUT.format("qB")),
], ids=["count", "3x3", "vector", "count-before-shape", "ragged", "not-numbers", "object",
        "unreadable-before-count", "true", "false", "string", "huge-int"])
def test_calibration_file_is_checked(matrices, message, tmp_path):
    # each matrix is read as numbers, then the qubit count, the labels and
    # each matrix's shape
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps({f"q{'ABCDEF'[k]}": m for k, m in enumerate(matrices)}))
    with pytest.raises(ValueError, match=message):
        io.load_calibration(path, 2)


@pytest.mark.parametrize("key, entry", [("re", "0.5"), ("re", True), ("im", False),
                                        ("im", 10**400)],
                         ids=["re-string", "re-bool", "im-bool", "im-huge-int"])
def test_density_entries_are_json_numbers(key, entry, tmp_path):
    path = tmp_path / "rho.json"
    io.save_density(np.eye(2) / 2, path)
    d = json.loads(path.read_text())
    d[key][0][0] = entry
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError) as exc:
        io.load_density(path, 1)
    assert str(exc.value) == f"{key!r} is not an array of numbers"


FS = [[[0.9, 0.2], [0.1, 0.8]], [[0.95, 0.3], [0.05, 0.7]], [[0.99, 0.4], [0.01, 0.6]]]
NOISY = ReadoutModel((QubitReadout(0.1, 0.2), QubitReadout(0.3, 0.4), QubitReadout(0.5, 0.25)))
NOISY_OBJECT = {f"q{name}": {"p01": q.p01, "p10": q.p10} for name, q in zip("ABC", NOISY.qubits)}


def test_files_are_read_by_qubit_label(tmp_path):
    # entries are taken in qubit order A, B, C, whatever their order in the file
    calibration, noise = tmp_path / "calibration.json", tmp_path / "noise.json"
    calibration.write_text(json.dumps({"qC": FS[2], "qA": FS[0], "qB": FS[1]}))
    assert np.array_equal(io.load_calibration(calibration, 3), FS)
    noise.write_text(json.dumps({q: NOISY_OBJECT[q] for q in ("qC", "qA", "qB")}))
    assert io.load_readout_model(noise, 3) == NOISY


@pytest.mark.parametrize("labels", [["qA", "q1"], ["qa", "qB"], ["qA", "qC"], ["qC", "qB"]],
                         ids=["unknown", "lower-case", "missing-B", "missing-A"])
def test_qubit_labels_are_checked(labels, tmp_path):
    # a two-entry file must hold qA and qB
    calibration, noise = tmp_path / "calibration.json", tmp_path / "noise.json"
    message = f"has qubit labels {', '.join(labels)}, not qA, qB$"
    calibration.write_text(json.dumps(dict(zip(labels, FS))))
    with pytest.raises(ValueError, match="^calibration file " + message):
        io.load_calibration(calibration, 2)
    noise.write_text(json.dumps(dict(zip(labels, NOISY_OBJECT.values()))))
    with pytest.raises(ValueError, match="^noise model " + message):
        io.load_readout_model(noise, 2)


def test_noise_model_file(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(NOISE_FILE)
    assert io.load_readout_model(path, 3) == MODEL


def test_state_file(tmp_path):
    psi = np.array([0, 0.6, 0.8j, 0, 0, 0, 0, 0])
    result = ReconstructionResult(psi, np.outer(psi, psi.conj()), 0.125, 0.0625, {"rho_bc": 0.5})
    path = tmp_path / "psi.json"
    io.save_reconstruction(result, path)
    assert path.read_text() == STATE_FILE
    d = json.loads(path.read_text())
    assert np.array_equal(np.array(d["re"]) + 1j * np.array(d["im"]), psi)
    assert d["residual_ab"] == 0.125 and d["residual_bc"] == 0.0625
    assert d["truncated_mass"] == {"rho_bc": 0.5}


def test_run_directory(tmp_path):
    cfg = ExperimentConfig(shots=10, trials=2, seed=7, noise=MODEL)
    residuals = {"residual_ab": 0.125, "residual_bc": 0.0625, "truncated_mass": {"rho_bc": 0.5}}
    good = TrialResult(
        trial_id=0,
        reports={m: Fidelities(0.5, 0.75 + m / 8) for m in (False, True)},
        counts=np.tile([0, 3, 0, 0, 7, 0, 0, 0], (17, 1)),
        parts=ReconstructionResult(np.array([1.0, 0.0]), np.diag([1.0, 0.0]), **residuals),
        calibration=np.array(FS),
    )
    failed = TrialResult(trial_id=1, calibration=np.array(FS), error="ReconstructionError: x")
    out = tmp_path / "run"
    io.write_outputs(cfg, [good, failed], out)
    files = sorted(str(p.relative_to(out)) for p in out.rglob("*"))
    assert files == ["report.csv", "run_metadata.json", "trial_0", "trial_0/calibration.json",
                     "trial_0/counts_3q.json", "trial_0/rho_parts.json", "trial_1",
                     "trial_1/calibration.json"]
    assert (out / "report.csv").read_text() == REPORT_FILE
    assert (out / "run_metadata.json").read_text() == METADATA_FILE
    assert (out / "trial_0" / "counts_3q.json").read_text() == COUNTS_FILE
    assert (out / "trial_0" / "rho_parts.json").read_text() == RHO_PARTS_FILE
    for t in (0, 1):  # a failed trial keeps its calibration too
        assert np.array_equal(io.load_calibration(out / f"trial_{t}" / "calibration.json", 3), FS)

    assert np.array_equal(io.load_counts_file(out / "trial_0" / "counts_3q.json", 3), good.counts)
    meta = json.loads((out / "trial_0" / "counts_3q.json").read_text())
    assert meta["shots"] == 10 and meta["seed"] == [7, 0]
    (tmp_path / "noise.json").write_text(json.dumps(meta["noise"]))
    assert io.load_readout_model(tmp_path / "noise.json", 3) == MODEL
    assert np.array_equal(io.load_density(out / "trial_0" / "rho_parts.json", 1), np.diag([1, 0]))
    parts = json.loads((out / "trial_0" / "rho_parts.json").read_text())
    assert {k: parts[k] for k in residuals} == residuals
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["config"]["noise"] == json.loads(NOISE_FILE)
    assert meta["errors"] == {"1": "ReconstructionError: x"}
