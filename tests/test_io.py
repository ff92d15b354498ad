"""The file formats of wtomo.io, pinned byte for byte.

Each test writes a small fixed object, compares the file with a literal
(indent 1, sorted keys, trailing newline) and reads it back bitwise.
"""

import json

import numpy as np

from wtomo import io
from wtomo.metrics import FidelityReport
from wtomo.noise import QubitReadout, ReadoutModel
from wtomo.pipeline import ExperimentConfig, TrialResult
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
  "rho_a": 0.5
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
  "rng": "numpy PCG64 (default_rng), stream key [seed, trial, stream]",
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

COUNTS_FILE = """{
 "ZZZ": {
  "001": 3,
  "100": 7
 },
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
  "rho_a": 0.5
 }
}
"""


def test_density_file(tmp_path):
    rho = np.array([[2 / 3, 0.1 - 0.2j], [0.1 + 0.2j, 1 / 3]])
    path = tmp_path / "rho.json"
    io.save_density(rho, path)
    assert path.read_text() == DENSITY_FILE
    assert np.array_equal(io.load_density(path, 1), rho)


def test_calibration_file(tmp_path):
    f = np.array([[0.75, 0.5], [0.25, 0.5]])
    path = tmp_path / "calibration.json"
    io.save_calibration([f], ["qA"], path)
    assert path.read_text() == CALIBRATION_FILE
    loaded = io.load_calibration(path)
    assert list(loaded) == ["qA"] and np.array_equal(loaded["qA"], f)


def test_noise_model_file(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(NOISE_FILE)
    assert io.load_readout_model(path, 3) == MODEL


def test_state_file(tmp_path):
    psi = np.array([0, 0.6, 0.8j, 0, 0, 0, 0, 0])
    result = ReconstructionResult(psi, np.outer(psi, psi.conj()), 0.125, 0.0625, {"rho_a": 0.5})
    path = tmp_path / "psi.json"
    io.save_reconstruction(result, path)
    assert path.read_text() == STATE_FILE
    d = json.loads(path.read_text())
    assert np.array_equal(np.array(d["re"]) + 1j * np.array(d["im"]), psi)
    assert d["residual_ab"] == 0.125 and d["residual_bc"] == 0.0625
    assert d["truncated_mass"] == {"rho_a": 0.5}


def test_run_directory(tmp_path):
    cfg = ExperimentConfig(shots=10, trials=2, seed=7, noise=MODEL)
    residuals = {"residual_ab": 0.125, "residual_bc": 0.0625, "truncated_mass": {"rho_a": 0.5}}
    good = TrialResult(
        trial_id=0,
        reports={m: FidelityReport(0, 10, m, 0.5, 0.75 + m / 8) for m in (False, True)},
        matrices={"rho_parts": np.diag([1.0, 0.0])},
        counts={"ZZZ": np.array([0, 3, 0, 0, 7, 0, 0, 0])},
        residuals=residuals,
    )
    failed = TrialResult(trial_id=1, error="ReconstructionError: x")
    out = tmp_path / "run"
    io.write_outputs(cfg, [good, failed], out)
    files = sorted(str(p.relative_to(out)) for p in out.rglob("*"))
    assert files == ["report.csv", "run_metadata.json", "trial_0", "trial_0/counts_3q.json",
                     "trial_0/rho_parts.json", "trial_1"]
    assert (out / "report.csv").read_text() == REPORT_FILE
    assert (out / "run_metadata.json").read_text() == METADATA_FILE
    assert (out / "trial_0" / "counts_3q.json").read_text() == COUNTS_FILE
    assert (out / "trial_0" / "rho_parts.json").read_text() == RHO_PARTS_FILE

    counts, meta = io.load_counts_file(out / "trial_0" / "counts_3q.json")
    assert list(counts) == ["ZZZ"] and np.array_equal(counts["ZZZ"], good.counts["ZZZ"])
    assert meta["shots"] == 10 and meta["seed"] == [7, 0]
    assert io.readout_model_from_json_dict(meta["noise"]) == MODEL
    assert np.array_equal(io.load_density(out / "trial_0" / "rho_parts.json", 1), np.diag([1, 0]))
    parts = json.loads((out / "trial_0" / "rho_parts.json").read_text())
    assert {k: parts[k] for k in residuals} == residuals
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["config"] == io.config_to_json_dict(cfg)
    assert meta["errors"] == {"1": "ReconstructionError: x"}
