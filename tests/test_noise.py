import json

import numpy as np
import pytest

from wtomo.circuits import MeasurementSetting, three_qubit_settings, w_vector
from wtomo.io import (
    counts_file_dict,
    load_counts_file,
    readout_model_from_json_dict,
    readout_model_to_json_dict,
)
from wtomo.linalg import outer
from wtomo.noise import (
    IBM_OSAKA_READOUT,
    QubitReadout,
    ReadoutModel,
    apply_readout_noise,
    counts_to_probs,
    exact_probs,
    outcome_distribution,
    sample_circuits,
    simulate_calibration,
)
from wtomo.pipeline import ExperimentConfig


def sample_shots_per_flip(
    p: np.ndarray, model: ReadoutModel, shots: int, seed: int
) -> np.ndarray:
    """Sample ideal outcomes, then flip each read bit per the confusion model.

    Statistically equivalent to sampling from apply_readout_noise(p, model);
    the cross-check of the noise model's realism below compares the two.
    """
    rng = np.random.default_rng(seed)
    n = len(model.qubits)
    outcomes = rng.choice(len(p), size=shots, p=np.clip(p, 0, None) / np.sum(np.clip(p, 0, None)))
    counts = np.zeros(len(p), dtype=int)
    u = rng.random(size=(shots, n))
    for k, m in enumerate(outcomes):
        out = 0
        for q in range(n):
            bit = (m >> (n - 1 - q)) & 1
            flip_p = model.qubits[q].p01 if bit else model.qubits[q].p10
            if u[k, q] < flip_p:
                bit ^= 1
            out = (out << 1) | bit
        counts[out] += 1
    return counts


class TestExactProbs:
    def test_w_computational(self):
        s = MeasurementSetting.from_label("ZZZ", 3)
        p = exact_probs(outer(w_vector()), s)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / 3
        assert np.allclose(p, expected, atol=1e-12)

    def test_probabilities_normalized_for_all_settings(self):
        rho = outer(w_vector())
        for s in three_qubit_settings():
            p = exact_probs(rho, s)
            assert p.min() >= 0
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            exact_probs(np.eye(4) / 4, MeasurementSetting.from_label("ZZZ", 3))


class TestReadoutModel:
    def test_calibration_matrix_columns(self):
        q = QubitReadout(p01=0.023, p10=0.008)
        f = q.calibration_matrix()
        assert np.allclose(f.sum(axis=0), 1.0)
        assert f[1, 0] == 0.008 and f[0, 1] == 0.023

    def test_ibm_osaka_values(self):
        model = ReadoutModel.ibm_osaka()
        assert [(q.p01, q.p10) for q in model.qubits] == [
            (0.023, 0.008),
            (0.004, 0.009),
            (0.030, 0.034),
        ]
        assert [name for name, _, _ in IBM_OSAKA_READOUT] == ["q97", "q98", "q99"]

    def test_noiseless_is_identity(self):
        model = ReadoutModel((QubitReadout(0.0, 0.0),) * 3)
        assert np.allclose(model.confusion_matrix(), np.eye(8))

    def test_confusion_preserves_normalization(self):
        model = ReadoutModel.ibm_osaka()
        p = np.full(8, 1 / 8)
        q = apply_readout_noise(p, model)
        assert abs(q.sum() - 1.0) <= 1e-12
        assert q.min() >= 0

    def test_single_qubit_flip_probability(self):
        # prepared |1>: probability of reading 0 must equal p01
        model = ReadoutModel((QubitReadout(0.1, 0.02),))
        q = apply_readout_noise(np.array([0.0, 1.0]), model)
        assert np.allclose(q, [0.1, 0.9])

    def test_subset(self):
        model = ReadoutModel.ibm_osaka()
        sub = model.subset([1, 2])
        assert sub.qubits == model.qubits[1:]

    def test_json_roundtrip(self):
        model = ReadoutModel.ibm_osaka()
        again = readout_model_from_json_dict(readout_model_to_json_dict(model))
        assert again == model

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ReadoutModel((QubitReadout(1.5, 0.0),))

    def test_model_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_readout_noise(np.full(8, 1 / 8), ReadoutModel((QubitReadout(0.0, 0.0),) * 2))


class TestSampling:
    def test_deterministic_for_seed(self):
        dists = outcome_distribution(np.full((1, 8), 1 / 8))
        a = sample_circuits(dists, 5000, (42, 0), 0)
        b = sample_circuits(dists, 5000, (42, 0), 0)
        assert np.array_equal(a, b)
        assert a.sum() == 5000

    def test_different_seeds_differ(self):
        dists = outcome_distribution(np.full((1, 8), 1 / 8))
        a = sample_circuits(dists, 5000, (1, 0), 0)
        assert not np.array_equal(a, sample_circuits(dists, 5000, (2, 0), 0))

    def test_law_of_large_numbers(self):
        p = np.array([0.5, 0.3, 0.2, 0.0])
        freq = counts_to_probs(sample_circuits(outcome_distribution(p[None]), 200_000, (7, 0), 0))
        assert np.abs(freq[0] - p).max() <= 0.01

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            outcome_distribution(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            ExperimentConfig(shots=0)

    def test_per_flip_sampler_matches_matrix_model(self):
        # the bit-flip sampler and the confusion-matrix distribution agree
        # statistically (cross-check of the noise model's realism)
        model = ReadoutModel.ibm_osaka()
        p = exact_probs(outer(w_vector()), MeasurementSetting.from_label("ZZZ", 3))
        c = sample_shots_per_flip(p, model, 200_000, 11)
        expected = apply_readout_noise(p, model)
        assert np.abs(counts_to_probs(c) - expected).max() <= 0.01


class TestCalibrationSimulation:
    def test_column_stochastic_and_close_to_truth(self):
        model = ReadoutModel.ibm_osaka()
        mats = simulate_calibration(model, 100_000, (2024, 0))
        assert len(mats) == 3
        for f_hat, q in zip(mats, model.qubits):
            assert np.allclose(f_hat.sum(axis=0), 1.0)
            assert np.abs(f_hat - q.calibration_matrix()).max() <= 0.01

    def test_deterministic(self):
        model = ReadoutModel.ibm_osaka()
        a = simulate_calibration(model, 1000, (5, 0))
        b = simulate_calibration(model, 1000, (5, 0))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            simulate_calibration(ReadoutModel.ibm_osaka(), 0, (1, 0))


class TestCountsFile:
    def test_roundtrip(self, tmp_path):
        counts = {
            "ZZZ": np.array([0, 100, 200, 0, 300, 0, 0, 0]),
            "XZZ": np.array([50, 50, 100, 100, 100, 100, 50, 50]),
        }
        model = ReadoutModel.ibm_osaka()
        obj = counts_file_dict(counts, 600, 1234, model, 3)
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(obj))
        loaded, meta = load_counts_file(path)
        assert meta["shots"] == 600 and meta["seed"] == 1234
        assert meta["noise"] == readout_model_to_json_dict(model)
        for label in counts:
            assert np.array_equal(loaded[label], counts[label])

    def test_zero_counts_omitted(self):
        obj = counts_file_dict({"ZZZ": np.array([0, 5, 0, 0, 7, 0, 0, 0])}, 12, 0, None, 3)
        assert set(obj["ZZZ"]) == {"001", "100"}
        assert obj["noise"] is None

    @pytest.mark.parametrize("table, message", [
        ({"000": 5, "1111": 3}, "mixes bitstrings of lengths \\[3, 4\\]"),
        ({"000": 5, "11": 3}, "mixes bitstrings of lengths \\[2, 3\\]"),
        ({"000": 5, "012": 3}, "has key '012', not a bitstring"),
        ({"": 5}, "has key '', not a bitstring"),
    ], ids=["longer", "shorter", "not-binary", "empty-key"])
    def test_malformed_bitstrings_name_the_table(self, table, message, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"ZZZ": {"000": 1}, "XZZ": table}))
        with pytest.raises(ValueError, match=f"table 'XZZ' {message}"):
            load_counts_file(path)


class TestSampleCircuits:
    def test_rows_draw_from_keyed_streams(self):
        dists = outcome_distribution(np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]]))
        counts = sample_circuits(dists, 1000, (7, 3), 31)
        for j, p in enumerate(dists):
            expected = np.random.default_rng([7, 3, 31 + j]).multinomial(1000, p)
            assert np.array_equal(counts[j], expected)

    def test_outcome_distribution_is_what_sample_shots_draws_from(self):
        p = np.array([[0.25, 0.25, 0.5, 1e-12], [0.1, 0.2, 0.3, 0.4]])
        for row, dist in zip(p, outcome_distribution(p)):
            expected = np.clip(row, 0.0, None) / np.clip(row, 0.0, None).sum()
            assert np.array_equal(dist, expected)
        with pytest.raises(ValueError, match="invalid outcome distribution"):
            outcome_distribution(np.array([[0.5, 0.5], [0.6, 0.6]]))
