import json
import re

import numpy as np
import pytest

from wtomo.circuits import MeasurementSetting, w_vector
from wtomo.io import load_counts_file, load_readout_model, write_outputs
from wtomo.linalg import outer
from wtomo.noise import (
    IBM_OSAKA_READOUT,
    QubitReadout,
    ReadoutModel,
    apply_readout_noise,
    counts_to_probs,
    exact_probs,
    outcome_distribution,
    sample_counts,
)
from wtomo.pipeline import ExperimentConfig, TrialResult, _noisy_probs, run_pipeline
from wtomo.tomography import tomography_scheme

from conftest import layout_widths


def written_counts(tmp_path, cfg, counts):
    """The counts_3q.json object write_outputs writes for counts as trial 0 of cfg."""
    write_outputs(cfg, [TrialResult(0, np.tile(np.eye(2), (3, 1, 1)), counts=counts)],
                  tmp_path / "run")
    return json.loads((tmp_path / "run" / "trial_0" / "counts_3q.json").read_text())


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
        for s in tomography_scheme(3).settings:
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

    def test_json_roundtrip(self, tmp_path):
        # the "noise" of run_metadata.json's config is a noise-model file
        model = ReadoutModel.ibm_osaka()
        write_outputs(ExperimentConfig(noise=model), [], tmp_path / "run")
        config = json.loads((tmp_path / "run" / "run_metadata.json").read_text())["config"]
        (tmp_path / "noise.json").write_text(json.dumps(config["noise"]))
        assert load_readout_model(tmp_path / "noise.json", 3) == model

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ReadoutModel((QubitReadout(1.5, 0.0),))

    @pytest.mark.parametrize("p01, p10, message", [
        (0.1, "a", "p10 must be a real number, got 'a'"),
        (True, 0.0, "p01 must be a real number, got True"),
        (None, 0.1, "p01 must be a real number, got None"),
        (0.1, 1j, "p10 must be a real number, got 1j"),
    ], ids=["string", "bool", "none", "complex"])
    def test_probabilities_must_be_real_numbers(self, p01, p10, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            QubitReadout(p01, p10)

    def test_integer_probabilities_are_valid(self):
        model = ReadoutModel((QubitReadout(0, 1), QubitReadout(np.int64(1), np.float32(0.5))))
        assert np.array_equal(model.confusion_matrix().sum(axis=0), np.ones(4))

    @pytest.mark.parametrize("qubits", [("x",) * 3, [QubitReadout(0.1, 0.2)] * 3, 5],
                             ids=["strings", "list", "int"])
    def test_qubits_must_be_a_tuple_of_qubit_readouts(self, qubits):
        message = f"^qubits must be a tuple of QubitReadout, got {re.escape(repr(qubits))}$"
        with pytest.raises(TypeError, match=message):
            ReadoutModel(qubits)

    def test_model_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_readout_noise(np.full(8, 1 / 8), ReadoutModel((QubitReadout(0.0, 0.0),) * 2))


class TestSampling:
    def test_deterministic_for_seed(self):
        dist = outcome_distribution(np.full((1, 8), 1 / 8))
        a = sample_counts(dist, 5000, 42, 1)
        b = sample_counts(dist, 5000, 42, 1)
        assert np.array_equal(a, b)
        assert a.shape == (1, 1, 8) and a.sum() == 5000

    def test_different_seeds_differ(self):
        dist = outcome_distribution(np.full((1, 8), 1 / 8))
        a = sample_counts(dist, 5000, 1, 1)
        b = sample_counts(dist, 5000, 2, 1)
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        p = np.array([0.5, 0.3, 0.2, 0.0])
        counts = sample_counts(outcome_distribution(p[None]), 200_000, 7, 1)
        assert np.abs(counts_to_probs(counts)[0, 0] - p).max() <= 0.01

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
    # the calibration matrices a sampled run estimates and mitigates with
    def test_column_stochastic_and_close_to_truth(self):
        model = ReadoutModel.ibm_osaka()
        cfg = ExperimentConfig(shots=100_000, trials=1, seed=2024, noise=model)
        mats = run_pipeline(cfg)[0].calibration
        assert len(mats) == 3
        for f_hat, q in zip(mats, model.qubits):
            assert np.allclose(f_hat.sum(axis=0), 1.0)
            assert np.abs(f_hat - q.calibration_matrix()).max() <= 0.01

    def test_deterministic(self):
        cfg = ExperimentConfig(shots=1000, trials=1, seed=5)
        assert np.array_equal(run_pipeline(cfg)[0].calibration, run_pipeline(cfg)[0].calibration)


class TestCountsFile:
    def test_roundtrip(self, tmp_path):
        counts = np.arange(17 * 8).reshape(17, 8) % 7  # a zero in every row, none all zero
        model = ReadoutModel.ibm_osaka()
        obj = written_counts(tmp_path, ExperimentConfig(shots=600, seed=1234, noise=model), counts)
        assert obj["shots"] == 600 and obj["seed"] == [1234, 0]
        (tmp_path / "noise.json").write_text(json.dumps(obj["noise"]))
        assert load_readout_model(tmp_path / "noise.json", 3) == model
        # the reader skips shots, seed and noise, and returns the tables in setting order
        path = tmp_path / "run" / "trial_0" / "counts_3q.json"
        assert np.array_equal(load_counts_file(path, 3), counts)

    def test_zero_counts_omitted(self, tmp_path):
        counts = np.ones((17, 8), dtype=int)
        counts[0] = [0, 5, 0, 0, 7, 0, 0, 0]
        obj = written_counts(tmp_path, ExperimentConfig(shots=12, noise=None), counts)
        assert set(obj["ZZZ"]) == {"001", "100"}
        assert obj["noise"] is None

    def test_largest_count_loads(self, tmp_path):
        path = tmp_path / "counts.json"
        obj = {s.label: {"000": 1} for s in tomography_scheme(3).settings}
        obj["ZZZ"] = {"000": 2**63 - 1, "111": 1}
        path.write_text(json.dumps(obj))
        assert load_counts_file(path, 3)[0].tolist() == [2**63 - 1, 0, 0, 0, 0, 0, 0, 1]

    def test_two_qubit_tables_load_in_setting_order(self, tmp_path):
        # 2-bit tables, listed in reverse, come back as the (7, 4) two-qubit settings in order
        counts = np.arange(1, 29).reshape(7, 4)
        labels = tomography_scheme(2).labels
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            label: {format(k, "02b"): int(c) for k, c in enumerate(row)}
            for label, row in reversed(list(zip(labels, counts)))
        }))
        assert np.array_equal(load_counts_file(path, 2), counts)

    @pytest.mark.parametrize("table, message", [
        ({"000": 5, "1111": 3}, "mixes bitstrings of lengths \\[3, 4\\]"),
        ({"000": 5, "11": 3}, "mixes bitstrings of lengths \\[2, 3\\]"),
        ({"000": 5, "012": 3}, "has key '012', not a bitstring"),
        ({"": 5}, "has key '', not a bitstring"),
        ({"000": -50, "001": 60}, "has count -50 for '000', not a non-negative integer"),
        ({"000": 5, "001": 2.7}, "has count 2.7 for '001', not a non-negative integer"),
        ({"000": 5, "001": 2.0}, "has count 2.0 for '001', not a non-negative integer"),
        ({"000": True}, "has count True for '000', not a non-negative integer"),
        ({"000": "5"}, "has count '5' for '000', not a non-negative integer"),
        ({"000": None}, "has count None for '000', not a non-negative integer"),
        ({"000": 0, "101": 0}, "has no counts"),
        ({"000": 2**63}, f"has count {2**63} for '000', more than {2**63 - 1}"),
        ({"0" * 44: 5}, "has 44-bit strings, more than the 3 qubits wtomo reads"),
        ({"1111": 5}, "has 4-bit strings, more than the 3 qubits wtomo reads"),
    ], ids=["longer", "shorter", "not-binary", "empty-key", "negative-count",
            "fractional-count", "float-count", "bool-count", "string-count", "null-count",
            "zero-sum", "beyond-int64", "44-bit", "4-bit"])
    def test_malformed_bitstrings_name_the_table(self, table, message, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"ZZZ": {"000": 1}, "XZZ": table}))
        with pytest.raises(ValueError, match=f"table 'XZZ' {message}"):
            load_counts_file(path, 3)


@pytest.fixture
def rng_calls(monkeypatch):
    """Every key given to np.random.default_rng, each with the (table, counts)
    of its generator's multinomial calls."""
    calls = []
    make = np.random.default_rng

    class Recorded:
        def __init__(self, key):
            self.rng, self.draws = make(key), []
            calls.append((key, self.draws))

        def multinomial(self, n, pvals):
            out = self.rng.multinomial(n, pvals)
            self.draws.append((pvals, out))
            return out

    monkeypatch.setattr(np.random, "default_rng", Recorded)
    return calls


def replay(table, widths, shots, key):
    """The counts of table's rows drawn one by one from default_rng(key), row j
    over its own outcomes, its last widths[j] columns; the columns before them
    count 0."""
    rng = np.random.default_rng(key)
    counts = np.zeros(table.shape, dtype=np.int64)
    for j, (row, width) in enumerate(zip(table, widths, strict=True)):
        counts[j, -width:] = rng.multinomial(shots, row[-width:])
    return counts


class TestSampleCircuits:
    def test_rows_draw_from_keyed_streams(self):
        # trial t draws its rows in order from the one stream [seed, t], each
        # row of a right-aligned table over its own outcomes
        table = np.array([[0, 0, 0.2, 0.8], [0, 0, 1.0, 0.0], [0.1, 0.2, 0.3, 0.4],
                          [0, 0, 0.5, 0.5]])
        counts = sample_counts(table, 1000, 7, 6)
        assert counts.shape == (6, 4, 4) and counts.dtype == np.int64
        for t in (3, 5):
            assert np.array_equal(counts[t], replay(table, [2, 2, 4, 2], 1000, [7, t])), t

    def test_word_keys_match_list_keys(self):
        # the stream of [seed, t] is the one numpy makes of their uint32 words
        # (least significant first), also where seed spans more than one 32-bit
        # word: no word is dropped or truncated
        def words(n):
            return [n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]

        table = np.array([[0, 0, 0.3, 0.7], [0.1, 0.2, 0.3, 0.4]])
        for seed in (0, 1234, 2**32 - 1, 2**32, 5 * 10**9, 2**64 + 3):
            counts = sample_counts(table, 1000, seed, 2)
            for t in (0, 1):
                key = np.array(words(seed) + words(t), dtype=np.uint32)
                assert np.array_equal(counts[t], replay(table, [2, 4], 1000, key)), (seed, t)

    def test_negative_key_is_rejected(self):
        # numpy's own key check: a negative seed has no 32-bit words
        with pytest.raises(ValueError, match="expected non-negative integer"):
            sample_counts(np.array([[0.5, 0.5]]), 10, -1, 1)

    @pytest.mark.parametrize("shots", [1, 2**62, 2**63 - 1])
    def test_groups_replay_row_by_row_at_extreme_shots(self, shots):
        # one multinomial call per trial over the right-aligned (37, 8) table
        # equals row-by-row draws over each group's own outcomes from the same
        # stream, and every row is a sample of shots, at numpy's int64 limit too
        dist = _noisy_probs(ReadoutModel.ibm_osaka())[1]
        counts = sample_counts(dist, shots, 1234, 2)
        for t in (0, 1):
            assert np.array_equal(counts[t], replay(dist, layout_widths(dist), shots, [1234, t])), t
        assert (counts.sum(axis=-1) == shots).all()

    @pytest.mark.parametrize("shots", [1, 2**62, 2**63 - 1])
    def test_one_generator_and_one_multinomial_call_per_trial(self, shots, rng_calls):
        # trial t makes one generator [seed, t] and one multinomial call over
        # the cached (37, 8) table itself; the columns before a row's group
        # draw no count
        dist = _noisy_probs(ReadoutModel.ibm_osaka())[1]
        counts = sample_counts(dist, shots, 1234, 3)
        assert counts.shape == (3, 37, 8)
        assert [key for key, _ in rng_calls] == [[1234, t] for t in (0, 1, 2)]
        for i, (_, draws) in enumerate(rng_calls):
            [(table, out)] = draws
            assert table is dist and np.array_equal(out, counts[i])
            for row, width in zip(out, layout_widths(dist), strict=True):
                assert not row[:8 - width].any()

    def test_outcome_distribution_is_what_sample_shots_draws_from(self):
        p = np.array([[0.25, 0.25, 0.5, 1e-12], [0.1, 0.2, 0.3, 0.4]])
        for row, dist in zip(p, outcome_distribution(p)):
            expected = np.clip(row, 0.0, None) / np.clip(row, 0.0, None).sum()
            assert np.array_equal(dist, expected)
        with pytest.raises(ValueError, match="invalid outcome distribution"):
            outcome_distribution(np.array([[0.5, 0.5], [0.6, 0.6]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcome_distribution_is_rejected(self, bad):
        # NaN fails both comparisons of the range and sum checks
        with pytest.raises(ValueError, match="invalid outcome distribution"):
            outcome_distribution(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="invalid outcome distribution"):
            outcome_distribution(np.array([[0.5, 0.5], [bad, 1.0]]))
