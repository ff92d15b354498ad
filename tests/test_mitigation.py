import numpy as np
import pytest

from wtomo.linalg import outer
from wtomo.circuits import w_vector
from wtomo.io import load_calibration, save_calibration
from wtomo.mitigation import check_calibration_matrix, mitigation_matrix, spectral_correct
from wtomo.noise import ReadoutModel, apply_readout_noise

from conftest import random_density, random_pure


class TestMitigateProbs:
    # mitigated probabilities are mitigation_matrix(fs) @ p
    def test_identity_calibration_is_noop(self, rng):
        p = rng.random(8)
        p /= p.sum()
        got = mitigation_matrix([np.eye(2)] * 3) @ p
        assert np.abs(got - p).max() <= 1e-10

    def test_exactly_inverts_forward_noise(self, rng):
        model = ReadoutModel.ibm_osaka()
        p = rng.random(8)
        p /= p.sum()
        noisy = apply_readout_noise(p, model)
        fs = [q.calibration_matrix() for q in model.qubits]
        assert np.abs(mitigation_matrix(fs) @ noisy - p).max() <= 1e-10

    def test_preserves_total_probability(self, rng):
        model = ReadoutModel.ibm_osaka()
        fs = [q.calibration_matrix() for q in model.qubits]
        p = rng.random(8)
        p /= p.sum()
        assert abs((mitigation_matrix(fs) @ p).sum() - 1.0) <= 1e-10

    def test_negative_entries_pass_through(self):
        # inversion may produce small negatives; they must not be clipped
        f = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = np.array([0.05, 0.95])
        got = mitigation_matrix([f]) @ p
        assert got[0] < 0
        assert abs(got.sum() - 1.0) <= 1e-10

    def test_is_the_mitigation_matrix_product(self):
        # the Kronecker product of the inverses, qubit A most significant
        fs = [q.calibration_matrix() for q in ReadoutModel.ibm_osaka().qubits]
        inv = [np.linalg.inv(f) for f in fs]
        assert np.array_equal(mitigation_matrix(fs), np.kron(np.kron(inv[0], inv[1]), inv[2]))


class TestMitigationMatrix:
    @pytest.mark.parametrize("bad, message", [
        ([[0.9, 0.2], [0.2, 0.9]], "not column-stochastic"),
        ([[0.5, 0.5], [0.5, 0.5]], "singular"),
    ], ids=["not-stochastic", "singular"])
    def test_rejects_bad_calibration(self, bad, message):
        fs = [np.array([[0.99, 0.02], [0.01, 0.98]]), np.array(bad)]
        with pytest.raises(ValueError, match=message):
            mitigation_matrix(fs)


class TestCheckCalibrationMatrix:
    def test_valid(self):
        check_calibration_matrix(np.array([[0.99, 0.02], [0.01, 0.98]]))

    def test_not_column_stochastic(self):
        with pytest.raises(ValueError):
            check_calibration_matrix(np.array([[0.9, 0.2], [0.2, 0.9]]))

    def test_singular(self):
        with pytest.raises(ValueError):
            check_calibration_matrix(np.full((2, 2), 0.5))

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            check_calibration_matrix(np.eye(3))


class TestSpectralCorrect:
    def test_reference_spectrum(self):
        # diag(0.6, 0.5, -0.1, 0) -> diag(6/11, 5/11, 0, 0)
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        got = spectral_correct(rho)
        assert np.abs(got - np.diag([6 / 11, 5 / 11, 0, 0])).max() <= 1e-12

    def test_physical_input_unchanged(self, rng):
        rho = random_density(8, rng)
        assert np.abs(spectral_correct(rho) - rho).max() <= 1e-10

    def test_idempotent(self, rng):
        for _ in range(20):
            h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = (h + h.conj().T) / 2
            h = h / np.trace(h).real if abs(np.trace(h)) > 0.1 else h + np.eye(8)
            try:
                once = spectral_correct(h)
            except ValueError:
                continue
            twice = spectral_correct(once)
            assert np.abs(twice - once).max() <= 1e-12

    def test_output_is_density_matrix(self, rng):
        rho = outer(w_vector()) + 0.05 * (np.diag([1.0, -1, 0, 0, 0, 0, 0, 0]))
        got = spectral_correct(rho)
        assert abs(np.trace(got) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(got).min() >= -1e-12
        assert np.abs(got - got.conj().T).max() <= 1e-12

    def test_eigenbasis_preserved(self, rng):
        # correction only reweights the spectrum, never rotates eigenvectors:
        # a negative eigenvalue direction is simply zeroed out
        v = random_pure(4, rng)
        w = random_pure(4, rng)
        w = w - np.vdot(v, w) * v
        w /= np.linalg.norm(w)
        rho = 1.1 * np.outer(v, v.conj()) - 0.1 * np.outer(w, w.conj())
        got = spectral_correct(rho)
        assert np.abs(got - np.outer(v, v.conj())).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            spectral_correct(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            spectral_correct(-np.eye(2).astype(complex))


class TestCalibrationIO:
    def test_roundtrip(self, tmp_path):
        model = ReadoutModel.ibm_osaka()
        fs = [q.calibration_matrix() for q in model.qubits]
        path = tmp_path / "calib.json"
        save_calibration(fs, ["qA", "qB", "qC"], path)
        loaded = load_calibration(path)
        assert list(loaded) == ["qA", "qB", "qC"]
        for f, (_, g) in zip(fs, loaded.items()):
            assert np.allclose(f, g)
