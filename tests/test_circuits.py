import numpy as np
import pytest

from wtomo.circuits import (
    H,
    I2,
    MeasurementSetting,
    cnot_matrix,
    lift,
    prepare_w,
    rx,
    w_vector,
)
from wtomo.tomography import tomography_scheme


def is_unitary(u, tol=1e-12):
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= tol


class TestGates:
    def test_lift_single_qubit(self):
        assert np.allclose(lift(H, 0, 1), H)

    def test_rx_half_pi(self):
        expected = np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2)
        assert np.allclose(rx(np.pi / 2), expected, atol=1e-15)

    def test_cnot_distant_target(self):
        # CNOT(control 0, target 2) on 3 qubits maps |100> -> |101>
        c = cnot_matrix(0, 2, 3)
        v = np.zeros(8)
        v[0b100] = 1
        out = c @ v
        assert out[0b101] == 1

    def test_cnot_errors(self):
        with pytest.raises(ValueError):
            cnot_matrix(0, 0, 2)
        with pytest.raises(ValueError):
            cnot_matrix(0, 3, 2)

class TestSettings:
    def test_labels_unique_and_fixed(self):
        assert len(set(tomography_scheme(3).labels)) == 17
        assert len(set(tomography_scheme(2).labels)) == 7

    def test_all_unitary(self):
        for s in tomography_scheme(3).settings + tomography_scheme(2).settings:
            assert is_unitary(s.unitary()), s.label

    def test_identity_setting(self):
        s = MeasurementSetting.from_label("ZZZ", 3)
        assert np.allclose(s.unitary(), np.eye(8))

    def test_local_hadamard_block(self):
        s = MeasurementSetting.from_label("XZZ", 3)
        assert np.allclose(s.unitary(), np.kron(H, np.eye(4)))

    def test_cnot_setting_structure(self):
        # CXZZ_AB = (H x I x I) . CNOT with control on the rotated qubit A
        s = MeasurementSetting.from_label("CXZZ_AB", 3)
        assert s.cnot == (0, 1)
        expected = np.kron(H, np.eye(4)) @ cnot_matrix(0, 1, 3)
        assert np.allclose(s.unitary(), expected)

    def test_ac_setting_control_on_gate_qubit(self):
        # for the AC pair the non-Z gate sits on C, so C is the control
        s = MeasurementSetting.from_label("CZZX_AC", 3)
        assert s.cnot == (2, 0)

    def test_malformed_labels(self):
        for bad in ("QZZ", "ZZ", "CXZZ", "CXZZ_AD"):
            with pytest.raises(ValueError):
                MeasurementSetting.from_label(bad, 3)

    def test_cnot_setting_exposes_coherence(self):
        # (H x I x I) CNOT_AB on the W state: the outcome statistics must
        # determine Re rho_{010;100} = 1/3 (checked via the scheme's row)
        from wtomo.noise import exact_probs
        from wtomo.tomography import real_parameters

        scheme = tomography_scheme(3)
        rho_w = np.outer(w_vector(), w_vector().conj())
        p = np.concatenate([exact_probs(rho_w, s) for s in tomography_scheme(3).settings])
        row = scheme.reconstruction[real_parameters(8).index(("re", 0b010, 0b100))]
        assert {scheme.labels[j // 8] for j in np.flatnonzero(row)} == {"CXZZ_AB"}
        assert abs(row @ p - 1 / 3) <= 1e-12


class TestPrepareW:
    def test_amplitudes(self):
        psi = prepare_w()
        target = w_vector()
        # equality up to global phase
        assert abs(abs(np.vdot(target, psi)) - 1.0) <= 1e-12
        for idx in (0, 3, 5, 6, 7):
            assert abs(psi[idx]) <= 1e-12
        for idx in (1, 2, 4):
            assert abs(abs(psi[idx]) - 1 / np.sqrt(3)) <= 1e-12

    def test_normalized(self):
        assert abs(np.linalg.norm(prepare_w()) - 1.0) <= 1e-12
