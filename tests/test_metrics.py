import numpy as np
import pytest

from wtomo.circuits import w_vector
from wtomo.linalg import outer
from wtomo.metrics import fidelity_pure

from conftest import random_density, random_pure


class TestFidelityPure:
    def test_perfect_state(self):
        assert fidelity_pure(w_vector(), outer(w_vector())) == pytest.approx(1.0)

    def test_orthogonal_state(self):
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1
        assert fidelity_pure(w_vector(), outer(e0)) == pytest.approx(0.0)

    def test_square_root_convention(self):
        # mixing the target with an orthogonal state at weight 1/2 gives
        # F = sqrt(1/2), not 1/2
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1
        rho = 0.5 * outer(w_vector()) + 0.5 * outer(e0)
        assert fidelity_pure(w_vector(), rho) == pytest.approx(np.sqrt(0.5))

    def test_global_phase_invariance(self, rng):
        psi = random_pure(8, rng)
        rho = random_density(8, rng)
        a = fidelity_pure(psi, rho)
        b = fidelity_pure(np.exp(1.3j) * psi, rho)
        assert a == pytest.approx(b, abs=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            f = fidelity_pure(random_pure(8, rng), random_density(8, rng))
            assert 0.0 <= f <= 1.0

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError):
            fidelity_pure(np.ones(8), np.eye(8) / 8)

    def test_rejects_value_outside_unit_interval(self):
        # <e0|rho|e0> of -0.5 or 1.5 is no roundoff: it is rejected, not clamped,
        # for one matrix and for a member of a stack
        e0 = np.eye(8, dtype=complex)[0]
        for overlap in (-0.5, 1.5):
            rho = np.diag([overlap, 1 - overlap, 0, 0, 0, 0, 0, 0]).astype(complex)
            for arg in (rho, np.stack([np.eye(8) / 8, rho])):
                with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                    fidelity_pure(e0, arg)

    def test_roundoff_window_is_1e_12(self):
        # <psi|rho|psi> within 1e-12 outside [0, 1] is roundoff and is clamped; 5e-12 is not
        w, e0 = w_vector(), np.eye(8, dtype=complex)[0]

        def low(x):  # <e0|rho|e0> = x
            return np.diag([x, 1 - x, 0, 0, 0, 0, 0, 0]).astype(complex)

        assert fidelity_pure(w, (1 + 5e-13) * outer(w)) == 1.0
        assert fidelity_pure(e0, low(-5e-13)) == 0.0
        for psi, rho in ((w, (1 + 5e-12) * outer(w)), (e0, low(-5e-12))):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                fidelity_pure(psi, rho)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(w_vector(), np.eye(4) / 4)

