import numpy as np
import pytest

from wtomo.circuits import w_vector
from wtomo.linalg import outer
from wtomo.metrics import FidelityReport, fidelity_pure, trace_distance

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

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(w_vector(), np.eye(4) / 4)


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = random_density(8, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0]).astype(complex)
        b = np.diag([0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_symmetry_and_triangle(self, rng):
        a, b, c = (random_density(4, rng) for _ in range(3))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


class TestFidelityReport:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FidelityReport(0, 100, False, f_full=1.2, f_parts=0.5)

    def test_nan_allowed_for_skipped_scheme(self):
        r = FidelityReport(0, 100, False, f_full=float("nan"), f_parts=0.5)
        assert np.isnan(r.f_full)
