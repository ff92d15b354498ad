import re

import numpy as np
import pytest

from wtomo import metrics
from wtomo.circuits import w_vector
from wtomo.linalg import outer
from wtomo.metrics import fidelity_pure

from conftest import random_density

W = w_vector()


def off_w(x):
    """A Hermitian matrix of trace 1 with <W|rho|W> = x: weight x on W and
    1 - x on |000>, which is orthogonal to it."""
    return x * outer(W) + (1 - x) * outer(np.eye(8, dtype=complex)[0])


class TestFidelityPure:
    def test_perfect_state(self):
        assert fidelity_pure(outer(W)) == pytest.approx(1.0)

    def test_orthogonal_state(self):
        assert fidelity_pure(off_w(0.0)) == pytest.approx(0.0)

    def test_square_root_convention(self):
        # mixing W with an orthogonal state at weight 1/2 gives F = sqrt(1/2), not 1/2
        assert fidelity_pure(off_w(0.5)) == pytest.approx(np.sqrt(0.5))

    def test_range(self, rng):
        for _ in range(20):
            f = fidelity_pure(random_density(8, rng))
            assert 0.0 <= f <= 1.0

    def test_rejects_value_outside_unit_interval(self):
        # <W|rho|W> of -0.5 or 1.5 is no roundoff: it is rejected, not clamped,
        # for one matrix and for a member of a stack
        for overlap in (-0.5, 1.5):
            rho = off_w(overlap)
            for arg in (rho, np.stack([np.eye(8) / 8, rho])):
                with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                    fidelity_pure(arg)

    def test_roundoff_window_is_1e_12(self):
        # <W|rho|W> within 1e-12 outside [0, 1] is roundoff and is clamped; 5e-12 is not
        assert fidelity_pure((1 + 5e-13) * outer(W)) == 1.0
        assert fidelity_pure(off_w(-5e-13)) == 0.0
        for rho in ((1 + 5e-12) * outer(W), off_w(-5e-12)):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                fidelity_pure(rho)

    def test_rejects_a_shape_other_than_a_stack_of_8x8(self):
        for shape in ((4, 4), (8,), (), (2, 8, 4)):
            message = f"expected an (..., 8, 8) stack, got shape {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fidelity_pure(np.zeros(shape))

    def test_the_target_is_w_and_read_only(self):
        # the closed form, bitwise: a fidelity is a function of rho alone
        rho = 0.9 * outer(W) + 0.1 * np.eye(8) / 8
        assert fidelity_pure(rho) == np.sqrt(np.real(W.conj() @ (rho @ W)[..., None])[..., 0])
        with pytest.raises(ValueError, match="read-only"):
            metrics._W[0] = 1
