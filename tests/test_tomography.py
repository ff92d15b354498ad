import numpy as np
import pytest

from wtomo.circuits import three_qubit_settings, two_qubit_settings, w_vector
from wtomo.io import density_from_json_dict, density_to_json_dict, load_density, save_density
from wtomo.linalg import outer, partial_trace
from wtomo.noise import exact_probs
from wtomo.tomography import (
    _ASSIGN_2Q,
    _ASSIGN_3Q,
    derive_scheme,
    lsq_reconstruct,
    real_parameters,
    reconstruct_2q,
    reconstruct_3q,
    three_qubit_scheme,
    two_qubit_scheme,
)

from conftest import random_density


def tables_for(rho, settings):
    return {s.label: exact_probs(rho, s) for s in settings}


def row_settings(scheme, k):
    """Labels of the settings whose outcomes reconstruction row k reads."""
    dim = 2**scheme.nqubits
    return {scheme.labels[j // dim] for j in np.flatnonzero(scheme.reconstruction[k])}


def offdiagonal_rows(scheme):
    """(k, part, row, col) of every off-diagonal parameter."""
    params = real_parameters(2**scheme.nqubits)
    return [(k, *p) for k, p in enumerate(params) if p[0] != "diag"]


class TestSchemes:
    def test_rule_counts(self):
        # 8 diagonal + 2 * 28 off-diagonal real parameters for 3 qubits,
        # read from 17 (resp. 7) settings of 8 (resp. 4) outcomes each
        assert three_qubit_scheme().reconstruction.shape == (8 + 2 * 28, 17 * 8)
        assert two_qubit_scheme().reconstruction.shape == (4 + 2 * 6, 7 * 4)
        assert three_qubit_scheme().measurement.shape == (17 * 8, 64)
        assert two_qubit_scheme().measurement.shape == (7 * 4, 16)

    def test_every_element_covered(self):
        params = real_parameters(8)
        assert len(set(params)) == 64
        for r in range(8):
            assert ("diag", r, r) in params
            for c in range(r + 1, 8):
                assert ("re", r, c) in params
                assert ("im", r, c) in params
        # every parameter is read from at least one outcome
        assert np.abs(three_qubit_scheme().reconstruction).max(axis=1).min() > 0

    def test_diagonal_uses_all_z_only(self):
        for scheme, label in ((three_qubit_scheme(), "ZZZ"), (two_qubit_scheme(), "ZZ")):
            for k in range(2**scheme.nqubits):
                assert row_settings(scheme, k) == {label}

    def test_single_setting_per_offdiagonal_except_antidiagonal(self):
        scheme = three_qubit_scheme()
        for k, part, r, c in offdiagonal_rows(scheme):
            labels = row_settings(scheme, k)
            if r ^ c == 0b111:
                assert len(labels) == 2, (part, r, c, labels)
            else:
                assert len(labels) == 1, (part, r, c, labels)

    def test_antidiagonal_setting_pairs(self):
        scheme = three_qubit_scheme()
        for k, part, r, c in offdiagonal_rows(scheme):
            if r ^ c != 0b111:
                continue
            if part == "re":
                assert row_settings(scheme, k) == {"CXXZ_BC", "CYYZ_BC"}
            else:
                assert row_settings(scheme, k) == {"CXYZ_BC", "CYXZ_BC"}

    def test_coefficients_are_half_integers(self):
        # derivation recovers the exact analytic weights (+-1/2, +-1/4, 1):
        # every weight is a multiple of 1/4
        for scheme in (three_qubit_scheme(), two_qubit_scheme()):
            w = scheme.reconstruction
            assert np.abs(4 * w - np.round(4 * w)).max() <= 1e-9

    def test_reconstruction_inverts_measurement(self):
        for scheme in (three_qubit_scheme(), two_qubit_scheme()):
            n = scheme.measurement.shape[1]
            assert np.abs(scheme.reconstruction @ scheme.measurement - np.eye(n)).max() <= 1e-12


class TestDerivation:
    def test_antidiagonal_needs_both_settings(self):
        assignment = dict(_ASSIGN_3Q)
        assignment[0b111] = (("CXXZ_BC",), _ASSIGN_3Q[0b111][1])
        with pytest.raises(RuntimeError, match=r"\('CXXZ_BC',\) cannot determine re rho\[0,7\]"):
            derive_scheme("broken", three_qubit_settings(), assignment)

    def test_setting_that_hides_the_element_is_rejected(self):
        assignment = dict(_ASSIGN_3Q)
        assignment[0b110] = (("XZZ",), _ASSIGN_3Q[0b110][1])
        with pytest.raises(RuntimeError, match=r"\('XZZ',\) cannot determine re rho\[0,6\]"):
            derive_scheme("broken", three_qubit_settings(), assignment)

    def test_incomplete_settings_are_singular(self):
        with pytest.raises(RuntimeError, match="numerically singular"):
            derive_scheme("broken", two_qubit_settings()[:6], _ASSIGN_2Q)


class TestRoundTrip:
    def test_w_state_exact(self):
        rho = outer(w_vector())
        got = reconstruct_3q(tables_for(rho, three_qubit_settings()))
        assert np.abs(got - rho).max() <= 1e-12

    def test_w_marginals_exact(self):
        rho = outer(w_vector())
        for keep in ([0, 1], [1, 2]):
            marg = partial_trace(rho, keep)
            got = reconstruct_2q(tables_for(marg, two_qubit_settings()))
            assert np.abs(got - marg).max() <= 1e-12

    def test_random_states_both_schemes(self, rng):
        for _ in range(25):
            rho3 = random_density(8, rng)
            got3 = reconstruct_3q(tables_for(rho3, three_qubit_settings()))
            assert np.abs(got3 - rho3).max() <= 1e-10
            rho2 = random_density(4, rng)
            got2 = reconstruct_2q(tables_for(rho2, two_qubit_settings()))
            assert np.abs(got2 - rho2).max() <= 1e-10

    def test_output_hermitian_unit_trace_on_noisy_input(self, rng):
        tables = tables_for(outer(w_vector()), three_qubit_settings())
        noisy = {l: np.clip(p + rng.normal(0, 0.01, size=8), 0, None) for l, p in tables.items()}
        noisy = {l: p / p.sum() for l, p in noisy.items()}
        rho = reconstruct_3q(noisy)
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_missing_table_raises(self):
        tables = tables_for(outer(w_vector()), three_qubit_settings())
        tables.pop("CXXZ_BC")
        with pytest.raises(ValueError):
            reconstruct_3q(tables)

    def test_wrong_length_table_raises(self):
        tables = tables_for(outer(w_vector()), three_qubit_settings())
        tables["ZZZ"] = tables["ZZZ"][:4]
        with pytest.raises(ValueError, match="table for ZZZ has wrong length"):
            reconstruct_3q(tables)


class TestLsqReconstruct:
    def test_agrees_with_closed_form_on_exact_data(self, rng):
        scheme = two_qubit_scheme()
        rho = random_density(4, rng)
        tables = tables_for(rho, two_qubit_settings())
        assert np.abs(lsq_reconstruct(scheme, tables) - rho).max() <= 1e-9

    def test_three_qubit_exact(self, rng):
        scheme = three_qubit_scheme()
        rho = random_density(8, rng)
        tables = tables_for(rho, three_qubit_settings())
        assert np.abs(lsq_reconstruct(scheme, tables) - rho).max() <= 1e-8

    def test_output_constraints_on_noisy_data(self, rng):
        scheme = two_qubit_scheme()
        tables = tables_for(random_density(4, rng), two_qubit_settings())
        noisy = {l: np.clip(p + rng.normal(0, 0.02, 4), 0, None) for l, p in tables.items()}
        noisy = {l: p / p.sum() for l, p in noisy.items()}
        rho = lsq_reconstruct(scheme, noisy)
        assert np.abs(rho - rho.conj().T).max() <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-10


class TestSerialization:
    def test_json_roundtrip(self, rng, tmp_path):
        rho = random_density(8, rng)
        path = tmp_path / "rho.json"
        save_density(rho, path)
        assert np.abs(load_density(path, 3) - rho).max() <= 1e-15

    def test_dict_roundtrip(self, rng):
        rho = random_density(4, rng)
        assert np.allclose(density_from_json_dict(density_to_json_dict(rho)), rho)

    def test_shape_mismatch_rejected(self):
        d = density_to_json_dict(np.eye(4) / 4)
        d["nqubits"] = 3
        with pytest.raises(ValueError):
            density_from_json_dict(d)
