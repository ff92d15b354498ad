import numpy as np
import pytest

from wtomo.circuits import w_vector
from wtomo.io import load_density, save_density
from wtomo.linalg import outer, partial_trace
from wtomo.noise import exact_probs
from wtomo.tomography import (
    SCHEMES,
    _assemble,
    derive_scheme,
    real_parameters,
    reconstruct,
    tomography_scheme,
)

from conftest import random_density


def tables_for(rho, settings):
    return np.array([exact_probs(rho, s) for s in settings])


def parameters(rho):
    """The real parameters x of rho in real_parameters order: the inverse of _assemble."""
    return np.array([rho[r, c].imag if part == "im" else rho[r, c].real
                     for part, r, c in real_parameters(rho.shape[-1])])


def forward_map(scheme, rng):
    """The scheme's forward map M (L·d, d²), p = M x, taken from the simulator:
    exact_probs on d² random probe states gives the tables P = M X, so M = P X⁻¹."""
    dim = 2**scheme.nqubits
    probes = [random_density(dim, rng) for _ in range(dim**2)]
    tables = np.stack([tables_for(rho, scheme.settings).reshape(-1) for rho in probes], axis=1)
    return tables @ np.linalg.inv(np.stack([parameters(rho) for rho in probes], axis=1))


def row_settings(scheme, k):
    """Labels of the settings whose outcomes reconstruction row k reads."""
    dim = 2**scheme.nqubits
    return {scheme.labels[j // dim] for j in np.flatnonzero(scheme.reconstruction[k])}


def offdiagonal_rows(scheme):
    """(k, part, row, col) of every off-diagonal parameter."""
    params = real_parameters(2**scheme.nqubits)
    return [(k, *p) for k, p in enumerate(params) if p[0] != "diag"]


class TestSchemes:
    def test_one_scheme_per_qubit_count(self):
        for n, name, count in ((3, "ThreeQubit17", 17), (2, "TwoQubit7", 7)):
            scheme = tomography_scheme(n)
            assert scheme is tomography_scheme(n)  # derived once
            assert (scheme.name, scheme.nqubits, len(scheme.settings)) == (name, n, count)
            assert scheme.labels == SCHEMES[n][1]

    @pytest.mark.parametrize("nqubits", [0, 1, 4])
    def test_other_qubit_counts_are_rejected(self, nqubits):
        with pytest.raises(ValueError) as exc:
            tomography_scheme(nqubits)
        assert str(exc.value) == f"tomography schemes are for 2 or 3 qubits, not {nqubits}"

    def test_rule_counts(self, rng):
        # 8 diagonal + 2 * 28 off-diagonal real parameters for 3 qubits,
        # read from 17 (resp. 7) settings of 8 (resp. 4) outcomes each
        assert tomography_scheme(3).reconstruction.shape == (8 + 2 * 28, 17 * 8)
        assert tomography_scheme(2).reconstruction.shape == (4 + 2 * 6, 7 * 4)
        assert forward_map(tomography_scheme(3), rng).shape == (17 * 8, 64)
        assert forward_map(tomography_scheme(2), rng).shape == (7 * 4, 16)

    def test_every_element_covered(self):
        params = real_parameters(8)
        assert len(set(params)) == 64
        for r in range(8):
            assert ("diag", r, r) in params
            for c in range(r + 1, 8):
                assert ("re", r, c) in params
                assert ("im", r, c) in params
        # every parameter is read from at least one outcome
        assert np.abs(tomography_scheme(3).reconstruction).max(axis=1).min() > 0

    def test_diagonal_uses_all_z_only(self):
        for scheme, label in ((tomography_scheme(3), "ZZZ"), (tomography_scheme(2), "ZZ")):
            for k in range(2**scheme.nqubits):
                assert row_settings(scheme, k) == {label}

    def test_single_setting_per_offdiagonal_except_antidiagonal(self):
        scheme = tomography_scheme(3)
        for k, part, r, c in offdiagonal_rows(scheme):
            labels = row_settings(scheme, k)
            if r ^ c == 0b111:
                assert len(labels) == 2, (part, r, c, labels)
            else:
                assert len(labels) == 1, (part, r, c, labels)

    def test_antidiagonal_setting_pairs(self):
        scheme = tomography_scheme(3)
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
        for scheme in (tomography_scheme(3), tomography_scheme(2)):
            w = scheme.reconstruction
            assert np.abs(4 * w - np.round(4 * w)).max() <= 1e-9

    def test_reconstruction_inverts_measurement(self, rng):
        # against the physics the pipeline samples, not the derivation's own forward map
        for scheme in (tomography_scheme(3), tomography_scheme(2)):
            m = forward_map(scheme, rng)
            assert np.abs(scheme.reconstruction @ m - np.eye(m.shape[1])).max() <= 1e-12


class TestDerivation:
    def test_antidiagonal_needs_both_settings(self):
        assignment = dict(SCHEMES[3][2])
        assignment[0b111] = (("CXXZ_BC",), SCHEMES[3][2][0b111][1])
        with pytest.raises(RuntimeError, match=r"\('CXXZ_BC',\) cannot determine re rho\[0,7\]"):
            derive_scheme("broken", tomography_scheme(3).settings, assignment)

    def test_setting_that_hides_the_element_is_rejected(self):
        assignment = dict(SCHEMES[3][2])
        assignment[0b110] = (("XZZ",), SCHEMES[3][2][0b110][1])
        with pytest.raises(RuntimeError, match=r"\('XZZ',\) cannot determine re rho\[0,6\]"):
            derive_scheme("broken", tomography_scheme(3).settings, assignment)

    def test_incomplete_settings_are_singular(self):
        with pytest.raises(RuntimeError, match="numerically singular"):
            derive_scheme("broken", tomography_scheme(2).settings[:6], SCHEMES[2][2])


class TestRoundTrip:
    def test_w_state_exact(self):
        rho = outer(w_vector())
        got = reconstruct(tomography_scheme(3), tables_for(rho, tomography_scheme(3).settings))
        assert np.abs(got - rho).max() <= 1e-12

    def test_w_marginals_exact(self):
        rho = outer(w_vector())
        for keep in ([0, 1], [1, 2]):
            marg = partial_trace(rho, keep)
            got = reconstruct(tomography_scheme(2), tables_for(marg, tomography_scheme(2).settings))
            assert np.abs(got - marg).max() <= 1e-12

    def test_random_states_both_schemes(self, rng):
        for _ in range(25):
            rho3, scheme3 = random_density(8, rng), tomography_scheme(3)
            got3 = reconstruct(scheme3, tables_for(rho3, scheme3.settings))
            assert np.abs(got3 - rho3).max() <= 1e-10
            rho2, scheme2 = random_density(4, rng), tomography_scheme(2)
            got2 = reconstruct(scheme2, tables_for(rho2, scheme2.settings))
            assert np.abs(got2 - rho2).max() <= 1e-10

    def test_output_hermitian_unit_trace_on_noisy_input(self, rng):
        tables = tables_for(outer(w_vector()), tomography_scheme(3).settings)
        noisy = np.clip(tables + rng.normal(0, 0.01, size=tables.shape), 0, None)
        rho = reconstruct(tomography_scheme(3), noisy / noisy.sum(axis=-1, keepdims=True))
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_missing_table_raises(self):
        tables = tables_for(outer(w_vector()), tomography_scheme(3).settings)
        with pytest.raises(ValueError, match=r"ThreeQubit17 takes tables \(\.\.\., 17, 8\) "
                           r"in setting order, got shape \(16, 8\)"):
            reconstruct(tomography_scheme(3), tables[:16])

    def test_wrong_length_table_raises(self):
        tables = tables_for(partial_trace(outer(w_vector()), [0, 1]), tomography_scheme(2).settings)
        with pytest.raises(ValueError, match=r"TwoQubit7 takes tables \(\.\.\., 7, 4\) "
                           r"in setting order, got shape \(3, 7, 2\)"):
            reconstruct(tomography_scheme(2), np.stack([tables[:, :2]] * 3))

    def test_a_dict_of_tables_is_rejected(self):
        tables = tables_for(outer(w_vector()), tomography_scheme(3).settings)
        labels = [s.label for s in tomography_scheme(3).settings]
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            reconstruct(tomography_scheme(3), dict(zip(labels, tables)))


def lsq_fit(scheme, tables, rng):
    """Least-squares fit of a Hermitian matrix to every table of the scheme,
    through its forward map from the simulator."""
    x, *_ = np.linalg.lstsq(forward_map(scheme, rng), tables.reshape(-1), rcond=None)
    return _assemble(x, 2**scheme.nqubits)


class TestLsqReconstruct:
    """The forward map is exact and complete: least squares over all
    settings recovers exact data, and keeps unit trace on normalized tables
    because each setting's outcome operators sum to the identity."""

    def test_agrees_with_closed_form_on_exact_data(self, rng):
        scheme = tomography_scheme(2)
        rho = random_density(4, rng)
        tables = tables_for(rho, tomography_scheme(2).settings)
        assert np.abs(lsq_fit(scheme, tables, rng) - rho).max() <= 1e-9

    def test_three_qubit_exact(self, rng):
        scheme = tomography_scheme(3)
        rho = random_density(8, rng)
        tables = tables_for(rho, tomography_scheme(3).settings)
        assert np.abs(lsq_fit(scheme, tables, rng) - rho).max() <= 1e-8

    def test_output_constraints_on_noisy_data(self, rng):
        scheme = tomography_scheme(2)
        tables = tables_for(random_density(4, rng), tomography_scheme(2).settings)
        noisy = np.clip(tables + rng.normal(0, 0.02, tables.shape), 0, None)
        rho = lsq_fit(scheme, noisy / noisy.sum(axis=-1, keepdims=True), rng)
        assert np.abs(rho - rho.conj().T).max() <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-10


class TestSerialization:
    def test_json_roundtrip(self, rng, tmp_path):
        rho = random_density(8, rng)
        path = tmp_path / "rho.json"
        save_density(rho, path)
        assert np.abs(load_density(path, 3) - rho).max() <= 1e-15

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "rho.json"
        save_density(np.eye(4) / 4, path)
        path.write_text(path.read_text().replace('"nqubits": 2', '"nqubits": 3'))
        with pytest.raises(ValueError, match="inconsistent with nqubits"):
            load_density(path, 3)
