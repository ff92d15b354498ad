import itertools

import numpy as np
import pytest

from wtomo.circuits import w_vector
from wtomo.io import reconstruction_to_json_dict
from wtomo.linalg import eig_hermitian, outer, partial_trace
from wtomo.wholeparts import (
    DegenerateSpectrumError,
    InconsistentMarginalsError,
    MarginalPair,
    TooMixedError,
    _fix_vector_gauge,
    diosi_reconstruct,
    purify_structures,
    single_party_marginals,
    solve_phases,
)

from conftest import random_pure


def marginal_pair_of(psi, eps_b=1e-10):
    rho = outer(psi)
    return MarginalPair(partial_trace(rho, [0, 1]), partial_trace(rho, [1, 2]), eps_b)


def spectral_gap(psi):
    rho_a = partial_trace(outer(psi), [0])
    w = np.linalg.eigvalsh(rho_a)
    return abs(w[1] - w[0])


def random_gapped_pure(rng, gap=0.05):
    while True:
        psi = random_pure(8, rng)
        if spectral_gap(psi) > gap:
            return psi


class TestSinglePartyMarginals:
    def test_w_state(self):
        rho_a, rho_b, rho_c = single_party_marginals(marginal_pair_of(w_vector()))
        for rho in (rho_a, rho_b, rho_c):
            assert np.abs(rho - np.diag([2 / 3, 1 / 3])).max() <= 1e-12

    def test_inconsistent_shared_qubit_rejected(self):
        pair = MarginalPair(np.diag([1.0, 0, 0, 0]).astype(complex),
                            np.diag([0, 0, 0, 1.0]).astype(complex), eps_b=0.05)
        with pytest.raises(InconsistentMarginalsError):
            single_party_marginals(pair)

    def test_unnormalized_inputs_warn_and_renormalize(self):
        pair = marginal_pair_of(w_vector())
        scaled = MarginalPair(0.98 * pair.rho_ab, 0.98 * pair.rho_bc, 1e-6)
        with pytest.warns(UserWarning):
            rho_a, _, _ = single_party_marginals(scaled)
        assert abs(np.trace(rho_a) - 1.0) <= 1e-12


class TestPurifyStructures:
    def test_w_state_spectra(self):
        t = purify_structures(marginal_pair_of(w_vector()))
        assert np.allclose(t.lambda_a, [2 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(t.lambda_c, [2 / 3, 1 / 3], atol=1e-12)

    def test_overlap_tensor_unitarity(self, rng):
        # columns of the bipartite eigenvectors expanded in the product
        # eigenbasis keep unit norm
        t = purify_structures(marginal_pair_of(random_gapped_pure(rng)))
        for i in range(2):
            assert abs(np.abs(t.a_tensor[i]) ** 2 * 1.0).sum() <= 1.0 + 1e-10

    def test_overlap_tensors_match_kron_loop(self, rng):
        # reference: one vdot of a Kronecker product per entry; the einsum sums
        # 4 products in another order, so entries agree to a few ulps
        for _ in range(20):
            pair = marginal_pair_of(random_gapped_pure(rng))
            a, b, c, ab, bc = (
                np.column_stack([_fix_vector_gauge(v) for v in eig_hermitian(rho).eigenvectors[:, :2].T])
                for rho in (*single_party_marginals(pair), pair.rho_ab, pair.rho_bc)
            )
            t = purify_structures(pair)
            assert np.array_equal(t.vectors_a, a) and np.array_equal(t.vectors_bc, bc)
            for i, j, k in itertools.product(range(2), repeat=3):
                a_ref = np.vdot(np.kron(b[:, j], c[:, k]), bc[:, i])
                c_ref = np.vdot(np.kron(a[:, i], b[:, j]), ab[:, k])
                assert abs(t.a_tensor[i, j, k] - a_ref) <= 1e-15
                assert abs(t.c_tensor[k, i, j] - c_ref) <= 1e-15

    def test_too_mixed_rejected(self):
        pair = MarginalPair(np.eye(4, dtype=complex) / 4, np.eye(4, dtype=complex) / 4, 1e-6)
        with pytest.raises(TooMixedError):
            purify_structures(pair)


class TestSolvePhases:
    def test_ghz_degenerate_spectrum_raises(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        with pytest.raises(DegenerateSpectrumError):
            solve_phases(purify_structures(marginal_pair_of(ghz)))

    def test_real_nonnegative_state_gives_sign_factors(self, rng):
        # for a real, entrywise non-negative global state the solved branch
        # phase factors are +-1 (real) under the deterministic eigenvector
        # gauge, and the reconstruction is still exact
        for _ in range(10):
            psi = np.abs(random_gapped_pure(rng)).astype(complex)
            psi /= np.linalg.norm(psi)
            if spectral_gap(psi) <= 0.05:
                continue
            alpha = solve_phases(purify_structures(marginal_pair_of(psi)))
            factors = np.exp(1j * alpha)
            assert np.abs(factors.imag).max() <= 1e-6
            res = diosi_reconstruct(marginal_pair_of(psi))
            assert abs(abs(np.vdot(psi, res.psi)) - 1.0) <= 1e-8


class TestDiosiReconstruct:
    def test_w_state_exact(self):
        res = diosi_reconstruct(marginal_pair_of(w_vector()))
        assert abs(abs(np.vdot(w_vector(), res.psi)) - 1.0) <= 1e-10
        assert res.residual_ab <= 1e-8 and res.residual_bc <= 1e-8

    def test_random_pure_states(self, rng):
        for _ in range(30):
            psi = random_gapped_pure(rng)
            res = diosi_reconstruct(marginal_pair_of(psi))
            overlap2 = abs(np.vdot(psi, res.psi)) ** 2
            assert overlap2 >= 1 - 1e-8
            assert res.residual_ab <= 1e-6 and res.residual_bc <= 1e-6

    def test_output_normalized_and_gauge_fixed(self, rng):
        res = diosi_reconstruct(marginal_pair_of(random_gapped_pure(rng)))
        assert abs(np.linalg.norm(res.psi) - 1.0) <= 1e-12
        k = int(np.argmax(np.abs(res.psi)))
        assert res.psi[k].real > 0 and abs(res.psi[k].imag) <= 1e-12

    def test_local_unitary_covariance(self, rng):
        # relabeling each qubit by a local unitary commutes with reconstruction
        psi = random_gapped_pure(rng)
        us = []
        for _ in range(3):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            us.append(q)
        u = np.kron(np.kron(us[0], us[1]), us[2])
        res = diosi_reconstruct(marginal_pair_of(u @ psi))
        assert abs(abs(np.vdot(u @ psi, res.psi)) - 1.0) <= 1e-8

    def test_product_state(self):
        # |0> x |+> x |1>: rho_A is pure (spectrum 1, 0 - gap fine)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        psi = np.kron(np.kron(zero, plus), one)
        res = diosi_reconstruct(marginal_pair_of(psi))
        assert abs(abs(np.vdot(psi, res.psi)) - 1.0) <= 1e-10

    def test_truncated_mass_reported(self, rng):
        res = diosi_reconstruct(marginal_pair_of(random_gapped_pure(rng)))
        assert set(res.truncated_mass) == {"rho_a", "rho_b", "rho_c", "rho_ab", "rho_bc"}
        assert all(v <= 1e-10 for v in res.truncated_mass.values())

    def test_json_dict(self, rng):
        res = diosi_reconstruct(marginal_pair_of(w_vector()))
        d = reconstruction_to_json_dict(res)
        psi = np.array(d["re"]) + 1j * np.array(d["im"])
        assert np.allclose(psi, res.psi)
        assert d["nqubits"] == 3
