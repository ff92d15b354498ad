import tracemalloc

import numpy as np
import pytest

from wtomo.circuits import H, I2, cnot_matrix, w_vector
from wtomo.linalg import (
    eig_hermitian,
    outer,
    partial_trace,
)

from conftest import random_density


def brute_partial_trace(rho, keep, n):
    """Independent oracle: explicit index-arithmetic sum."""
    traced = [q for q in range(n) if q not in keep]
    d = 2 ** len(keep)
    out = np.zeros((d, d), dtype=complex)

    def full_index(kept_bits, traced_bits):
        bits = [0] * n
        for q, b in zip(keep, kept_bits):
            bits[q] = b
        for q, b in zip(traced, traced_bits):
            bits[q] = b
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    for r in range(d):
        for c in range(d):
            rb = [(r >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
            cb = [(c >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
            for t in range(2 ** len(traced)):
                tb = [(t >> (len(traced) - 1 - i)) & 1 for i in range(len(traced))]
                out[r, c] += rho[full_index(rb, tb), full_index(cb, tb)]
    return out


class TestMatmul:
    """Products of the gate constants."""

    def test_identity(self):
        assert np.allclose(I2 @ H, H)

    def test_hadamard_involutive(self):
        assert np.allclose(H @ H, I2)

    def test_cnot_involutive(self):
        c = cnot_matrix(0, 1, 2)
        assert np.allclose(c @ c, np.eye(4))


class TestKron:
    # the package's qubit order: the left factor is the most significant qubit
    def test_identity(self):
        assert np.allclose(np.kron(I2, I2), np.eye(4))

    def test_projectors(self):
        p = np.diag([1.0, 0.0])
        assert np.allclose(np.kron(p, p), np.diag([1, 0, 0, 0]))

    def test_column_stochastic_product(self, rng):
        # tensor product of column-stochastic matrices stays column-stochastic
        def stoch():
            f = rng.random((2, 2))
            return f / f.sum(axis=0)

        fa, fb = stoch(), stoch()
        assert np.allclose(np.kron(fa, fb).sum(axis=0), 1.0)

    def test_associativity(self, rng):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))).max() <= 1e-12


class TestEigHermitian:
    def test_diagonal(self):
        w, v = eig_hermitian(np.diag([2 / 3, 1 / 3]).astype(complex))
        assert np.allclose(w, [2 / 3, 1 / 3])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w, v = eig_hermitian(x)
        assert np.allclose(w, [1, -1])
        for col, lam in zip(v.T, w):
            assert np.allclose(x @ col, lam * col)

    def test_w_marginal_spectrum(self):
        # oracle: brute-force partial trace, then characteristic polynomial
        rho_w = np.outer(w_vector(), w_vector().conj())
        rho_ab = brute_partial_trace(rho_w, [0, 1], 3)
        char_roots = np.sort(np.real(np.roots(np.poly(rho_ab))))[::-1]
        w, _ = eig_hermitian(rho_ab)
        assert np.allclose(w, char_roots, atol=1e-9)
        assert np.allclose(w, [2 / 3, 1 / 3, 0, 0], atol=1e-9)

    def test_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 4, 8):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (h + h.conj().T) / 2
            w, v = eig_hermitian(h)
            assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-9
            gram = v.conj().T @ v
            assert np.abs(gram - np.eye(dim)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((2, 3), dtype=complex))


class TestPartialTrace:
    def test_w_single_qubit(self):
        rho_w = np.outer(w_vector(), w_vector().conj())
        expected = brute_partial_trace(rho_w, [0], 3)
        assert np.allclose(partial_trace(rho_w, [0]), expected)
        assert np.allclose(expected, np.diag([2 / 3, 1 / 3]))

    def test_w_two_qubit(self):
        rho_w = np.outer(w_vector(), w_vector().conj())
        got = partial_trace(rho_w, [0, 1])
        assert np.allclose(got, brute_partial_trace(rho_w, [0, 1], 3))
        # (1/3)|00><00| + (1/3)(|01>+|10>)(<01|+<10|)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1 / 3
        for r in (1, 2):
            for c in (1, 2):
                expected[r, c] = 1 / 3
        assert np.allclose(got, expected)

    def test_product_state_factors(self, rng):
        ra, rb = random_density(2, rng), random_density(4, rng)
        rho = np.kron(ra, rb)
        assert np.allclose(partial_trace(rho, [0]), ra)
        assert np.allclose(partial_trace(rho, [1, 2]), rb)

    def test_trace_preserved_and_psd(self, rng):
        for _ in range(20):
            rho = random_density(8, rng)
            red = partial_trace(rho, [0, 2])
            assert abs(np.trace(red) - np.trace(rho)) <= 1e-12
            assert np.linalg.eigvalsh(red).min() >= -1e-10
            assert np.allclose(red, brute_partial_trace(rho, [0, 2], 3))

    def test_errors(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [2])
        with pytest.raises(ValueError, match=r"not a qubit-register operator: shape \(3, 3\)"):
            partial_trace(np.eye(3) / 3, [0])


class TestOuter:
    def test_basis_vector(self):
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(outer(e0), np.diag([1, 0, 0, 0]))

    def test_plus_state(self):
        v = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(outer(v), np.full((2, 2), 0.5))

    def test_w_projector(self):
        p = outer(w_vector())
        assert abs(np.trace(p) - 1) <= 1e-12
        for r in range(8):
            for c in range(8):
                expected = 1 / 3 if r in (1, 2, 4) and c in (1, 2, 4) else 0.0
                assert abs(p[r, c] - expected) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            outer(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            outer(np.zeros(2))

    def test_equals_the_broadcast_product_bitwise(self, rng):
        stack = rng.normal(size=(200, 8)) + 1j * rng.normal(size=(200, 8))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        for v in (w_vector(), stack[0], stack[:, :2][7] / np.linalg.norm(stack[7, :2]), stack):
            got = outer(v)
            assert got.dtype == v.dtype
            assert got.tobytes() == (v[..., :, None] * v.conj()[..., None, :]).tobytes()

    def test_stack_memory_peak(self, rng):
        # the result (200 KB) and one conjugate (25 KB); a broadcast product
        # also allocates about 280 KB of ufunc buffers
        stack = rng.normal(size=(200, 8)) + 1j * rng.normal(size=(200, 8))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        outer(stack)  # warm up
        tracemalloc.start()
        try:
            outer(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300_000
