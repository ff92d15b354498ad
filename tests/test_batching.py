"""Stacked inputs: every batched function gives, for each matrix of a stack,
bitwise the result it gives for that matrix alone. A failing member of a
stack raises the message it raises alone, and the non-raising cores record
that message for that member only."""

import numpy as np
import pytest

from wtomo.circuits import w_vector
from wtomo.linalg import eig_hermitian, is_hermitian, kron_qubits, outer, partial_trace
from wtomo.metrics import fidelity_pure
from wtomo.mitigation import _calibration_inverses, mitigation_matrix, spectral_correct
from wtomo.tomography import reconstruct, tomography_scheme
from wtomo.wholeparts import (
    InconsistentMarginalsError,
    MarginalPair,
    _diosi_reconstruct,
    _solve_phases,
    diosi_reconstruct,
)

from conftest import matched_spectra, random_density, random_pure

SIZES = (1, 2, 5, 33)


def noisy_pure_states(rng, n, noise=1e-3):
    out = []
    for _ in range(n):
        rho = outer(random_pure(8, rng))
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = rho + noise * (h + h.conj().T)
        out.append(rho / np.trace(rho))
    return np.array(out)


def pairs_of(states):
    return MarginalPair(partial_trace(states, [0, 1]), partial_trace(states, [1, 2]), 0.5)


@pytest.mark.parametrize("n", SIZES)
def test_linalg_stacks(n, rng):
    rhos = np.array([random_density(8, rng) for _ in range(n)])
    for keep in ([0], [1, 2], [0, 2]):
        stacked = partial_trace(rhos, keep)
        assert all(np.array_equal(s, partial_trace(r, keep)) for s, r in zip(stacked, rhos))
    w, v = eig_hermitian(rhos)
    for k, r in enumerate(rhos):
        w_one, v_one = eig_hermitian(r)
        assert np.array_equal(w[k], w_one) and np.array_equal(v[k], v_one)
    assert is_hermitian(rhos)
    rhos[-1, 0, 1] += 1e-3
    assert not is_hermitian(rhos)


@pytest.mark.parametrize("n", SIZES)
def test_mitigation_stacks(n, rng):
    fs = rng.uniform(0.0, 0.1, size=(n, 3, 2))
    f_hats = np.stack([1 - fs, fs], axis=-2)  # columns (1 - e, e): column-stochastic
    maps = mitigation_matrix(f_hats)
    for m, f in zip(maps, f_hats):
        assert np.array_equal(m, mitigation_matrix(list(f)))
        assert np.array_equal(m, np.kron(np.kron(*np.linalg.inv(f[:2])), np.linalg.inv(f[2])))
    rhos = noisy_pure_states(rng, n, noise=2e-2)
    corrected = spectral_correct(rhos)
    assert all(np.array_equal(c, spectral_correct(r)) for c, r in zip(corrected, rhos))
    assert np.array_equal(fidelity_pure(w_vector(), corrected),
                          [fidelity_pure(w_vector(), c) for c in corrected])


def test_mitigation_stack_reports_first_bad_matrix():
    good, singular = [[0.9, 0.1], [0.1, 0.9]], [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ValueError, match="numerically singular"):
        mitigation_matrix(np.array([[good, good], [good, singular]]))


def test_mitigation_stack_flags_only_the_bad_member():
    good, other = [[0.9, 0.1], [0.1, 0.9]], [[0.95, 0.2], [0.05, 0.8]]
    fs = np.array([[good, other], [good, [[0.9, 0.2], [0.2, 0.9]]], [other, good]])
    errors = {}
    maps = kron_qubits(_calibration_inverses(fs, errors))
    assert list(errors) == [(1,)]
    assert str(errors[(1,)]) == "calibration matrix is not column-stochastic"
    assert np.array_equal(maps[1], np.eye(4))
    for k in (0, 2):
        assert np.array_equal(maps[k], mitigation_matrix(list(fs[k])))


@pytest.mark.parametrize("n", SIZES)
def test_reconstruct_stack(n, rng):
    scheme = tomography_scheme(3)
    p = rng.random((n, len(scheme.labels), 8))
    p /= p.sum(axis=-1, keepdims=True)
    stacked = reconstruct(tomography_scheme(3), p)
    for k in range(n):
        assert np.array_equal(stacked[k], reconstruct(tomography_scheme(3), p[k]))


@pytest.mark.parametrize("n", SIZES)
def test_diosi_stack(n, rng):
    states = noisy_pure_states(rng, n)
    stacked = diosi_reconstruct(pairs_of(states))
    lam_a, lam_c, vectors, m = matched_spectra(pairs_of(states))
    alpha = _solve_phases(lam_a, m, None)
    for k, rho in enumerate(states):
        pair = pairs_of(rho)
        one = diosi_reconstruct(pair)
        assert np.array_equal(stacked.psi[k], one.psi)
        assert stacked.residual_ab[k] == one.residual_ab
        assert stacked.residual_bc[k] == one.residual_bc
        assert {key: v[k] for key, v in stacked.truncated_mass.items()} == one.truncated_mass
        lam_a1, lam_c1, vectors1, m1 = matched_spectra(pair)
        assert np.array_equal(lam_a[k], lam_a1) and np.array_equal(lam_c[k], lam_c1)
        assert all(np.array_equal(v[k], v1) for v, v1 in zip(vectors, vectors1))
        assert np.array_equal(m[k], m1)
        assert np.array_equal(alpha[k], _solve_phases(lam_a1, m1, None))


def test_diosi_stack_reports_first_failing_pair(rng):
    states = noisy_pure_states(rng, 4)
    pair = pairs_of(states)
    bad_ab = pair.rho_ab.copy()
    bad_ab[2] = np.diag([0, 0, 0, 1.0])  # B is |1> here but not in rho_bc
    with pytest.raises(InconsistentMarginalsError) as alone:
        diosi_reconstruct(MarginalPair(bad_ab[2], pair.rho_bc[2], 0.05))
    with pytest.raises(InconsistentMarginalsError) as stacked:
        diosi_reconstruct(MarginalPair(bad_ab, pair.rho_bc, 0.05))
    assert str(stacked.value) == str(alone.value)


def test_diosi_stack_flags_only_the_failing_pair(rng):
    states = noisy_pure_states(rng, 5)
    pair = pairs_of(states)
    bad_ab = pair.rho_ab.copy()
    bad_ab[3] = np.diag([0, 0, 0, 1.0])
    with pytest.raises(InconsistentMarginalsError) as alone:
        diosi_reconstruct(MarginalPair(bad_ab[3], pair.rho_bc[3], 0.05))
    errors = {}
    stacked = _diosi_reconstruct(MarginalPair(bad_ab, pair.rho_bc, 0.05), errors)
    assert list(errors) == [(3,)]
    assert type(errors[(3,)]) is InconsistentMarginalsError
    assert str(errors[(3,)]) == str(alone.value)
    for k in (0, 1, 2, 4):
        one = diosi_reconstruct(MarginalPair(bad_ab[k], pair.rho_bc[k], 0.05))
        assert np.array_equal(stacked.psi[k], one.psi)
        assert np.array_equal(stacked.rho[k], one.rho)
        assert stacked.residual_ab[k] == one.residual_ab
        assert stacked.residual_bc[k] == one.residual_bc
