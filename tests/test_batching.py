"""Stacked inputs: every batched function gives, for each matrix of a stack,
bitwise the result it gives for that matrix alone. The private cores record
each failing member's error under its index, for that member only; the
public functions record into a fresh dict and raise its first entry, so a
failing member of a stack raises the message it raises alone."""

import numpy as np
import pytest

from wtomo.circuits import w_vector
from wtomo.linalg import eig_hermitian, is_hermitian, kron_qubits, outer, partial_trace
from wtomo.metrics import fidelity_pure
from wtomo.mitigation import _calibration_inverses, mitigation_matrix, spectral_correct
from wtomo.tomography import reconstruct, tomography_scheme
from wtomo.wholeparts import (
    DegenerateSpectrumError,
    InconsistentMarginalsError,
    MarginalPair,
    TooMixedError,
    UnderdeterminedPhaseError,
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
    assert np.array_equal(fidelity_pure(corrected), [fidelity_pure(c) for c in corrected])


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
    errors = {}
    alpha = _solve_phases(lam_a, m, errors)
    assert errors == {}
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
        assert np.array_equal(alpha[k], _solve_phases(lam_a1, m1, errors))
    assert errors == {}


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


def marginals_of(psi):
    rho = outer(psi)
    return partial_trace(rho, [0, 1]), partial_trace(rho, [1, 2])


def failing_inputs():
    """Each failing input tier-1 builds, by name: its route, the input (a pair
    of marginals, or one trial's (3, 2, 2) calibration matrices), and the
    type and message its public function raises."""
    ghz, generalized_ghz = np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    generalized_ghz[0], generalized_ghz[7] = 0.8, 0.6 * np.exp(0.9j)
    rng = np.random.default_rng(7)
    f0, f1 = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0].T
    weak_branch = np.sqrt(1 - 5e-12) * np.kron([1, 0], f0) + np.sqrt(5e-12) * np.kron([0, 1], f1)
    good = [[0.9, 0.1], [0.1, 0.9]]
    return {
        "inconsistent shared qubit": (
            "diosi", (np.diag([1.0, 0, 0, 0]), np.diag([0, 0, 0, 1.0])), InconsistentMarginalsError,
            "shared-qubit marginals disagree by 1.0000 (> eps_b = 0.05)"),
        "too mixed": (
            "diosi", (np.eye(4) / 4, np.eye(4) / 4), TooMixedError,
            "rho_bc: kept spectral mass 0.500 < 0.8; input too mixed for a pure-state hypothesis"),
        "degenerate spectrum": (
            "diosi", marginals_of(ghz), DegenerateSpectrumError,
            "rho_A spectrum [0.5 0.5] is degenerate within 1e-06; "
            "the marginals do not determine the global state"),
        "no usable overlap": (
            "diosi", marginals_of(weak_branch), UnderdeterminedPhaseError,
            "no usable overlap constraint for branch 1"),
        "unlinked branch": (
            "diosi", marginals_of(generalized_ghz), UnderdeterminedPhaseError,
            "branch 1 fixes gamma_1 but its overlap with C branch 0 is 0.0e+00 < 1e-08; "
            "the relative branch phase is unresolved"),
        "not column-stochastic": (
            "calibration", (np.array([good, [[0.9, 0.2], [0.2, 0.9]], good]),), ValueError,
            "calibration matrix is not column-stochastic"),
        "singular calibration": (
            "calibration", (np.array([good, [[0.5, 0.5], [0.5, 0.5]], good]),), ValueError,
            "calibration matrix is numerically singular"),
    }


# per route: the public function, its recording core, and a passing input
ROUTES = {
    "diosi": (lambda x: diosi_reconstruct(MarginalPair(*x, 0.05)),
              lambda x, errors: _diosi_reconstruct(MarginalPair(*x, 0.05), errors),
              marginals_of(w_vector())),
    "calibration": (lambda x: mitigation_matrix(*x),
                    lambda x, errors: _calibration_inverses(*x, errors),
                    (np.array([[[0.95, 0.2], [0.05, 0.8]]] * 3),)),
}


@pytest.mark.parametrize("name", failing_inputs())
def test_public_functions_raise_the_first_recorded_error(name):
    route, bad, kind, message = failing_inputs()[name]
    public, record, good = ROUTES[route]
    middle = tuple(np.stack([g, b, g]) for g, b in zip(good, bad))
    for inputs, key in ((bad, ()), (middle, (1,))):
        errors = {}
        record(inputs, errors)
        assert list(errors) == [key]
        with pytest.raises(kind) as raised:
            public(inputs)
        assert type(raised.value) is type(errors[key]) is kind
        assert str(raised.value) == str(errors[key]) == message


def test_the_first_failing_check_is_raised_before_an_earlier_member():
    # member 0 fails only the phase check, member 2 the shared-qubit check,
    # which runs first: its entry comes first, and it is the one raised
    inputs = failing_inputs()
    unlinked, inconsistent = inputs["unlinked branch"][1], inputs["inconsistent shared qubit"][1]
    w = marginals_of(w_vector())
    pair = MarginalPair(*(np.stack(ms) for ms in zip(unlinked, w, inconsistent)), 0.05)
    errors = {}
    _diosi_reconstruct(pair, errors)
    assert list(errors) == [(2,), (0,)]
    with pytest.raises(InconsistentMarginalsError) as raised:
        diosi_reconstruct(pair)
    assert str(raised.value) == str(errors[(2,)])
