import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtomo.circuits import w_vector
from wtomo.io import save_reconstruction
from wtomo.linalg import eig_hermitian, outer, partial_trace
from wtomo import wholeparts
from wtomo.wholeparts import (
    DegenerateSpectrumError,
    InconsistentMarginalsError,
    MarginalPair,
    TooMixedError,
    UnderdeterminedPhaseError,
    _diosi_reconstruct,
    _fix_vector_gauge,
    _single_party_marginals,
    _solve_phases,
    diosi_reconstruct,
)

from conftest import matched_spectra, random_pure


def marginal_pair_of(psi, eps_b=1e-10):
    rho = outer(psi)
    return MarginalPair(partial_trace(rho, [0, 1]), partial_trace(rho, [1, 2]), eps_b)


def spectral_gap(psi):
    rho_a = partial_trace(outer(psi), [0])
    w = np.linalg.eigvalsh(rho_a)
    return abs(w[1] - w[0])


def two_branch_state(rng, w):
    """sqrt(1 - w)|0>_A|f0> + sqrt(w)|1>_A|f1>, with f0 ⟂ f1 random BC vectors:
    rho_A has the spectrum (1 - w, w)."""
    f0, f1 = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0].T
    return np.sqrt(1 - w) * np.kron([1, 0], f0) + np.sqrt(w) * np.kron([0, 1], f1)


def random_gapped_pure(rng, gap=0.05):
    while True:
        psi = random_pure(8, rng)
        if spectral_gap(psi) > gap:
            return psi


class TestSinglePartyMarginals:
    def test_w_state(self):
        pair, errors = marginal_pair_of(w_vector()), {}
        for rho in _single_party_marginals(pair, errors):
            assert np.abs(rho - np.diag([2 / 3, 1 / 3])).max() <= 1e-12
        assert errors == {}

    def test_inconsistent_shared_qubit_rejected(self):
        pair = MarginalPair(np.diag([1.0, 0, 0, 0]).astype(complex),
                            np.diag([0, 0, 0, 1.0]).astype(complex), eps_b=0.05)
        errors = {}
        _single_party_marginals(pair, errors)
        assert list(errors) == [()]
        assert type(errors[()]) is InconsistentMarginalsError
        assert str(errors[()]) == "shared-qubit marginals disagree by 1.0000 (> eps_b = 0.05)"

    @pytest.mark.parametrize("eps_b", [np.nan, np.inf, -0.01])
    def test_eps_b_must_be_finite_and_non_negative(self, eps_b):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="eps_b must be a finite number >= 0"):
            MarginalPair(rho, rho, eps_b)

    @pytest.mark.parametrize("eps_b", [True, "0.1", None, 1j, np.True_],
                             ids=["bool", "string", "none", "complex", "numpy-bool"])
    def test_eps_b_must_be_a_real_number(self, eps_b):
        # each once passed, or failed inside numpy with a message that named no field
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        message = f"^eps_b must be a real number, got {re.escape(repr(eps_b))}$"
        with pytest.raises(TypeError, match=message):
            MarginalPair(rho, rho, eps_b)

    @pytest.mark.parametrize("eps_b", [0, np.int64(1), np.float32(0.25)], ids=repr)
    def test_integer_and_numpy_eps_b_are_numbers(self, eps_b):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert MarginalPair(rho, rho, eps_b).eps_b == eps_b

    def test_unnormalized_inputs_renormalize_without_warning(self):
        pair, errors = marginal_pair_of(w_vector()), {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = MarginalPair(0.98 * pair.rho_ab, 0.98 * pair.rho_bc, 1e-6)
            rho_a, _ = _single_party_marginals(scaled, errors)
        assert abs(np.trace(rho_a) - 1.0) <= 1e-12 and errors == {}
        ab = 0.98 * pair.rho_ab
        assert np.array_equal(scaled.rho_ab, ab / np.trace(ab).real)


class TestMarginalPair:
    """A pair is trace-normalized and shape-checked when it is made."""

    @pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan])
    def test_a_trace_that_is_not_positive_is_rejected(self, scale):
        # -rho_AB, -rho_BC were once divided by their trace -1 and gave W at fidelity 1
        pair = marginal_pair_of(w_vector())
        with pytest.raises(ValueError, match=f"^trace {scale:g} is not positive$"):
            MarginalPair(scale * pair.rho_ab, scale * pair.rho_bc, 0.1)
        with pytest.raises(ValueError, match=f"^trace {scale:g} is not positive$"):
            MarginalPair(np.stack([pair.rho_ab] * 2),
                         np.stack([pair.rho_bc, scale * pair.rho_bc]), 0.1)

    def test_a_marginal_that_is_not_hermitian_is_rejected(self):
        # rho_ab's B marginal is |0><0| and rho_bc's |1><1|: this pair once got
        # past the constructor and raised InconsistentMarginalsError, and with
        # agreeing B marginals a ValueError from eig_hermitian naming neither marginal
        ab, bc = np.diag([1.0, 0, 0, 0]).astype(complex), np.diag([0, 0, 0, 1.0]).astype(complex)
        ab[0, 1] = 1e-3
        with pytest.raises(ValueError, match="^rho_ab is not Hermitian within 1e-08$"):
            MarginalPair(ab, bc, 0.05)
        with pytest.raises(ValueError, match="^rho_bc is not Hermitian within 1e-08$"):
            MarginalPair(np.stack([bc, bc]), np.stack([bc, ab]), 0.05)

    @pytest.mark.parametrize("skew, hermitian", [(5e-9, True), (2e-8, False)])
    def test_hermiticity_tolerance_is_1e_8(self, skew, hermitian):
        rho = np.diag([0.5, 0.5, 0, 0]).astype(complex)
        rho[0, 1] = skew  # |rho - rho†| peaks at skew
        if hermitian:
            assert MarginalPair(rho, rho, 0.05).rho_ab is rho
        else:
            with pytest.raises(ValueError, match="^rho_ab is not Hermitian"):
                MarginalPair(rho, rho, 0.05)

    def test_unit_trace_divides_only_past_the_tolerance(self):
        rho = marginal_pair_of(w_vector()).rho_ab
        near = (1 + 0.5 * wholeparts.TRACE_TOL) * rho
        assert wholeparts.unit_trace(near) is near
        stack = np.stack([near, 0.98 * rho, (1 + 1e-8) * rho])
        out = wholeparts.unit_trace(stack)
        assert np.array_equal(out[0], near)
        for k in (1, 2):
            assert np.array_equal(out[k], stack[k] / np.trace(stack[k]).real)
        # literal traces pin the tolerance itself, 1e-10: a tolerance of 1e-12
        # would divide the first, one of 1e-9 keep the second
        kept, divided = (1 + 5e-11) * rho, (1 + 5e-10) * rho
        assert wholeparts.unit_trace(kept) is kept
        assert np.array_equal(wholeparts.unit_trace(divided), divided / np.trace(divided).real)

    @pytest.mark.parametrize("ab_shape, bc_shape", [
        ((8, 8), (8, 8)), ((2, 2), (2, 2)), ((2, 4, 4), (4, 4)), ((4, 4), (3, 4, 4)), ((4,), (4,)),
    ], ids=str)
    def test_marginals_must_be_4x4_stacks_of_one_shape(self, ab_shape, bc_shape):
        ab, bc = np.zeros(ab_shape), np.zeros(bc_shape)  # shapes are checked before traces
        message = (f"^rho_ab and rho_bc must be \\(..., 4, 4\\) stacks of one shape, "
                   f"got {re.escape(str(ab_shape))} and {re.escape(str(bc_shape))}$")
        with pytest.raises(ValueError, match=message):
            MarginalPair(ab, bc, 0.1)


class TestPurifyStructures:
    """The matched spectral data of the purification: _top2 and _phase_matrix."""

    def test_w_state_spectra(self):
        lam_a, lam_c, *_ = matched_spectra(marginal_pair_of(w_vector()))
        assert np.allclose(lam_a, [2 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(lam_c, [2 / 3, 1 / 3], atol=1e-12)

    def test_phase_matrix_margins_are_the_spectra(self, rng):
        # for a pure state, |m[i, k]| is the weight branch i of the A split
        # shares with branch k of the C split: rows sum to lam_a, columns to lam_c
        *_, m = matched_spectra(marginal_pair_of(w_vector()))
        assert np.abs(np.abs(m) - [[1 / 3, 1 / 3], [1 / 3, 0]]).max() <= 1e-12
        for _ in range(20):
            lam_a, lam_c, _, m = matched_spectra(marginal_pair_of(random_gapped_pure(rng)))
            assert np.abs(np.abs(m).sum(axis=1) - lam_a).max() <= 1e-12
            assert np.abs(np.abs(m).sum(axis=0) - lam_c).max() <= 1e-12

    def test_phase_matrix_matches_a_sum_over_a_b_basis(self, rng):
        # reference: one eig_hermitian call and one _fix_vector_gauge call per
        # marginal and vector, the overlaps A[i, j, k] = <j;B k;C | i;BC> and
        # C[k, i, j] = <i;A j;B | k;AB> in a random orthonormal basis |j;B> of
        # qubit B, one vdot of a Kronecker product per entry, then the sum over j
        for _ in range(20):
            pair, errors = marginal_pair_of(random_gapped_pure(rng)), {}
            a, c, ab, bc = (
                np.column_stack([_fix_vector_gauge(v) for v in eig_hermitian(rho)[1][:, :2].T])
                for rho in (*_single_party_marginals(pair, errors), pair.rho_ab, pair.rho_bc)
            )
            assert errors == {}
            b, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            lam_a, lam_c, vectors, m = matched_spectra(pair)
            for got, ref in zip(vectors, (a, c, ab, bc)):
                assert np.array_equal(got, ref)
            m_ref = np.zeros((2, 2), dtype=complex)
            for i, k in np.ndindex(2, 2):
                for j in range(2):
                    a_ijk = np.sqrt(lam_a[i]) * np.vdot(np.kron(b[:, j], c[:, k]), bc[:, i])
                    c_kij = np.sqrt(lam_c[k]) * np.vdot(np.kron(a[:, i], b[:, j]), ab[:, k])
                    m_ref[i, k] += c_kij * np.conj(a_ijk)
            assert np.abs(m - m_ref).max() <= 2e-15

    def test_too_mixed_rejected(self):
        pair = MarginalPair(np.eye(4, dtype=complex) / 4, np.eye(4, dtype=complex) / 4, 1e-6)
        with pytest.raises(TooMixedError, match="^rho_bc: kept spectral mass 0.500 < 0.8"):
            diosi_reconstruct(pair)

    def test_too_mixed_reports_the_first_marginal_in_label_order(self):
        # rho_BC comes before rho_AB in the two-qubit stack, so a pair too mixed
        # in both reports rho_bc alone and in a batch
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        w = marginal_pair_of(w_vector())
        rho_ab = np.stack([w.rho_ab, np.eye(4) / 4, np.eye(4) / 4])
        rho_bc = np.stack([w.rho_bc, np.eye(4) / 4, bell])
        with pytest.raises(TooMixedError, match="^rho_bc: kept spectral mass 0.500 < 0.8") as alone:
            diosi_reconstruct(MarginalPair(rho_ab[1], rho_bc[1], 1.0))
        errors = {}
        _diosi_reconstruct(MarginalPair(rho_ab, rho_bc, 1.0), errors)
        assert list(errors) == [(1,), (2,)]
        assert str(errors[(1,)]) == str(alone.value)
        assert str(errors[(2,)]).startswith("rho_ab: kept spectral mass 0.500 < 0.8")


class TestSolvePhases:
    def test_ghz_degenerate_spectrum_raises(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        lam_a, _, _, m = matched_spectra(marginal_pair_of(ghz))
        errors = {}
        _solve_phases(lam_a, m, errors)
        assert list(errors) == [()]
        assert type(errors[()]) is DegenerateSpectrumError
        assert str(errors[()]) == ("rho_A spectrum [0.5 0.5] is degenerate within 1e-06; "
                                   "the marginals do not determine the global state")

    def test_unlinked_branches_raise(self):
        # a diagonal m links A branch i to C branch i only, so the relative
        # phase of the two branches is not determined
        errors = {}
        _solve_phases(np.array([0.6, 0.4]), np.diag([0.6, 0.4]).astype(complex), errors)
        assert list(errors) == [()]
        assert type(errors[()]) is UnderdeterminedPhaseError
        assert str(errors[()]) == ("branch 1 fixes gamma_1 but its overlap with C branch 0 is "
                                   "0.0e+00 < 1e-08; the relative branch phase is unresolved")

    def test_generalized_ghz_phase_is_not_guessed(self):
        # 0.8|000> + 0.6 e^{0.9i}|111> has the marginals of every relative phase
        psi = np.zeros(8, dtype=complex)
        psi[0], psi[7] = 0.8, 0.6 * np.exp(0.9j)
        with pytest.raises(UnderdeterminedPhaseError, match="^branch 1 fixes gamma_1"):
            diosi_reconstruct(marginal_pair_of(psi))

    def test_a_weightless_c_branch_leaves_gamma_1_moot(self):
        # (0.8|00> + 0.6 e^{0.7i}|11>) ⊗ |0>: rho_C is pure, column 1 of m is
        # below the floor, and the A branches still fix the relative phase
        psi = np.zeros(8, dtype=complex)
        psi[0], psi[6] = 0.8, 0.6 * np.exp(0.7j)
        res = diosi_reconstruct(marginal_pair_of(psi))
        assert abs(abs(np.vdot(psi, res.psi)) - 1.0) <= 1e-12

    def test_rounding_level_branch_is_not_live(self):
        # a pure rho_A rounds to a spectrum (1, ~1e-16): that branch carries no
        # weight and needs no overlap, whatever its square root
        m, errors = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), {}
        alpha = _solve_phases(np.array([1.0, 2.5e-16]), m, errors)
        assert np.array_equal(alpha, [0.0, 0.0]) and errors == {}

    def test_one_live_branch_needs_no_overlap(self):
        # (0.8|0> + 0.6|1>) ⊗ (|01> + |10>)/√2: rho_A is pure, so A's one live
        # branch carries a global phase. rho_C and rho_AB are degenerate, their
        # eigenvectors pair arbitrarily, and here that branch overlaps no C branch
        psi = np.kron([0.8, 0.6], np.array([0, 1, 1, 0]) / np.sqrt(2)).astype(complex)
        res = diosi_reconstruct(marginal_pair_of(psi))
        assert abs(np.vdot(psi, res.psi)) >= 1 - 1e-10

    @pytest.mark.parametrize("eps, live", [(5e-13, False), (5e-12, True)],
                             ids=["rounding", "live"])
    def test_live_weight_bounds_a_live_branch(self, eps, live, rng):
        # below LIVE_WEIGHT (1e-12) the weak A branch is rounding and needs no
        # phase; above it the branch is live, and its overlaps, of order eps, are
        # below PHASE_MAGNITUDE_FLOOR (1e-8), so its phase is not guessed
        psi = two_branch_state(rng, eps)
        if live:
            with pytest.raises(UnderdeterminedPhaseError,
                               match="^no usable overlap constraint for branch 1$"):
                diosi_reconstruct(marginal_pair_of(psi))
        else:
            res = diosi_reconstruct(marginal_pair_of(psi))
            assert abs(abs(np.vdot(psi, res.psi)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("gap, degenerate", [(0.8e-6, True), (1.2e-6, False)],
                             ids=["inside", "outside"])
    def test_degeneracy_gap_bounds_a_determined_spectrum(self, gap, degenerate, rng):
        # rho_A's spectrum (1/2 + gap/2, 1/2 - gap/2) is split by gap, so
        # DEGENERACY_GAP (1e-6) decides
        for _ in range(5):
            psi = two_branch_state(rng, 0.5 - gap / 2)
            pair = marginal_pair_of(psi, eps_b=1e-8)
            if degenerate:
                with pytest.raises(DegenerateSpectrumError):
                    diosi_reconstruct(pair)
            else:
                res = diosi_reconstruct(pair)
                assert 1 - abs(np.vdot(psi, res.psi)) ** 2 <= 1e-12

    @pytest.mark.xfail(strict=True, raises=UnderdeterminedPhaseError,
                       reason="the dead band between LIVE_WEIGHT and PHASE_MAGNITUDE_FLOOR: "
                              "a live weak branch is rejected until ROADMAP item 3(c)'s gate")
    def test_a_weak_live_branch_in_the_dead_band_reconstructs(self, rng):
        # at w = 5e-10 the marginals determine the state, but the weak branch's
        # overlaps, of order w, are below PHASE_MAGNITUDE_FLOOR (1e-8)
        psi = two_branch_state(rng, 5e-10)
        res = diosi_reconstruct(marginal_pair_of(psi))
        assert 1 - abs(np.vdot(psi, res.psi)) ** 2 <= 1e-12

    def test_real_nonnegative_state_gives_sign_factors(self, rng):
        # for a real, entrywise non-negative global state the solved branch
        # phase factors are +-1 (real) under the deterministic eigenvector
        # gauge, and the reconstruction is still exact
        for _ in range(10):
            psi = np.abs(random_gapped_pure(rng)).astype(complex)
            psi /= np.linalg.norm(psi)
            if spectral_gap(psi) <= 0.05:
                continue
            lam_a, _, _, m = matched_spectra(marginal_pair_of(psi))
            errors = {}
            alpha = _solve_phases(lam_a, m, errors)
            assert errors == {}
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

    @pytest.mark.parametrize("eps", [5e-13, 5e-12, 5e-10, 5e-8, 1e-4])
    def test_a_pure_c_beside_a_weakly_entangled_pair(self, eps):
        # (sqrt(1 - eps)|0>|chi0> + sqrt(eps)|1>|chi1>)_AB ⊗ |0>_C: rho_C is pure, so
        # the state is |0;AB> ⊗ |0;C>. At 5e-12 and 5e-10 A's weak branch is live
        # but overlaps no C branch above the floor, and the state was once rejected
        ab = (np.sqrt(1 - eps) * np.kron([1, 0], [1, 0])
              + np.sqrt(eps) * np.kron([0, 1], [0.6, 0.8]))
        psi = np.kron(ab, [1, 0]).astype(complex)
        res = diosi_reconstruct(marginal_pair_of(psi, eps_b=1e-8))
        assert abs(abs(np.vdot(psi, res.psi)) - 1.0) <= 1e-12

    def test_two_eigendecompositions(self, monkeypatch, rng):
        # one stack of the two single-qubit marginals, one of the two pairs
        calls = []

        def counted(h):
            calls.append(h.shape)
            return eig_hermitian(h)

        monkeypatch.setattr(wholeparts, "eig_hermitian", counted)
        diosi_reconstruct(marginal_pair_of(random_gapped_pure(rng)))
        assert calls == [(2, 2, 2), (2, 4, 4)]

    def test_truncated_mass_reported(self, rng):
        res = diosi_reconstruct(marginal_pair_of(random_gapped_pure(rng)))
        assert list(res.truncated_mass) == ["rho_bc", "rho_ab"]
        assert all(v <= 1e-10 for v in res.truncated_mass.values())

    def test_state_file(self, tmp_path):
        res = diosi_reconstruct(marginal_pair_of(w_vector()))
        path = tmp_path / "psi.json"
        save_reconstruction(res, path)
        d = json.loads(path.read_text())
        psi = np.array(d["re"]) + 1j * np.array(d["im"])
        assert np.array_equal(psi, res.psi)
        assert d["nqubits"] == 3


def haar_unitary(rng):
    """A Haar-random 2x2 unitary: QR of a complex Gaussian, columns rephased by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_unitary(rng):
    """U_A ⊗ U_B ⊗ U_C, each Haar-random."""
    return np.kron(np.kron(haar_unitary(rng), haar_unitary(rng)), haar_unitary(rng))


def with_pure_qubit(rng, position, weight):
    """A Haar-random pure qubit at position (0, 1, 2 for A, B, C) times a pair
    of Schmidt weights (1 - weight, weight) in Haar-random local bases."""
    schmidt = np.array([np.sqrt(1 - weight), 0, 0, np.sqrt(weight)], dtype=complex)
    pair = np.kron(haar_unitary(rng), haar_unitary(rng)) @ schmidt
    psi = np.kron(random_pure(2, rng), pair).reshape(2, 2, 2)
    return np.moveaxis(psi, 0, position).reshape(8)


FAMILIES = {
    "haar_gapped": lambda rng, weight: random_gapped_pure(rng),
    "product": lambda rng, weight: np.kron(np.kron(random_pure(2, rng), random_pure(2, rng)),
                                           random_pure(2, rng)),
    "pure_a": lambda rng, weight: with_pure_qubit(rng, 0, weight),
    # rho_C is degenerate, but A has one live branch, whose phase is global
    "pure_a_maximal": lambda rng, weight: with_pure_qubit(rng, 0, 0.5),
    "pure_c": lambda rng, weight: with_pure_qubit(rng, 2, weight),
    # rho_A is degenerate, but C has one live branch: the state is |0;AB> ⊗ |0;C>
    "pure_c_maximal": lambda rng, weight: with_pure_qubit(rng, 2, 0.5),
}

# Schmidt weights of the entangled pair: entangled, and gapped away from the
# degenerate (maximally entangled) spectrum
WEIGHTS = st.floats(min_value=0.02, max_value=0.45)
SEEDS = st.integers(min_value=0, max_value=2**63)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestLocalUnitaryProperty:
    """States whose marginals determine them reconstruct exactly and
    covariantly, diosi(U psi) = U diosi(psi) up to a phase, for Haar-random
    local U = U_A ⊗ U_B ⊗ U_C; states whose marginals do not are rejected."""

    @pytest.mark.parametrize("family", FAMILIES)
    @PROPERTY
    @given(seed=SEEDS, weight=WEIGHTS)
    def test_determined_families_reconstruct_covariantly(self, family, seed, weight):
        rng = np.random.default_rng(seed)
        psi = FAMILIES[family](rng, weight)
        u = local_unitary(rng)
        res, res_u = (diosi_reconstruct(marginal_pair_of(v)) for v in (psi, u @ psi))
        assert abs(np.vdot(psi, res.psi)) >= 1 - 1e-10
        assert abs(np.vdot(u @ psi, res_u.psi)) >= 1 - 1e-10
        assert abs(np.vdot(u @ res.psi, res_u.psi)) >= 1 - 1e-10

    @PROPERTY
    @given(seed=SEEDS, weight=WEIGHTS)
    def test_a_pure_qubit_at_b_is_rejected(self, seed, weight):
        # rho_AB and rho_BC are product across B and lose the A-C coherence,
        # so every relative phase of the A-C pair has the same marginals
        rng = np.random.default_rng(seed)
        psi = with_pure_qubit(rng, 1, weight)
        u = local_unitary(rng)
        for v in (psi, u @ psi):
            with pytest.raises(UnderdeterminedPhaseError):
                diosi_reconstruct(marginal_pair_of(v))
