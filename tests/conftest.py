import numpy as np
import pytest

from wtomo.pipeline import _groups
from wtomo.wholeparts import _phase_matrix, _single_party_marginals, _top2


def random_density(dim, rng, rank=None):
    """Random full-rank (or given-rank) density matrix."""
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_pure(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def matched_spectra(pair):
    """The whole-from-parts spectral data of a trace-normalized pair, built as
    _diosi_reconstruct builds it: the top-2 spectra (lam_a, lam_c), the
    gauge-fixed eigenvectors (a, c, ab, bc) and the phase matrix. The shared
    qubit B of every pair must agree within pair.eps_b."""
    errors = {}
    _, _, (lam_a, lam_c), (a, c) = _top2(np.stack(_single_party_marginals(pair, errors), axis=-3))
    assert errors == {}, errors
    _, _, _, (bc, ab) = _top2(np.stack([pair.rho_bc, pair.rho_ab], axis=-3))
    return lam_a, lam_c, (a, c, ab, bc), _phase_matrix(lam_a, lam_c, a, c, ab, bc)


def layout_widths(table):
    """The outcomes of each row of a trial's (37, 8) table, by its group of LAYOUT."""
    return [group.shape[-1] for group in _groups(table) for _ in range(group.shape[-2])]


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
