import numpy as np
import pytest

from wtomo.wholeparts import _overlaps, _single_party_marginals, _top2


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
    gauge-fixed eigenvectors (a, b, c, ab, bc) and the overlap tensors."""
    rho_a, rho_b, rho_c = _single_party_marginals(pair, None)
    (lam_a, lam_c, _), (a, c, b) = _top2(
        np.stack([rho_a, rho_c, rho_b], axis=-3), ("rho_a", "rho_c", "rho_b"), {}, None
    )
    _, (bc, ab) = _top2(
        np.stack([pair.rho_bc, pair.rho_ab], axis=-3), ("rho_bc", "rho_ab"), {}, None
    )
    return lam_a, lam_c, (a, b, c, ab, bc), _overlaps(b, c, bc), _overlaps(a, b, ab)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
