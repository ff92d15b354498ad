"""Sampling streams are statistically independent.

A small battery in the spirit of L'Ecuyer & Simard, "TestU01", ACM TOMS
33(4), 2007, on the counts a run reports (NumPy NEP 19 describes the seeding
it relies on). It reads only ``run_pipeline`` outputs, so it holds for any
keying of the streams: ``TrialResult.counts`` for the 17 three-qubit settings
and ``TrialResult.calibration`` for the 6 calibration circuits.

- Pooled over the trials, each circuit's counts fit its outcome distribution
  (chi-square).
- Counts of two circuits of one trial, and of one circuit in trials t and
  t + 1, are uncorrelated: |r| <= 4/sqrt(N) over N trials (4 standard errors).
"""

import numpy as np
import pytest

from wtomo.circuits import w_vector
from wtomo.linalg import outer
from wtomo.noise import QubitReadout, ReadoutModel, apply_readout_noise, exact_probs
from wtomo.pipeline import ExperimentConfig, run_pipeline
from wtomo.tomography import tomography_scheme

# strong readout noise, so that every outcome of every circuit is frequent
MODEL = ReadoutModel((QubitReadout(0.2, 0.1), QubitReadout(0.15, 0.25), QubitReadout(0.3, 0.2)))
CFG = ExperimentConfig(shots=16, trials=1000, seed=2718, noise=MODEL, scheme="full3q",
                       mitigate=False)
CHI2_Z = 4.265  # the normal quantile of 1 - 1e-5


@pytest.fixture(scope="module")
def draws():
    """(counts (N, 23, 2..8) per circuit as a list, outcome distributions):
    the 17 settings, then qubit A, B, C prepared in |0> and in |1>."""
    results = run_pipeline(CFG)
    counts3 = np.stack([r.counts for r in results])
    calib = np.rint(np.stack([r.calibration for r in results]) * CFG.shots).astype(int)
    rho = outer(w_vector())
    dists = [apply_readout_noise(exact_probs(rho, s), MODEL) for s in tomography_scheme(3).settings]
    counts = list(counts3.swapaxes(0, 1))
    for q, qubit in enumerate(MODEL.qubits):
        for prep in (0, 1):
            counts.append(calib[:, q, :, prep])
            dists.append(qubit.calibration_matrix()[:, prep])
    return counts, dists


def chi2_bound(dof: int) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at CHI2_Z."""
    h = 2 / (9 * dof)
    return dof * (1 - h + CHI2_Z * np.sqrt(h)) ** 3


def test_every_draw_has_the_configured_shots(draws):
    counts, _ = draws
    assert len(counts) == 17 + 6
    for c in counts:
        assert c.shape[0] == CFG.trials and (c.sum(axis=1) == CFG.shots).all()


def test_pooled_counts_fit_their_distribution(draws):
    counts, dists = draws
    for j, (c, p) in enumerate(zip(counts, dists)):
        observed = c.sum(axis=0)
        expected = observed.sum() * p
        assert expected.min() >= 5, (j, expected.min())  # the chi-square regime
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat <= chi2_bound(len(p) - 1), (j, stat)


def statistic(draws) -> np.ndarray:
    """(N, 23): per trial, each circuit's count of its most variable outcome."""
    counts, dists = draws
    return np.stack(
        [c[:, np.argmax(p * (1 - p))] for c, p in zip(counts, dists)], axis=1
    ).astype(float)


def test_circuits_of_a_trial_are_uncorrelated(draws):
    r = np.corrcoef(statistic(draws), rowvar=False)
    off = r[~np.eye(len(r), dtype=bool)]
    assert np.abs(off).max() <= 4 / np.sqrt(CFG.trials)


def test_consecutive_trials_are_uncorrelated(draws):
    x = statistic(draws)
    for j in range(x.shape[1]):
        r = np.corrcoef(x[:-1, j], x[1:, j])[0, 1]
        assert abs(r) <= 4 / np.sqrt(CFG.trials - 1), (j, r)
