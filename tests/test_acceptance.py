"""Acceptance gate: every release criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Each criterion is an independent test; the whole module runs in well
under five minutes.
"""

import numpy as np
import pytest

from wtomo.circuits import MeasurementSetting, prepare_w, w_vector
from wtomo.io import write_outputs
from wtomo.linalg import outer, partial_trace
from wtomo.metrics import fidelity_pure
from wtomo.mitigation import mitigation_matrix, spectral_correct
from wtomo.noise import ReadoutModel, apply_readout_noise, exact_probs
from wtomo.pipeline import ExperimentConfig, run_pipeline
from wtomo.tomography import reconstruct, tomography_scheme
from wtomo.wholeparts import DegenerateSpectrumError, MarginalPair, diosi_reconstruct
from wtomo import fixtures

from conftest import random_density, random_pure

SEED = 20240207


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_roundtrip_tomography():
    rng = np.random.default_rng(SEED)
    worst3 = worst2 = 0.0
    for _ in range(100):
        rho3 = random_density(8, rng)
        t3 = np.array([exact_probs(rho3, s) for s in tomography_scheme(3).settings])
        worst3 = max(worst3, np.abs(reconstruct(tomography_scheme(3), t3) - rho3).max())
        rho2 = random_density(4, rng)
        t2 = np.array([exact_probs(rho2, s) for s in tomography_scheme(2).settings])
        worst2 = max(worst2, np.abs(reconstruct(tomography_scheme(2), t2) - rho2).max())
    ok = worst3 <= 1e-10 and worst2 <= 1e-10
    report(
        "criterion 1 round-trip tomography (100 random states per scheme)",
        ok,
        f"max entry error 3q {worst3:.2e}, 2q {worst2:.2e} (tol 1e-10)",
    )


def test_criterion_2_whole_from_parts_exactness():
    rng = np.random.default_rng(SEED + 1)
    worst = 1.0
    n = 0
    while n < 100:
        psi = random_pure(8, rng)
        lam = np.linalg.eigvalsh(partial_trace(outer(psi), [0]))
        if abs(lam[1] - lam[0]) <= 0.05:
            continue
        n += 1
        rho = outer(psi)
        pair = MarginalPair(partial_trace(rho, [0, 1]), partial_trace(rho, [1, 2]), 1e-8)
        res = diosi_reconstruct(pair)
        worst = min(worst, abs(np.vdot(psi, res.psi)) ** 2)
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = outer(ghz)
    ghz_pair = MarginalPair(partial_trace(rho, [0, 1]), partial_trace(rho, [1, 2]), 1e-8)
    with pytest.raises(DegenerateSpectrumError):
        diosi_reconstruct(ghz_pair)
    ok = worst >= 1 - 1e-8
    report(
        "criterion 2 whole-from-parts exactness (100 gapped pure states + GHZ rejection)",
        ok,
        f"min overlap^2 {worst:.12f} (>= 1 - 1e-8); GHZ marginals raise degeneracy error",
    )


def test_criterion_3_published_fixture_regression():
    res = diosi_reconstruct(fixtures.experimental_marginals())
    rho_parts = outer(res.psi)
    dev = float(np.abs(rho_parts - fixtures.REF_RHO_PARTS).max())
    f = fidelity_pure(rho_parts)
    ok = dev <= fixtures.ENTRYWISE_TOL and abs(f - fixtures.FIDELITY_PARTS_EXPECTED) <= fixtures.FIDELITY_PARTS_TOL
    report(
        "criterion 3 published-fixture regression",
        ok,
        f"entrywise deviation {dev:.4f} (tol {fixtures.ENTRYWISE_TOL}), "
        f"fidelity {f:.4f} (expected {fixtures.FIDELITY_PARTS_EXPECTED} "
        f"± {fixtures.FIDELITY_PARTS_TOL})",
    )


def test_criterion_4_mitigation_identity_and_improvement():
    rng = np.random.default_rng(SEED + 2)
    model = ReadoutModel.ibm_osaka()
    fs = [q.calibration_matrix() for q in model.qubits]
    worst = 0.0
    for _ in range(20):
        p = rng.random(8)
        p /= p.sum()
        worst = max(worst, np.abs(mitigation_matrix(fs) @ apply_readout_noise(p, model) - p).max())

    cfg = ExperimentConfig(shots=20000, trials=5, seed=1234)
    results = run_pipeline(cfg)
    improved = sum(
        1
        for r in results
        if r.error is None and r.reports[True].f_full >= r.reports[False].f_full
    )
    ok = worst <= 1e-10 and improved >= 4
    report(
        "criterion 4 mitigation identity + estimated-calibration improvement",
        ok,
        f"identity error {worst:.2e} (tol 1e-10); mitigated f_full improved in "
        f"{improved}/5 trials (need >= 4)",
    )


def test_criterion_5_parts_beat_full_tomography():
    cfg = ExperimentConfig(shots=20000, trials=5, seed=1234)
    results = run_pipeline(cfg)
    wins = sum(
        1
        for r in results
        if r.error is None and r.reports[True].f_parts >= r.reports[True].f_full
    )
    ok = wins >= 4
    report(
        "criterion 5 whole-from-parts >= full tomography under readout noise",
        ok,
        f"f_parts >= f_full in {wins}/5 trials (need >= 4)",
    )


def test_criterion_6_noiseless_end_to_end():
    r = run_pipeline(ExperimentConfig(noise=None, exact=True, trials=1))[0]
    ok = (
        r.error is None
        and abs(r.reports[True].f_full - 1.0) <= 1e-8
        and abs(r.reports[True].f_parts - 1.0) <= 1e-8
    )
    rep = r.reports[True]
    report(
        "criterion 6 noiseless exact pipeline",
        ok,
        f"f_full {rep.f_full:.12f}, f_parts {rep.f_parts:.12f} (both 1 within 1e-8)",
    )


def test_criterion_7_spectral_correction():
    got = spectral_correct(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))
    unit_err = np.abs(got - np.diag([6 / 11, 5 / 11, 0, 0])).max()

    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (h + h.conj().T) / 2
        h = h / abs(np.trace(h).real) if abs(np.trace(h).real) > 1e-3 else h + np.eye(8)
        try:
            once = spectral_correct(h)
        except ValueError:
            continue
        worst = max(worst, np.abs(spectral_correct(once) - once).max())
    ok = unit_err <= 1e-12 and worst <= 1e-12
    report(
        "criterion 7 spectral correction unit case + idempotence",
        ok,
        f"unit-case error {unit_err:.2e} (tol 1e-12); "
        f"max idempotence drift over 100 random matrices {worst:.2e}",
    )


def test_criterion_8_w_state_preparation():
    psi = prepare_w()
    overlap = abs(np.vdot(w_vector(), psi))
    p = exact_probs(outer(psi), MeasurementSetting.from_label("ZZZ", 3))
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / 3
    dist_err = np.abs(p - expected).max()
    ok = abs(overlap - 1.0) <= 1e-12 and dist_err <= 1e-12
    report(
        "criterion 8 W-state preparation",
        ok,
        f"|overlap| deviation {abs(overlap - 1.0):.2e} (tol 1e-12); "
        f"all-Z distribution error {dist_err:.2e} vs (0,1/3,1/3,0,1/3,0,0,0)",
    )


def test_criterion_9_deterministic_reports(tmp_path):
    cfg = ExperimentConfig(shots=5000, trials=3, seed=777)
    write_outputs(cfg, run_pipeline(cfg), tmp_path / "a")
    write_outputs(cfg, run_pipeline(cfg), tmp_path / "b")
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    ok = a == b
    report(
        "criterion 9 byte-identical reports for identical config and seed",
        ok,
        f"report.csv identical across two runs ({len(a)} bytes)",
    )
