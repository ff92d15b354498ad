import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wtomo import cli, pipeline
from wtomo.circuits import (
    MeasurementSetting,
    prepare_w,
    w_vector,
)
from wtomo.cli import EXIT_OK, EXIT_PARTIAL, EXIT_RECONSTRUCTION, build_parser, main
from wtomo.io import (
    load_counts_file,
    load_density,
    load_readout_model,
    save_calibration,
    save_density,
    save_reconstruction,
    write_outputs,
)
from wtomo.linalg import flag, outer, partial_trace
from wtomo.metrics import fidelity_pure
from wtomo.noise import (
    QubitReadout,
    ReadoutModel,
    apply_readout_noise,
    exact_probs,
    outcome_distribution,
)
from wtomo.pipeline import ExperimentConfig, run_pipeline
from wtomo.tomography import tomography_scheme
from wtomo.wholeparts import MarginalPair, ReconstructionError, diosi_reconstruct

from conftest import layout_widths


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.shots == 20000 and cfg.trials == 5 and cfg.seed == 1234
        assert cfg.mitigate and cfg.scheme == "both"

    def test_validation(self):
        # the CLI prints these messages, so each names the field and the value
        with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError, match=r"^shots must be >= 1, got -3$"):
            ExperimentConfig(shots=-3)
        with pytest.raises(ValueError, match=r"^scheme must be one of \('full3q', 'parts2q', "
                                             r"'both'\), got 'everything'$"):
            ExperimentConfig(scheme="everything")
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="2 qubits"):
            ExperimentConfig(noise=ReadoutModel.ibm_osaka().subset([0, 1]))
        with pytest.raises(ValueError, match=r"^shots must be <= 9223372036854775807 "
                                             r"\(2\*\*63 - 1\), got 9223372036854775808$"):
            ExperimentConfig(shots=2**63)

    @pytest.mark.parametrize("field", ["shots", "trials", "seed"])
    @pytest.mark.parametrize("value", [2000.5, 2000.0, True, np.float64(3), "2000", None])
    def test_counts_and_seed_must_be_integers(self, field, value):
        # shots=2000.5 once drew 2000 counts per circuit and wrote 2000.5 to
        # report.csv, and shots=True ran a 1-shot experiment
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("mitigate", "no"), ("mitigate", 2), ("mitigate", 0.5), ("mitigate", None),
        ("exact", "yes"), ("exact", 1),
    ])
    def test_switches_must_be_bools(self, field, value):
        # mitigate=0.5 once wrote the unmitigated matrices and recorded 0.5, and
        # mitigate="no" failed only after the whole batch had run
        with pytest.raises(TypeError, match=f"^{field} must be a bool, got "):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", ["table3", {"qA": {"p01": 0.0, "p10": 0.0}},
                                       ReadoutModel.ibm_osaka().qubits])
    def test_noise_must_be_a_readout_model(self, value):
        # noise="table3" once failed with AttributeError: 'str' object has no attribute 'qubits'
        with pytest.raises(TypeError, match="^noise must be a ReadoutModel or None, got "):
            ExperimentConfig(noise=value)

    def test_numpy_bools_are_stored_as_bool(self):
        cfg = ExperimentConfig(mitigate=np.False_, exact=np.True_)
        assert [(type(v), v) for v in (cfg.mitigate, cfg.exact)] == [(bool, False), (bool, True)]

    def test_numpy_integers_are_stored_as_int(self):
        cfg = ExperimentConfig(shots=np.int64(2000), trials=np.uint8(2), seed=np.uint64(2**64 - 1))
        assert [(type(v), v) for v in (cfg.shots, cfg.trials, cfg.seed)] == [
            (int, 2000), (int, 2), (int, 2**64 - 1)]


class TestRunTrial:
    def test_exact_noiseless_is_perfect(self):
        r = run_pipeline(ExperimentConfig(noise=None, exact=True, trials=1))[0]
        assert r.error is None
        for rep in r.reports.values():
            assert abs(rep.f_full - 1.0) <= 1e-8
            assert abs(rep.f_parts - 1.0) <= 1e-8

    def test_exact_noisy_unmitigated_vs_mitigated(self):
        # analytic probabilities through the confusion model: mitigation with
        # the true matrices recovers the state exactly
        r = run_pipeline(ExperimentConfig(exact=True, trials=1))[0]
        assert r.error is None
        assert abs(r.reports[True].f_full - 1.0) <= 1e-8
        assert r.reports[False].f_full < r.reports[True].f_full

    def test_sampled_trial_structure(self):
        cfg = ExperimentConfig(shots=2000, trials=1, seed=7)
        r = run_pipeline(cfg)[0]
        assert r.error is None
        assert set(r.matrices) == {"rho_full", "rho_ab", "rho_bc"}
        assert r.parts.psi.shape == (8,) and r.parts.rho.shape == (8, 8)
        assert r.counts.shape == (17, 8)
        assert (r.counts.sum(axis=1) == 2000).all()
        assert len(r.calibration) == 3
        for f_hat in r.calibration:
            assert np.allclose(f_hat.sum(axis=0), 1.0)

    def test_matrices_are_physical(self):
        r = run_pipeline(ExperimentConfig(shots=2000, trials=1, seed=7))[0]
        for rho in (*r.matrices.values(), r.parts.rho):
            assert abs(np.trace(rho) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(rho).min() >= -1e-9

    def test_scheme_restriction(self):
        r = run_pipeline(ExperimentConfig(shots=1000, trials=1, scheme="full3q"))[0]
        assert not np.isnan(r.reports[True].f_full)
        assert np.isnan(r.reports[True].f_parts)
        r = run_pipeline(ExperimentConfig(shots=1000, trials=1, scheme="parts2q"))[0]
        assert np.isnan(r.reports[True].f_full)
        assert not np.isnan(r.reports[True].f_parts)

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(shots=2000, trials=20, seed=1234),
        ExperimentConfig(exact=True, trials=2, seed=1234),
        ExperimentConfig(shots=2000, trials=20, seed=1234, mitigate=False),
    ], ids=["sampled", "exact", "no-mitigate"])
    def test_reported_fidelities_are_those_of_the_written_matrices(self, cfg):
        # every fidelity is against the one W: the report's numbers are what
        # fidelity_pure, and so `wtomo fidelity`, gives on the trial's matrices
        for r in run_pipeline(cfg):
            assert r.error is None
            written = r.reports[cfg.mitigate]
            assert fidelity_pure(r.matrices["rho_full"]) == written.f_full, r.trial_id
            assert fidelity_pure(r.parts.rho) == written.f_parts, r.trial_id

    def test_setting_unitaries_are_built_once_per_noise_model(self, monkeypatch):
        # 17 + 7 + 7 settings, however many trials; the schemes are derived first
        # so that only the pipeline's own calls are counted
        tomography_scheme(3), tomography_scheme(2)
        labels = []
        unitary = MeasurementSetting.unitary
        monkeypatch.setattr(
            MeasurementSetting, "unitary", lambda s: labels.append(s.label) or unitary(s)
        )
        calls = []
        for trials, p01 in ((1, 0.0123), (10, 0.0321)):
            model = ReadoutModel((QubitReadout(p01, 0.0456),) * 3)  # not cached yet
            run_pipeline(ExperimentConfig(shots=200, trials=trials, noise=model))
            calls.append(len(labels))
            labels.clear()
        assert calls == [31, 31]

    def test_cached_probabilities_are_read_only(self):
        # per noise model one (37, 8) table of exact probabilities and one the
        # sampler draws from; zeros, exactly +0.0, lead each row of a group
        # narrower than 8
        for model in (ReadoutModel.ibm_osaka(), None):
            table, dist = pipeline._noisy_probs(model)
            assert table.shape == dist.shape == (37, 8)
            for a in (table, dist):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0
                for row, width in zip(a, layout_widths(a), strict=True):
                    assert row[:8 - width].tobytes() == bytes(8 * (8 - width)), model

    def test_no_noise_is_the_perfect_readout_model(self):
        perfect = ReadoutModel((QubitReadout(0.0, 0.0),) * 3)
        for none, model in zip(pipeline._noisy_probs(None), pipeline._noisy_probs(perfect),
                               strict=True):
            assert none.dtype == model.dtype and none.tobytes() == model.tobytes()

    def test_table_rows_follow_the_layout(self):
        # 17 3q settings, 7 AB and 7 BC settings, then qubit A, B, C prepared in |0>, |1>
        model = ReadoutModel.ibm_osaka()
        table, dist = pipeline._noisy_probs(model)
        rho_w, groups = outer(prepare_w()), []
        full, pair = tomography_scheme(3).settings, tomography_scheme(2).settings
        for qubits, settings in (([0, 1, 2], full), ([0, 1], pair), ([1, 2], pair)):
            rho, sub = partial_trace(rho_w, qubits), model.subset(qubits)
            groups.append([apply_readout_noise(exact_probs(rho, s), sub) for s in settings])
        groups.append([q.calibration_matrix()[:, prep] for q in model.qubits for prep in (0, 1)])
        assert [len(rows) for rows in groups] == [17, 7, 7, 6]
        assert [len(rows[0]) for rows in groups] == [width for width, _ in pipeline.LAYOUT]
        for g, (rows, t, d) in enumerate(
                zip(groups, pipeline._groups(table), pipeline._groups(dist), strict=True)):
            for j, row in enumerate(rows):
                assert np.array_equal(t[j], row), (g, j)
                assert np.array_equal(d[j], outcome_distribution(row)), (g, j)


def report_text(cfg, results, out):
    """report.csv of the run directory write_outputs makes at out."""
    write_outputs(cfg, results, out)
    return (out / "report.csv").read_text()


def density_object(rho, path):
    """The density file save_density writes for rho at path, as its JSON object."""
    save_density(rho, path)
    return json.loads(path.read_text())


def injecting(targets):
    """The pipeline's Diosi core, flagging each pair of a stack of any leading
    shape whose rho_ab is one of targets."""
    diosi = pipeline._diosi_reconstruct

    def flaky(pair, errors):
        hit = np.any([(pair.rho_ab == t).all(axis=(-2, -1)) for t in targets], axis=0)
        flag(errors, hit, lambda k: ReconstructionError("injected"))
        return diosi(pair, errors)

    return flaky


class TestBatching:
    """run_pipeline runs all trials as one stack; a trial's result does not
    depend on how many trials run with it."""

    CFG = ExperimentConfig(shots=2000, trials=6, seed=31)

    def test_pipeline_trials_equal_a_shorter_run_bitwise(self):
        short = run_pipeline(ExperimentConfig(shots=2000, trials=3, seed=31))
        for r, one in zip(run_pipeline(self.CFG)[:3], short):
            assert r.trial_id == one.trial_id
            assert r.error is None and one.error is None
            assert r.reports == one.reports
            assert r.matrices.keys() == one.matrices.keys() == {"rho_full", "rho_ab", "rho_bc"}
            for name in r.matrices:
                assert np.array_equal(r.matrices[name], one.matrices[name]), name
            for attr in ("psi", "rho", "residual_ab", "residual_bc"):
                assert np.array_equal(getattr(r.parts, attr), getattr(one.parts, attr)), attr
            assert r.parts.truncated_mass == one.parts.truncated_mass
            assert np.array_equal(r.counts, one.counts)
            assert all(np.array_equal(a, b) for a, b in zip(r.calibration, one.calibration))

    def test_exact_trials_equal_a_shorter_run_bitwise(self):
        short = run_pipeline(ExperimentConfig(exact=True, trials=3))
        for r, one in zip(run_pipeline(ExperimentConfig(exact=True, trials=6))[:3], short):
            assert r.trial_id == one.trial_id
            assert r.reports == one.reports
            for name in r.matrices:
                assert np.array_equal(r.matrices[name], one.matrices[name]), name

    def test_a_failing_trial_fails_alone(self, monkeypatch, tmp_path):
        # Diosi flags trial 2's mitigated AB marginal; the others come out as
        # in a clean run
        clean = run_pipeline(self.CFG)
        target = clean[2].matrices["rho_ab"]
        monkeypatch.setattr(pipeline, "_diosi_reconstruct", injecting([target]))
        results = run_pipeline(self.CFG)
        assert [r.error for r in results] == [None, None, "ReconstructionError: injected",
                                              None, None, None]
        # the unmitigated pass of trial 2 ran before the failure and is kept
        u = clean[2].reports[False]
        assert report_text(self.CFG, results, tmp_path).splitlines()[3] == (
            f"2,error,{u.f_full:.6f},,{u.f_parts:.6f},"
        )
        assert results[2].reports[False] == u
        assert True not in results[2].reports and not results[2].matrices
        assert results[2].parts is None
        assert np.array_equal(results[2].counts, clean[2].counts)
        for r, c in zip(results, clean):
            if r.trial_id != 2:
                assert r.reports == c.reports
                assert np.array_equal(r.parts.rho, c.parts.rho)

    def test_both_passes_and_both_pairs_share_one_call_per_stage(self, monkeypatch):
        # one spectral_correct per route and one Diosi call on (pass, trial)
        # stacks; 4 eigh: the 3q and 2q corrections and Diosi's two stacks
        calls = []
        for name in ("spectral_correct", "_diosi_reconstruct"):
            stage = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name,
                                lambda *a, stage=stage, name=name: calls.append(name) or stage(*a))
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
        run_pipeline(self.CFG)
        assert calls == ["spectral_correct", (2, 6, 8, 8), "spectral_correct", (2, 6, 2, 4, 4),
                         "_diosi_reconstruct", (2, 6, 2, 2, 2), (2, 6, 2, 4, 4)]

    def test_calibration_is_inverted_once_per_batch(self, monkeypatch):
        # the 3q map and the AB/BC maps are all composed from one checked
        # (trial, qubit) stack of inverses
        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
        run_pipeline(self.CFG)
        assert shapes == [(6, 3, 2, 2)]

    # each failing seed is the first from 1234 up whose middle trial alone fails
    ESTIMATE_RUNS = {
        "sampled": ExperimentConfig(shots=2000, trials=4, seed=31),
        "exact": ExperimentConfig(exact=True, trials=3),
        "no-mitigate": ExperimentConfig(shots=2000, trials=4, seed=31, mitigate=False),
        "middle-fails-diosi": ExperimentConfig(shots=2, trials=3, seed=1234),
        "middle-fails-calibration": ExperimentConfig(shots=1, trials=3, seed=1245, mitigate=False),
    }

    @pytest.mark.parametrize("name", ESTIMATE_RUNS)
    def test_estimate_on_one_trial_of_the_block_gives_its_arrays(self, name, monkeypatch):
        # _estimate on a one-trial slice of the block run_pipeline drew gives
        # that trial's arrays bitwise; it reads no shots, seed or exact
        cfg, seen = self.ESTIMATE_RUNS[name], []
        estimate = pipeline._estimate
        monkeypatch.setattr(pipeline, "_estimate", lambda *a: seen.append(a) or estimate(*a))
        results = run_pipeline(cfg)
        [(freqs, eps_b, _)] = seen
        assert freqs.shape == (cfg.trials, 37, 8)
        f_full, f_parts, matrices, recon, f_hats, errors = estimate(freqs, eps_b, cfg)
        assert [r.error is not None for r in results] == (
            [False, True, False] if name.startswith("middle-fails") else [False] * cfg.trials)
        other = dataclasses.replace(cfg, shots=7, seed=0, exact=not cfg.exact)
        for t in range(cfg.trials):
            one = estimate(freqs[t:t + 1], eps_b, other)
            assert np.array_equal(one[0][:, 0], f_full[:, t], equal_nan=True)
            assert np.array_equal(one[1][:, 0], f_parts[:, t], equal_nan=True)
            assert one[2].keys() == matrices.keys()
            for key, m in matrices.items():
                assert np.array_equal(one[2][key][0], m[t], equal_nan=True), key
            for attr in ("psi", "rho", "residual_ab", "residual_bc"):
                assert np.array_equal(getattr(one[3], attr)[0], getattr(recon, attr)[t],
                                      equal_nan=True), attr
            for key, v in recon.truncated_mass.items():
                assert np.array_equal(one[3].truncated_mass[key][0], v[t]), key
            assert np.array_equal(one[4][0], f_hats[t])
            assert ({p: repr(e) for (p, _), e in one[5].items()}
                    == {p: repr(e) for (p, k), e in errors.items() if k == t})

    def test_a_programming_error_propagates(self, monkeypatch):
        # only calibration and reconstruction checks make a trial fail
        def broken(rho):
            raise ValueError("bug")

        monkeypatch.setattr(pipeline, "spectral_correct", broken)
        with pytest.raises(ValueError, match="bug"):
            run_pipeline(self.CFG)

    # each seed is the first from 1234 up whose run has the failure it covers
    FAILING_RUNS = {
        "shots1_trials40_parts2q_nomitigate":
            ExperimentConfig(shots=1, trials=40, seed=1235, scheme="parts2q", mitigate=False),
        "shots3_trials100": ExperimentConfig(shots=3, trials=100, seed=1237),
    }
    # the failure each golden run exists to cover, and the files its trial keeps;
    # regenerated goldens must still hold both
    FAILING_RUN_COVERS = {
        "shots1_trials40_parts2q_nomitigate": (
            "ValueError: calibration matrix is numerically singular",
            ["calibration.json", "counts_3q.json", "rho_ab.json", "rho_bc.json", "rho_parts.json"],
        ),
        "shots3_trials100": ("TooMixedError: ", ["calibration.json", "counts_3q.json"]),
    }

    @pytest.mark.parametrize("name", FAILING_RUNS)
    def test_golden_failing_run(self, name, tmp_path):
        # singular calibration (a trial that fails only in the mitigated pass
        # keeps its unmitigated matrices under --no-mitigate) and TooMixedError,
        # as written when sampling became one stream per trial
        golden = Path(__file__).parent / "data" / "failing_runs" / name
        out = tmp_path / "run"
        cfg = self.FAILING_RUNS[name]
        write_outputs(cfg, run_pipeline(cfg), out)
        for f in ("report.csv", "run_metadata.json"):
            assert (out / f).read_text() == (golden / f).read_text(), f
        files = json.loads((golden / "failed_trial_files.json").read_text())
        errors = json.loads((out / "run_metadata.json").read_text())["errors"]
        assert sorted(files) == sorted(f"trial_{t}" for t in errors)
        for tdir, names in files.items():
            assert sorted(p.name for p in (out / tdir).iterdir()) == names, tdir
        error, kept = self.FAILING_RUN_COVERS[name]
        assert any(e.startswith(error) and files[f"trial_{t}"] == kept
                   for t, e in errors.items())

    def test_a_branch_phase_read_from_rounding_noise_fails_its_trial(self):
        # in trials 31, 54 and 55 of --shots 1 --trials 60 both A branches are
        # live, but the branch that fixes gamma_1 overlaps C branch 0 only at
        # rounding level, so the relative branch phase would come from noise
        errors = {r.trial_id: r.error for r in run_pipeline(ExperimentConfig(shots=1, trials=60))
                  if r.error and r.error.startswith("UnderdeterminedPhaseError")}
        assert sorted(errors) == [31, 54, 55]
        prefix = "UnderdeterminedPhaseError: branch 1 fixes gamma_1 but its overlap with C branch 0 is "
        suffix = " < 1e-08; the relative branch phase is unresolved"
        assert errors[31].startswith(prefix) and errors[31].endswith(suffix)
        assert float(errors[31][len(prefix):-len(suffix)]) < 1e-15

    def test_golden_report(self, tmp_path):
        # report.csv of seed 1234, 20 trials, 2000 shots, both schemes, mitigated,
        # as written when sampling became one stream per trial
        golden = Path(__file__).parent / "data" / "report_seed1234_20x2000.csv"
        cfg = ExperimentConfig(shots=2000, trials=20, seed=1234, scheme="both", mitigate=True)
        assert report_text(cfg, run_pipeline(cfg), tmp_path) == golden.read_text()

    def test_golden_report_of_a_three_word_seed(self, tmp_path):
        # seed 2**64 + 3 spans three 32-bit words, so every stream key
        # [seed, t] is a multi-word key; report.csv as written when sampling
        # became one stream per trial
        golden = Path(__file__).parent / "data" / "report_seed2p64p3_3x2000.csv"
        cfg = ExperimentConfig(shots=2000, trials=3, seed=2**64 + 3, scheme="both", mitigate=True)
        assert report_text(cfg, run_pipeline(cfg), tmp_path) == golden.read_text()

    # every file of a small passing run: report, metadata, and per trial the
    # four density files, the calibration file and (when sampled) the counts
    # file; the exact run pins the noisy tables and the maps that mitigate them,
    # the int64 run the counts at numpy's limit on shots, and the noiseless run
    # a sampled run whose readout model is the perfect one
    GOLDEN_RUNS = {
        "golden_run_seed1234_2x2000": (ExperimentConfig(shots=2000, trials=2, seed=1234), 6),
        "golden_run_exact_2trials": (ExperimentConfig(trials=2, exact=True), 5),
        "golden_run_int64shots_2trials": (ExperimentConfig(shots=2**63 - 1, trials=2), 6),
        "golden_run_noiseless_2trials": (
            ExperimentConfig(shots=2000, trials=2, seed=1234, noise=None), 6),
    }

    @pytest.mark.parametrize("name", GOLDEN_RUNS)
    def test_golden_run_directory(self, name, tmp_path):
        golden = Path(__file__).parent / "data" / name
        cfg, trial_files = self.GOLDEN_RUNS[name]
        out = tmp_path / "run"
        write_outputs(cfg, run_pipeline(cfg), out)
        files = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
        assert len(files) == 2 + 2 * trial_files
        for f in files:
            assert (out / f).read_bytes() == (golden / f).read_bytes(), f

    @pytest.mark.parametrize("kind", [np.int64, np.uint16])
    def test_numpy_integer_config_writes_the_golden_run(self, kind, tmp_path):
        # an np.int64 seed once ran the pipeline, then failed the JSON write
        # after report.csv, leaving a half-written run directory
        golden = Path(__file__).parent / "data" / "golden_run_seed1234_2x2000"
        cfg = ExperimentConfig(shots=kind(2000), trials=kind(2), seed=kind(1234))
        write_outputs(cfg, run_pipeline(cfg), tmp_path)
        for f in (p.relative_to(golden) for p in golden.rglob("*") if p.is_file()):
            assert (tmp_path / f).read_bytes() == (golden / f).read_bytes(), f


class TestDeterminism:
    def test_report_bytes_identical(self, tmp_path):
        cfg = ExperimentConfig(shots=3000, trials=2, seed=99)
        write_outputs(cfg, run_pipeline(cfg), tmp_path / "a")
        write_outputs(cfg, run_pipeline(cfg), tmp_path / "b")
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        base = ExperimentConfig(shots=3000, trials=1, seed=99)
        other = ExperimentConfig(shots=3000, trials=1, seed=100)
        ra = report_text(base, run_pipeline(base), tmp_path / "a")
        assert ra != report_text(other, run_pipeline(other), tmp_path / "b")

    def test_stream_keys_are_distinct(self, monkeypatch):
        # every trial draws from its own stream [seed, t]: one generator per
        # trial, each with its own state
        keys = []
        default_rng = np.random.default_rng

        def recording_default_rng(key):
            keys.append(key)
            return default_rng(key)

        monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
        trials = 5
        run_pipeline(ExperimentConfig(shots=100, trials=trials, seed=1234))
        assert keys == [[1234, t] for t in range(trials)]
        states = {tuple(np.random.SeedSequence(k).generate_state(4)) for k in keys}
        assert len(states) == trials

    def test_calibration_is_drawn_after_the_settings(self):
        # calibration circuit j (qubit j // 2 prepared in |j % 2>) of trial t
        # is row j of the last group: stream [seed, t] draws it after the
        # 17 + 7 + 7 settings
        model = ReadoutModel.ibm_osaka()
        cfg = ExperimentConfig(shots=500, trials=3, seed=42, noise=model)
        settings = pipeline._groups(pipeline._noisy_probs(model)[1])[:3]
        for t, r in enumerate(run_pipeline(cfg)):
            rng = np.random.default_rng([cfg.seed, t])
            for dist in settings:
                for row in dist:
                    rng.multinomial(cfg.shots, row)
            for j in range(6):
                q, prep = divmod(j, 2)
                p = outcome_distribution(model.qubits[q].calibration_matrix()[:, prep])
                draw = rng.multinomial(cfg.shots, p)
                assert np.array_equal(r.calibration[q][:, prep], draw / cfg.shots), (t, j)

    def test_trials_are_independent_streams(self):
        results = run_pipeline(ExperimentConfig(shots=1000, trials=2, seed=5))
        assert not np.array_equal(results[0].counts[0], results[1].counts[0])


class TestOutputs:
    def test_output_tree(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig(shots=1500, trials=2, seed=3)
        write_outputs(cfg, run_pipeline(cfg), out)
        assert (out / "report.csv").exists()
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["config"]["shots"] == 1500
        assert meta["config"]["rng"].startswith("numpy PCG64")
        for t in range(2):
            tdir = out / f"trial_{t}"
            for name in ("rho_full", "rho_ab", "rho_bc", "rho_parts"):
                assert (tdir / f"{name}.json").exists()
            assert (tdir / "counts_3q.json").exists()
            assert (tdir / "calibration.json").exists()

    def test_report_header(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig(shots=1000, trials=1)
        write_outputs(cfg, run_pipeline(cfg), out)
        first = (out / "report.csv").read_text().splitlines()[0]
        assert first == (
            "trial,shots,f_full_unmitigated,f_full_mitigated,"
            "f_parts_unmitigated,f_parts_mitigated"
        )

    def test_counts_file_names_its_stream(self, tmp_path):
        # replaying default_rng(seed entry) of a trial's counts_3q.json over the
        # groups of LAYOUT, row by row in order, gives that file's tables and
        # the trial's calibration.json
        out = tmp_path / "run"
        cfg = ExperimentConfig(shots=700, trials=2, seed=1234)
        write_outputs(cfg, run_pipeline(cfg), out)
        for t in range(2):
            tdir = out / f"trial_{t}"
            obj = json.loads((tdir / "counts_3q.json").read_text())
            assert obj["seed"] == [1234, t]
            noise = tmp_path / f"noise_{t}.json"
            noise.write_text(json.dumps(obj["noise"]))
            model = load_readout_model(noise, 3)
            rng = np.random.default_rng(obj["seed"])
            draws = [np.array([rng.multinomial(obj["shots"], row) for row in dist])
                     for dist in pipeline._groups(pipeline._noisy_probs(model)[1])]
            assert np.array_equal(load_counts_file(tdir / "counts_3q.json", 3), draws[0])
            calibration = draws[3].reshape(3, 2, 2).swapaxes(-1, -2) / obj["shots"]
            saved = tmp_path / f"calibration_{t}.json"
            save_calibration(calibration, saved)
            assert saved.read_bytes() == (tdir / "calibration.json").read_bytes(), t

    def test_saved_marginals_consistent_with_parts(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig(shots=20000, trials=1, seed=11)
        write_outputs(cfg, run_pipeline(cfg), out)
        rho_parts = load_density(out / "trial_0" / "rho_parts.json", 3)
        rho_ab = load_density(out / "trial_0" / "rho_ab.json", 2)
        assert np.abs(partial_trace(rho_parts, [0, 1]) - rho_ab).max() <= 0.1


class TestCli:
    def test_pipeline_command(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "pipeline", "--shots", "1000", "--trials", "1", "--seed", "4",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert (out / "report.csv").exists()
        assert "trial 0" in capsys.readouterr().out

    def test_pipeline_exact_no_noise(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "pipeline", "--exact", "--noise", "none", "--trials", "1",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        line = (out / "report.csv").read_text().splitlines()[1]
        fields = line.split(",")
        assert float(fields[2]) == pytest.approx(1.0, abs=1e-6)
        assert float(fields[4]) == pytest.approx(1.0, abs=1e-6)

    def test_fixtures_command(self, capsys):
        assert main(["fixtures"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_single_input_commands_write_the_golden_bytes(self, tmp_path, monkeypatch, capsys):
        # one input through the public functions: the fixtures report, a Diosi
        # state file from trial 0 of the golden run, and the fidelity of its
        # full-tomography matrix, each as written before one input took the
        # stack's path and returned numpy scalars
        golden = Path(__file__).parent / "data" / "cli_single_input"
        trial = Path(__file__).parent / "data" / "golden_run_seed1234_2x2000" / "trial_0"
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["fixtures"]) == EXIT_OK
        assert capsys.readouterr().out == (golden / "fixtures_stdout.txt").read_text()
        assert main(["diosi", str(trial / "rho_ab.json"), str(trial / "rho_bc.json"),
                     "--eps-b", "0.0642", "--out", "diosi_trial0.json"]) == EXIT_OK
        assert capsys.readouterr().out == (golden / "diosi_stdout.txt").read_text()
        assert (Path("diosi_trial0.json").read_bytes()
                == (golden / "diosi_trial0.json").read_bytes())
        assert main(["fidelity", str(trial / "rho_full.json")]) == EXIT_OK
        assert capsys.readouterr().out == (golden / "fidelity_stdout.txt").read_text()

    def test_diosi_and_fidelity_commands(self, tmp_path, capsys):
        rho = outer(w_vector())
        ab, bc = tmp_path / "ab.json", tmp_path / "bc.json"
        save_density(partial_trace(rho, [0, 1]), ab)
        save_density(partial_trace(rho, [1, 2]), bc)
        out = tmp_path / "psi.json"
        rc = main(["diosi", str(ab), str(bc), "--eps-b", "1e-8", "--out", str(out)])
        assert rc == EXIT_OK
        d = json.loads(out.read_text())
        psi = np.array(d["re"]) + 1j * np.array(d["im"])
        assert abs(abs(np.vdot(w_vector(), psi)) - 1.0) <= 1e-8

        state = tmp_path / "state.json"
        save_density(rho, state)
        assert main(["fidelity", str(state)]) == EXIT_OK
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(printed) == pytest.approx(1.0, abs=1e-6)

    def test_diosi_renormalizes_without_python_warnings(self, tmp_path):
        # marginals of trace 0.98 once put two UserWarning records, with the
        # install path and a source line, on the stderr of a fresh process
        run = tmp_path / "run"
        cfg = ExperimentConfig(shots=20000, trials=1, seed=11)
        write_outputs(cfg, run_pipeline(cfg), run)
        ab, bc, out = tmp_path / "ab.json", tmp_path / "bc.json", tmp_path / "psi.json"
        for name, path in (("rho_ab", ab), ("rho_bc", bc)):
            save_density(0.98 * load_density(run / "trial_0" / f"{name}.json", 2), path)
        proc = subprocess.run(
            [sys.executable, "-m", "wtomo.cli", "diosi", str(ab), str(bc), "--eps-b", "0.0642",
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "UserWarning" not in proc.stderr and ".py:" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"{path} has trace 0.98; renormalizing to 1" for path in (ab, bc)
        ]
        # the state is the one the library writes when it renormalizes itself,
        # which it does without a Python warning
        expected = tmp_path / "expected.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = MarginalPair(load_density(ab, 2), load_density(bc, 2), 0.0642)
            save_reconstruction(diosi_reconstruct(pair), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_diosi_renormalizes_as_from_the_divided_files(self, tmp_path, capsys):
        # the note prints enough digits that a renormalized trace never reads as 1
        rho = outer(w_vector())
        for scale, shown in ((0.98, "0.98"), (1 + 1e-8, "1.00000001")):
            scaled = [tmp_path / "ab.json", tmp_path / "bc.json"]
            divided = [tmp_path / "ab_divided.json", tmp_path / "bc_divided.json"]
            for keep, path, div in zip(([0, 1], [1, 2]), scaled, divided, strict=True):
                save_density(scale * partial_trace(rho, keep), path)
                marginal = load_density(path, 2)
                save_density(marginal / np.trace(marginal).real, div)
            outs = tmp_path / "psi.json", tmp_path / "psi_divided.json"
            for files, out in zip((scaled, divided), outs, strict=True):
                argv = ["diosi", *map(str, files), "--eps-b", "1e-8", "--out", str(out)]
                assert main(argv) == EXIT_OK
                assert capsys.readouterr().err.splitlines() == [
                    f"{path} has trace {shown}; renormalizing to 1"
                    for path in files if files is scaled]
            assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("scale", [0.98, 1 + 1e-8], ids=["0.98", "1+1e-8"])
    def test_fidelity_renormalizes_beyond_the_trace_tolerance(self, scale, tmp_path, capsys,
                                                              monkeypatch):
        # a trace off by more than TRACE_TOL is divided out, as diosi does
        rho = 0.9 * outer(w_vector()) + 0.1 * np.eye(8) / 8
        state, divided = tmp_path / "state.json", tmp_path / "divided.json"
        save_density(scale * rho, state)
        save_density(scale * rho / np.trace(scale * rho).real, divided)
        seen = []
        monkeypatch.setattr(cli, "fidelity_pure",
                            lambda r: seen.append(np.trace(r).real) or fidelity_pure(r))
        printed = []
        for path in (state, divided):
            assert main(["fidelity", str(path)]) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == f"{fidelity_pure(rho):.6f}\n"
        assert seen[0] == pytest.approx(1.0, abs=1e-15)

    def test_diosi_failure_exit_code(self, tmp_path, capsys):
        # GHZ marginals: degenerate spectrum -> reconstruction exit code
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        rho = outer(ghz)
        ab, bc = tmp_path / "ab.json", tmp_path / "bc.json"
        save_density(partial_trace(rho, [0, 1]), ab)
        save_density(partial_trace(rho, [1, 2]), bc)
        rc = main(["diosi", str(ab), str(bc), "--eps-b", "1e-8",
                   "--out", str(tmp_path / "psi.json")])
        assert rc == 3

    @pytest.mark.parametrize("flag, value, reason", [
        ("--shots", 0, ">= 1"),
        ("--trials", 0, ">= 1"),
        ("--seed", -1, ">= 0"),
        # numpy's multinomial once failed on these with an OverflowError traceback
        ("--shots", 2**63, f"<= {2**63 - 1} (2**63 - 1)"),
        ("--shots", 10**20, f"<= {2**63 - 1} (2**63 - 1)"),
    ], ids=["shots=0", "trials=0", "seed=-1", "shots=2**63", "shots=10**20"])
    def test_pipeline_rejects_a_setting_out_of_range(self, flag, value, reason, tmp_path,
                                                     capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", flag, str(value), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        field = flag.removeprefix("--")
        assert (f"wtomo pipeline: error: {field} must be {reason}, got {value}"
                in capsys.readouterr().err.splitlines())
        assert not (tmp_path / "run").exists()

    def test_pipeline_takes_every_default_from_the_config(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_pipeline", lambda cfg: seen.append(cfg) or [])
        main(["pipeline", "--out", str(tmp_path / "run")])
        assert seen == [ExperimentConfig()]

    def test_pipeline_runs_at_the_largest_shots(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["pipeline", "--shots", str(2**63 - 1), "--trials", "1",
                     "--out", str(out)]) == EXIT_OK
        counts = json.loads((out / "trial_0" / "counts_3q.json").read_text())
        assert counts["shots"] == 2**63 - 1
        assert sum(counts["ZZZ"].values()) == 2**63 - 1

    @pytest.mark.parametrize("command", [
        ["tomo3q", "{missing}", "--out", "{out}"],
        ["tomo2q", "{missing}", "--out", "{out}"],
        # the library checks eps_b and the settings after the files are read
        ["diosi", "{missing}", "{missing}", "--eps-b", "nan", "--out", "{out}"],
        ["fidelity", "{missing}"],
        ["pipeline", "--noise", "{missing}", "--shots", "0", "--out", "{out}"],
    ], ids=lambda c: c[0])
    def test_missing_input_file_is_reported(self, command, tmp_path):
        missing = tmp_path / "absent.json"
        argv = [a.format(missing=missing, out=tmp_path / "out.json") for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(f"cannot read {missing}: ")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["pipeline", "tomo3q", "tomo2q", "diosi"])
    def test_failed_write_is_reported(self, command, tmp_path):
        # pipeline --out names an existing file; the others write into a missing directory
        rho = outer(w_vector())
        ab, bc = tmp_path / "ab.json", tmp_path / "bc.json"
        save_density(partial_trace(rho, [0, 1]), ab)
        save_density(partial_trace(rho, [1, 2]), bc)
        scheme = tomography_scheme(2 if command == "tomo2q" else 3)
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({label: {"0" * scheme.nqubits: 10}
                                      for label in scheme.labels}))
        taken, out = tmp_path / "taken", tmp_path / "absent" / "out.json"
        taken.write_text("kept")
        argv, path, code = {
            "pipeline": (["pipeline", "--shots", "100", "--trials", "1", "--out", str(taken)],
                         taken, errno.EEXIST),
            "tomo3q": (["tomo3q", str(counts), "--out", str(out)], out, errno.ENOENT),
            "tomo2q": (["tomo2q", str(counts), "--out", str(out)], out, errno.ENOENT),
            "diosi": (["diosi", str(ab), str(bc), "--eps-b", "1e-8", "--out", str(out)],
                      out, errno.ENOENT),
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == f"cannot write {path}: {os.strerror(code)}"
        assert taken.read_text() == "kept" and not out.parent.exists()

    def test_pipeline_checks_out_before_simulating(self, tmp_path, monkeypatch):
        def unreachable(cfg):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli, "run_pipeline", unreachable)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--out", str(taken)])
        assert exc.value.code == f"cannot write {taken}: {os.strerror(errno.EEXIST)}"
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.01", "1e400", "abc"])
    def test_diosi_rejects_eps_b_that_is_not_finite_and_non_negative(self, value, tmp_path,
                                                                      capsys):
        # a NaN eps_b would pass the shared-qubit consistency check; the pair
        # checks it once both files are read, argparse only that it is a float
        rho = outer(w_vector())
        ab, bc, out = tmp_path / "ab.json", tmp_path / "bc.json", tmp_path / "psi.json"
        save_density(partial_trace(rho, [0, 1]), ab)
        save_density(partial_trace(rho, [1, 2]), bc)
        with pytest.raises(SystemExit) as exc:
            main(["diosi", str(ab), str(bc), "--eps-b", value, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("wtomo diosi: error: argument --eps-b: invalid float value: 'abc'"
                           if value == "abc" else
                           f"wtomo diosi: error: eps_b must be a finite number >= 0, "
                           f"got {float(value)}")
        assert not out.exists()

    def test_diosi_names_a_marginal_that_renormalizing_makes_not_hermitian(self, tmp_path,
                                                                           capsys):
        # a file of trace 0.5 and skew 7e-9 is within 1e-8 of Hermitian as
        # read, but divided by its trace, the matrix diosi and fidelity use,
        # the skew is 1.4e-8: a malformed input file for both commands
        ab, bc, state = tmp_path / "ab.json", tmp_path / "bc.json", tmp_path / "state.json"
        for d, path in ((4, ab), (8, state)):
            rho = np.diag([0.25, 0.25] + [0] * (d - 2)).astype(complex)
            rho[0, 1] = 7e-9
            save_density(rho, path)
        save_density(np.diag([0.5, 0, 0.5, 0]), bc)
        out = tmp_path / "psi.json"
        for argv, bad in ((["diosi", str(ab), str(bc), "--out", str(out)], ab),
                          (["fidelity", str(state)], state)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == f"cannot read {bad}: density matrix is not Hermitian within 1e-08"
            assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tomo3q", "tomo2q"])
    @pytest.mark.parametrize("case", [
        "empty-table", "counts-not-object", "ragged-bitstrings", "short-bitstring",
        "not-a-bitstring", "long-bitstring", "calib-qubit-count", "calib-singular",
        "calib-not-object", "calib-not-2x2", "calib-ragged", "calib-not-numbers", "calib-nan",
        "calib-unknown-label", "calib-bools", "calib-strings",
    ])
    def test_malformed_input_is_reported(self, command, case, tmp_path):
        scheme = tomography_scheme(3 if command == "tomo3q" else 2)
        n = scheme.nqubits
        good = [[0.99, 0.02], [0.01, 0.98]]
        counts, calib = tmp_path / "counts.json", tmp_path / "calib.json"
        counts.write_text(json.dumps({label: {"0" * n: 10} for label in scheme.labels}))
        calib.write_text(json.dumps({f"q{q}": good for q in "ABC"[:n]}))
        bad, text = {
            "empty-table": (counts, json.dumps({"Z" * n: {}})),
            "counts-not-object": (counts, "[1, 2]"),
            "ragged-bitstrings": (counts, json.dumps({"Z" * n: {"0" * n: 5, "1" * (n + 1): 3}})),
            "short-bitstring": (counts, json.dumps({"Z" * n: {"0" * n: 5, "1" * (n - 1): 3}})),
            "not-a-bitstring": (counts, json.dumps({"Z" * n: {"0" * n: 5, "2" * n: 3}})),
            # 2**44 counts would be allocated before any check: numpy's MemoryError
            "long-bitstring": (counts, json.dumps({"Z" * n: {"1" * 44: 5}})),
            "calib-qubit-count": (calib, json.dumps({f"q{q}": good for q in "ABC"[: n - 1]})),
            "calib-singular": (
                calib, json.dumps({f"q{q}": [[0.5, 0.5], [0.5, 0.5]] for q in "ABC"[:n]})
            ),
            "calib-not-object": (calib, "[[0.5, 0.5], [0.5, 0.5]]"),
            "calib-not-2x2": (calib, json.dumps({f"q{q}": np.eye(3).tolist() for q in "ABC"[:n]})),
            "calib-ragged": (calib, json.dumps({"qA": good, "qB": [[0.5, 0.5], [0.5]],
                                                "qC": good})),
            "calib-not-numbers": (calib, json.dumps({"qA": good, "qB": "x", "qC": good})),
            # JSON true/false and numeric strings, which numpy once read as numbers
            "calib-bools": (calib, json.dumps({"qA": good, "qB": [[True, False], [False, True]],
                                               "qC": good})),
            "calib-strings": (calib, json.dumps({"qA": good, "qB": [["0.99", "0.02"],
                                                                    ["0.01", "0.98"]],
                                                 "qC": good})),
            # json writes NaN, which every comparison of a range check lets through
            "calib-nan": (calib, json.dumps({"qA": [[float("nan"), 0.02], [0.01, 0.98]],
                                             **{f"q{q}": good for q in "ABC"[1:n]}})),
            "calib-unknown-label": (calib, json.dumps({f"q{q}": good for q in "0BC"[:n]})),
        }[case]
        bad.write_text(text)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:  # a string code: exit status 1
            main([command, str(counts), "--calib", str(calib), "--out", str(out)])
        assert str(exc.value.code).startswith(f"cannot read {bad}: ")
        if case in ("calib-ragged", "calib-not-numbers", "calib-bools", "calib-strings"):
            assert str(exc.value.code).endswith(
                ": calibration matrix 'qB' is not a 2x2 array of numbers [[f00, f01], [f10, f11]]"
            )
        if case == "long-bitstring":
            assert str(exc.value.code).endswith(
                f": table {'Z' * n!r} has 44-bit strings, more than the 3 qubits wtomo reads")
        if case == "calib-nan":
            assert str(exc.value.code).endswith(": calibration matrix is not column-stochastic")
        if case == "calib-unknown-label":
            found, wanted = (", ".join(f"q{q}" for q in names[:n]) for names in ("0BC", "ABC"))
            assert str(exc.value.code).endswith(
                f": calibration file has qubit labels {found}, not {wanted}")
        assert not out.exists()

    @pytest.mark.parametrize("table, message", [
        ({"000": -50, "001": 60}, "has count -50 for '000', not a non-negative integer"),
        ({"000": 50, "001": 2.7}, "has count 2.7 for '001', not a non-negative integer"),
        ({"000": 0}, "has no counts"),
        ({"000": 10**22}, f"has count {10**22} for '000', more than {2**63 - 1}"),
    ], ids=["negative", "fractional", "zero-sum", "too-large"])
    def test_counts_that_are_not_a_sample_are_reported(self, table, message, tmp_path):
        # a complete 17-table file in which one table is no sample of shots;
        # a zero-sum table once ended in a 0/0 RuntimeWarning and exit 3, a
        # count beyond int64 in an OverflowError traceback
        obj = {label: {"000": 10, "111": 5} for label in tomography_scheme(3).labels}
        obj["XZZ"] = table
        counts, out = tmp_path / "counts.json", tmp_path / "out.json"
        counts.write_text(json.dumps(obj))
        with pytest.raises(SystemExit) as exc:  # a string code: exit status 1
            main(["tomo3q", str(counts), "--out", str(out)])
        assert exc.value.code == f"cannot read {counts}: table 'XZZ' {message}"
        assert not out.exists()

    @pytest.mark.parametrize("calibrated", [False, True], ids=["raw", "calib"])
    @pytest.mark.parametrize("command, tables, message", [
        ("tomo3q", {"drop": "CXXZ_BC"}, "missing probability table for setting CXXZ_BC"),
        ("tomo3q", {"short": "ZYZ"}, "table for ZYZ has wrong length"),
        ("tomo3q", {"short": "ZYZ", "drop": "CXXZ_BC"}, "table for ZYZ has wrong length"),
        ("tomo2q", {"drop": "CYZ_AB"}, "missing probability table for setting CYZ_AB"),
        ("tomo2q", {"short": "ZZ"}, "table for ZZ has wrong length"),
    ], ids=["3q-missing", "3q-wrong-length", "3q-first-in-setting-order", "2q-missing",
            "2q-wrong-length"])
    def test_counts_file_without_the_scheme_tables(self, command, tables, message, calibrated,
                                                   tmp_path):
        # a malformed counts file, as README's exit codes call it (exit 1): the
        # settings are checked in setting order, before the calibration file is read
        scheme = tomography_scheme(3 if command == "tomo3q" else 2)
        n = scheme.nqubits
        obj = {label: {format(m, f"0{n}b"): 10 + m for m in range(2**n)}
               for label in scheme.labels if label != tables.get("drop")}
        if "short" in tables:
            obj[tables["short"]] = {"0" * (n - 1): 5, "1" * (n - 1): 5}
        counts, calib, out = tmp_path / "counts.json", tmp_path / "calib.json", tmp_path / "o.json"
        counts.write_text(json.dumps(obj))
        calib.write_text(json.dumps({f"q{q}": [[0.9, 0.1], [0.1, 0.9]] for q in "ABC"[:n]}))
        argv = [command, str(counts), "--out", str(out)] + (["--calib", str(calib)] * calibrated)
        with pytest.raises(SystemExit) as exc:  # a string code: exit status 1
            main(argv)
        assert exc.value.code == f"cannot read {counts}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tomo3q", "tomo2q"])
    def test_a_programming_error_in_reconstruction_propagates(self, command, tmp_path,
                                                               monkeypatch):
        # a RuntimeError (e.g. a built-in scheme that fails to derive) is no
        # "reconstruction failed" of the input: it ends the command
        scheme = tomography_scheme(3 if command == "tomo3q" else 2)
        n = scheme.nqubits
        counts, out = tmp_path / "counts.json", tmp_path / "out.json"
        counts.write_text(json.dumps({label: {"0" * n: 10, "1" * n: 5} for label in scheme.labels}))

        def broken(scheme, p):
            raise RuntimeError("measurement map is numerically singular")

        monkeypatch.setattr(cli, "reconstruct", broken)
        with pytest.raises(RuntimeError, match="numerically singular"):
            main([command, str(counts), "--out", str(out)])
        assert not out.exists()

    def test_calibration_file_is_read_by_qubit_label(self, tmp_path, capsys):
        # a calibration file listing qC, qA, qB mitigates as one listing qA, qB, qC
        out = tmp_path / "run"
        assert main(["pipeline", "--trials", "1", "--out", str(out)]) == EXIT_OK
        tdir = out / "trial_0"
        calib = json.loads((tdir / "calibration.json").read_text())
        reordered, rho = tmp_path / "calibration.json", tmp_path / "rho.json"
        reordered.write_text(json.dumps({q: calib[q] for q in ("qC", "qA", "qB")}))
        assert main(["tomo3q", str(tdir / "counts_3q.json"), "--calib", str(reordered),
                     "--out", str(rho)]) == EXIT_OK
        assert rho.read_bytes() == (tdir / "rho_full.json").read_bytes()

    @pytest.mark.parametrize("command, rho, message", [
        (["fidelity", "{f}"], np.eye(4) / 4,
         "cannot read {f}: density matrix is for 2 qubits, not 3"),
        (["diosi", "{f}", "{f}", "--out", "{out}"], np.eye(8) / 8,
         "cannot read {f}: density matrix is for 3 qubits, not 2"),
        (["fidelity", "{f}"], np.diag([1.0, -1, 0, 0, 0, 0, 0, 0]),
         "cannot read {f}: trace 0 is not positive"),
        (["fidelity", "{f}"], np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]),
         "{f} is not a state: <W|rho|W> = -0.1666666666666667 outside [0, 1]"),
        (["fidelity", "{f}"], outer(w_vector()) + np.diag([-0.03, 0.03, 0, 0, 0, 0, 0, 0]),
         "{f} is not a state: <W|rho|W> = 1.0100000000000007 outside [0, 1]"),
        (["diosi", "{f}", "{f}", "--out", "{out}"],
         partial_trace(outer(w_vector()), [0, 1]) + np.diag([1e-3, 0, 0], 1),
         "cannot read {f}: density matrix is not Hermitian within 1e-08"),
        (["diosi", "{f}", "{f}", "--out", "{out}"],
         partial_trace(outer(w_vector()), [0, 1]) + np.diag([math.nan, 0, 0], 1),
         "cannot read {f}: density matrix has non-finite entries"),
        (["fidelity", "{f}"], np.diag([math.nan, 1, 0, 0, 0, 0, 0, 0]),
         "cannot read {f}: density matrix has non-finite entries"),
        (["fidelity", "{f}"], np.eye(8) / 8 + np.diag([complex(0, math.inf)] + [0j] * 6, 1),
         "cannot read {f}: density matrix has non-finite entries"),
    ], ids=["fidelity-two-qubit", "diosi-three-qubit", "fidelity-zero-trace",
            "fidelity-negative-overlap", "fidelity-overlap-above-one", "diosi-not-hermitian",
            "diosi-nan", "fidelity-nan-on-diagonal", "fidelity-infinite-imaginary"])
    def test_malformed_density_file_is_reported(self, command, rho, message, tmp_path):
        f, out = tmp_path / "rho.json", tmp_path / "out.json"
        save_density(rho, f)
        with pytest.raises(SystemExit) as exc:
            main([a.format(f=f, out=out) for a in command])
        assert exc.value.code == message.format(f=f)
        assert not out.exists()

    @pytest.mark.parametrize("command, key, entry", [
        (["fidelity", "{f}"], "re", str), (["fidelity", "{f}"], "im", bool),
        (["diosi", "{f}", "{f}", "--out", "{out}"], "re", bool),
    ], ids=["fidelity-string-re", "fidelity-bool-im", "diosi-bool-re"])
    def test_density_file_of_non_numbers_is_reported(self, command, key, entry, tmp_path):
        # numpy's float conversion once read these, and fidelity printed 0.992535
        f, out = tmp_path / "rho.json", tmp_path / "out.json"
        rho = outer(w_vector())
        d = density_object(rho if command[0] == "fidelity" else partial_trace(rho, [0, 1]), f)
        d[key] = [[entry(v) for v in row] for row in d[key]]
        f.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:  # a string code: exit status 1
            main([a.format(f=f, out=out) for a in command])
        assert exc.value.code == f"cannot read {f}: {key!r} is not an array of numbers"
        assert not out.exists()

    def test_fidelity_of_a_diosi_state_file_is_reported(self, tmp_path):
        rho = outer(w_vector())
        ab, bc, psi = tmp_path / "ab.json", tmp_path / "bc.json", tmp_path / "psi.json"
        save_density(partial_trace(rho, [0, 1]), ab)
        save_density(partial_trace(rho, [1, 2]), bc)
        assert main(["diosi", str(ab), str(bc), "--eps-b", "1e-8", "--out", str(psi)]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", str(psi)])
        assert exc.value.code == (
            f"cannot read {psi}: file holds a state vector of 8 amplitudes, not a density matrix"
        )

    @pytest.mark.parametrize("command, dim", [(["fidelity", "{f}"], 8),
                                              (["diosi", "{f}", "{f}", "--out", "{out}"], 4)])
    @pytest.mark.parametrize("drop, im, message", [
        ("re", None, "density file has no 're'"),
        ("im", None, "density file has no 'im'"),
        ("nqubits", None, "density file has no 'nqubits'"),
        (None, np.zeros((2, 2)), "'re' has shape ({n}, {n}) but 'im' has shape (2, 2)"),
    ], ids=["no-re", "no-im", "no-nqubits", "im-shape"])
    def test_density_file_names_its_missing_key_or_shapes(self, command, dim, drop, im, message,
                                                          tmp_path):
        f, out = tmp_path / "rho.json", tmp_path / "out.json"
        d = density_object(np.eye(dim) / dim, f)
        if drop:
            del d[drop]
        if im is not None:
            d["im"] = im.tolist()
        f.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main([a.format(f=f, out=out) for a in command])
        assert exc.value.code == f"cannot read {f}: " + message.format(n=dim)
        assert not out.exists()

    @pytest.mark.parametrize("literal, shown", [("null", "None"), ("[3]", "[3]"), ("1e400", "inf")],
                             ids=["null", "list", "overflow"])
    def test_density_file_nqubits_is_reported(self, literal, shown, tmp_path):
        # each once ended in a TypeError or OverflowError traceback
        f = tmp_path / "rho.json"
        d = density_object(np.eye(8) / 8, f)
        f.write_text(json.dumps(d).replace('"nqubits": 3', f'"nqubits": {literal}'))
        with pytest.raises(SystemExit) as exc:  # a string code: exit status 1
            main(["fidelity", str(f)])
        assert exc.value.code == (
            f"cannot read {f}: nqubits must be an integer from 1 to 3, got {shown}")

    @pytest.mark.parametrize("failing, code", [(1, EXIT_PARTIAL), (2, EXIT_RECONSTRUCTION)])
    def test_failed_trials_set_the_exit_code(self, failing, code, tmp_path, monkeypatch, capsys):
        # trials 0 .. failing-1 fail: Diosi rejects their mitigated AB marginals
        clean = run_pipeline(ExperimentConfig(shots=500, trials=2))
        targets = [r.matrices["rho_ab"] for r in clean[:failing]]
        monkeypatch.setattr(pipeline, "_diosi_reconstruct", injecting(targets))
        out = tmp_path / "run"
        rc = main(["pipeline", "--shots", "500", "--trials", "2", "--out", str(out)])
        assert rc == code
        assert "trial 0: FAILED (ReconstructionError: injected)" in capsys.readouterr().out
        errors = json.loads((out / "run_metadata.json").read_text())["errors"]
        assert sorted(errors) == [str(t) for t in range(failing)]

    @pytest.mark.parametrize("mitigate", [True, False], ids=["mitigate", "no-mitigate"])
    def test_cli_read_backs_equal_pipeline_files_bitwise(self, mitigate, tmp_path, capsys):
        # tomo3q (with --calib when the run mitigates) and diosi on one trial's
        # files give bitwise the matrices the batched pipeline wrote for that trial
        out, back = tmp_path / "run", tmp_path / "back"
        eps_b = repr(0.05 + 2.0 / math.sqrt(20000))  # the pipeline's allowance at 20000 shots
        option = [] if mitigate else ["--no-mitigate"]
        assert main(["pipeline", "--trials", "4", "--seed", "77", *option,
                     "--out", str(out)]) == EXIT_OK
        back.mkdir()
        for t in range(4):
            tdir = out / f"trial_{t}"
            full, psi = back / f"full_{t}.json", back / f"parts_{t}.json"
            calib = ["--calib", str(tdir / "calibration.json")] if mitigate else []
            assert main(["tomo3q", str(tdir / "counts_3q.json"), *calib,
                         "--out", str(full)]) == EXIT_OK
            assert main(["diosi", str(tdir / "rho_ab.json"), str(tdir / "rho_bc.json"),
                         "--eps-b", eps_b, "--out", str(psi)]) == EXIT_OK
            assert np.array_equal(load_density(full, 3), load_density(tdir / "rho_full.json", 3))
            d = json.loads(psi.read_text())
            v = np.array(d["re"]) + 1j * np.array(d["im"])
            assert np.array_equal(np.outer(v, v.conj()), load_density(tdir / "rho_parts.json", 3))

    def test_rho_parts_carries_the_diosi_fields_of_its_trials_marginals(self, tmp_path, capsys):
        # rho_parts.json and the diosi state file are written by one helper: a
        # trial's residuals and truncated masses are those diosi writes from its
        # rho_ab.json and rho_bc.json, to the last bit (compared as JSON text)
        out, psi = tmp_path / "run", tmp_path / "psi.json"
        eps_b = repr(0.05 + 2.0 / math.sqrt(2000))  # the pipeline's allowance at 2000 shots
        assert main(["pipeline", "--trials", "6", "--shots", "2000", "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        fields = ("residual_ab", "residual_bc", "truncated_mass")
        for t in range(6):
            tdir = out / f"trial_{t}"
            assert main(["diosi", str(tdir / "rho_ab.json"), str(tdir / "rho_bc.json"),
                         "--eps-b", eps_b, "--out", str(psi)]) == EXIT_OK
            parts, state = (json.loads(p.read_text()) for p in (tdir / "rho_parts.json", psi))
            assert json.dumps([parts[k] for k in fields]) == json.dumps([state[k] for k in fields])
            assert set(parts["truncated_mass"]) == {"rho_ab", "rho_bc"}, t

    @pytest.mark.parametrize("qubit, message", [
        (5, "qubit 'qA' is not an object of p01 and p10"),
        ({"p01": "x", "p10": 0.008}, "qubit 'qA': p01 'x', p10 0.008 are not numbers"),
        ({"p01": 0.023}, "qubit 'qA' has no 'p10'"),
        ({"p10": 0.008}, "qubit 'qA' has no 'p01'"),
        ({"p01": True, "p10": 0.008}, "qubit 'qA': p01 True, p10 0.008 are not numbers"),
    ], ids=["qubit-not-object", "p01-not-a-number", "p10-missing", "p01-missing",
            "p01-boolean"])
    def test_malformed_noise_file_is_reported(self, qubit, message, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"qA": qubit, "qB": 1, "qC": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--noise", str(noise), "--out", str(tmp_path / "run")])
        assert exc.value.code == f"cannot read {noise}: {message}"
        assert not (tmp_path / "run").exists()

    def test_a_noise_file_of_table_3_gives_the_golden_run(self, tmp_path):
        # the default model read back from a noise-model file: the same run, byte for byte
        golden = Path(__file__).parent / "data" / "golden_run_seed1234_2x2000"
        noise, out = tmp_path / "noise.json", tmp_path / "run"
        noise.write_text('{"qA": {"p01": 0.023, "p10": 0.008}, "qB": {"p01": 0.004, "p10": 0.009}, '
                         '"qC": {"p01": 0.030, "p10": 0.034}}')
        assert main(["pipeline", "--noise", str(noise), "--trials", "2", "--shots", "2000",
                     "--seed", "1234", "--out", str(out)]) == EXIT_OK
        files = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
        for f in files:
            assert (out / f).read_bytes() == (golden / f).read_bytes(), f

    def test_noise_model_of_wrong_size_is_reported(self, tmp_path):
        noise = tmp_path / "noise.json"
        model = ReadoutModel.ibm_osaka().subset([0, 1])
        noise.write_text(json.dumps({f"q{name}": {"p01": q.p01, "p10": q.p10}
                                     for name, q in zip("AB", model.qubits)}))
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--noise", str(noise), "--out", str(tmp_path / "run")])
        assert exc.value.code == f"cannot read {noise}: noise model covers 2 qubits, not 3"
        assert not (tmp_path / "run").exists()


class TestOneParser:
    """main parses every argv with one parser, built on its first call."""

    @pytest.fixture(scope="class")
    def trial(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        cfg = ExperimentConfig(shots=2000, trials=1, seed=8)
        write_outputs(cfg, run_pipeline(cfg), out)
        return out / "trial_0"

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_valid_call_after_a_usage_error(self, trial, tmp_path):
        counts, calib = str(trial / "counts_3q.json"), str(trial / "calibration.json")
        rho = tmp_path / "rho.json"
        with pytest.raises(SystemExit) as exc:
            main(["tomo3q", counts, "--no-correct", "--out", str(rho), "--calib"])
        assert exc.value.code == 2
        assert main(["tomo3q", counts, "--calib", calib, "--out", str(rho)]) == EXIT_OK
        assert rho.read_bytes() == (trial / "rho_full.json").read_bytes()

    def test_options_do_not_leak_between_calls(self, trial, tmp_path):
        counts, calib = str(trial / "counts_3q.json"), str(trial / "calibration.json")
        first, other, second = (tmp_path / f"{n}.json" for n in ("first", "other", "second"))
        assert main(["tomo3q", counts, "--out", str(first)]) == EXIT_OK
        assert main(["tomo3q", counts, "--calib", calib, "--no-correct",
                     "--out", str(other)]) == EXIT_OK
        assert main(["tomo3q", counts, "--out", str(second)]) == EXIT_OK
        assert second.read_bytes() == first.read_bytes() != other.read_bytes()
