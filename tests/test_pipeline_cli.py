import json
import math
from pathlib import Path

import numpy as np
import pytest

from wtomo import pipeline
from wtomo.circuits import MeasurementSetting, w_vector
from wtomo.cli import EXIT_OK, EXIT_PARTIAL, EXIT_RECONSTRUCTION, main
from wtomo.io import load_density, readout_model_to_json_dict, report_csv_text, save_density
from wtomo.linalg import outer, partial_trace
from wtomo.noise import QubitReadout, ReadoutModel
from wtomo.pipeline import ExperimentConfig, run_pipeline, run_trial
from wtomo.tomography import three_qubit_scheme, two_qubit_scheme
from wtomo.wholeparts import ReconstructionError


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.shots == 20000 and cfg.trials == 5 and cfg.seed == 1234
        assert cfg.mitigate and cfg.scheme == "both"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="everything")
        with pytest.raises(ValueError):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="2 qubits"):
            ExperimentConfig(noise=ReadoutModel.ibm_osaka().subset([0, 1]))


class TestRunTrial:
    def test_exact_noiseless_is_perfect(self):
        r = run_trial(ExperimentConfig(noise=None, exact=True, trials=1), 0)
        assert r.error is None
        for rep in r.reports.values():
            assert abs(rep.f_full - 1.0) <= 1e-8
            assert abs(rep.f_parts - 1.0) <= 1e-8

    def test_exact_noisy_unmitigated_vs_mitigated(self):
        # analytic probabilities through the confusion model: mitigation with
        # the true matrices recovers the state exactly
        r = run_trial(ExperimentConfig(exact=True, trials=1), 0)
        assert r.error is None
        assert abs(r.reports[True].f_full - 1.0) <= 1e-8
        assert r.reports[False].f_full < r.reports[True].f_full

    def test_sampled_trial_structure(self):
        cfg = ExperimentConfig(shots=2000, trials=1, seed=7)
        r = run_trial(cfg, 0)
        assert r.error is None
        assert set(r.matrices) == {"rho_full", "rho_ab", "rho_bc", "rho_parts"}
        assert len(r.counts) == 17
        assert all(c.sum() == 2000 for c in r.counts.values())
        assert len(r.calibration) == 3
        for f_hat in r.calibration:
            assert np.allclose(f_hat.sum(axis=0), 1.0)

    def test_matrices_are_physical(self):
        r = run_trial(ExperimentConfig(shots=2000, trials=1, seed=7), 0)
        for name in ("rho_full", "rho_ab", "rho_bc", "rho_parts"):
            rho = r.matrices[name]
            assert abs(np.trace(rho) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(rho).min() >= -1e-9

    def test_scheme_restriction(self):
        r = run_trial(ExperimentConfig(shots=1000, trials=1, scheme="full3q"), 0)
        assert not np.isnan(r.reports[True].f_full)
        assert np.isnan(r.reports[True].f_parts)
        r = run_trial(ExperimentConfig(shots=1000, trials=1, scheme="parts2q"), 0)
        assert np.isnan(r.reports[True].f_full)
        assert not np.isnan(r.reports[True].f_parts)

    def test_setting_unitaries_are_built_once_per_noise_model(self, monkeypatch):
        # 17 + 7 + 7 settings, however many trials; the schemes are derived first
        # so that only the pipeline's own calls are counted
        three_qubit_scheme(), two_qubit_scheme()
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
        psi_w, tables, dists = pipeline._noisy_probs(ReadoutModel.ibm_osaka())
        assert [t.shape for t in tables] == [(17, 8), (7, 4), (7, 4)]
        assert [d.shape for d in dists] == [(17, 8), (7, 4), (7, 4)]
        for a in (psi_w, *tables, *dists):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestBatching:
    """run_pipeline runs all trials as one stack; run_trial is a batch of one."""

    CFG = ExperimentConfig(shots=2000, trials=6, seed=31)

    def test_pipeline_trials_equal_single_trials_bitwise(self):
        for r in run_pipeline(self.CFG):
            one = run_trial(self.CFG, r.trial_id)
            assert r.error is None and one.error is None
            assert r.reports == one.reports
            assert r.residuals == one.residuals
            assert r.matrices.keys() == one.matrices.keys() == {
                "rho_full", "rho_ab", "rho_bc", "rho_parts"
            }
            for name in r.matrices:
                assert np.array_equal(r.matrices[name], one.matrices[name]), name
            assert r.counts.keys() == one.counts.keys()
            for label in r.counts:
                assert np.array_equal(r.counts[label], one.counts[label]), label
            assert all(np.array_equal(a, b) for a, b in zip(r.calibration, one.calibration))

    def test_exact_trials_equal_single_trials_bitwise(self):
        cfg = ExperimentConfig(exact=True, trials=3)
        batch = run_pipeline(cfg)
        for r in batch:
            one = run_trial(cfg, r.trial_id)
            assert r.reports == one.reports
            for name in r.matrices:
                assert np.array_equal(r.matrices[name], one.matrices[name]), name

    def test_a_failing_trial_fails_alone(self, monkeypatch):
        # trial 2's mitigated AB marginal is rejected; the batch falls back to
        # single trials, and the others come out as in a clean run
        clean = run_pipeline(self.CFG)
        target = clean[2].matrices["rho_ab"]
        diosi = pipeline.diosi_reconstruct

        def flaky(pair):
            if any(np.array_equal(rho, target) for rho in pair.rho_ab.reshape(-1, 4, 4)):
                raise ReconstructionError("injected")
            return diosi(pair)

        monkeypatch.setattr(pipeline, "diosi_reconstruct", flaky)
        results = run_pipeline(self.CFG)
        assert [r.error for r in results] == [None, None, "ReconstructionError: injected",
                                              None, None, None]
        assert report_csv_text(results).splitlines()[3] == "2,error,,,,"
        # the unmitigated pass of trial 2 ran before the failure and is kept
        assert results[2].reports[False] == clean[2].reports[False]
        assert True not in results[2].reports and not results[2].matrices
        assert np.array_equal(results[2].counts["ZZZ"], clean[2].counts["ZZZ"])
        for r, c in zip(results, clean):
            if r.trial_id != 2:
                assert r.reports == c.reports
                assert np.array_equal(r.matrices["rho_parts"], c.matrices["rho_parts"])

    def test_golden_report(self):
        # report.csv of seed 1234, 20 trials, 2000 shots, both schemes, mitigated,
        # as written before the pipeline was batched
        golden = Path(__file__).parent / "data" / "report_seed1234_20x2000.csv"
        cfg = ExperimentConfig(shots=2000, trials=20, seed=1234, scheme="both", mitigate=True)
        assert report_csv_text(run_pipeline(cfg)) == golden.read_text()


class TestDeterminism:
    def test_report_bytes_identical(self, tmp_path):
        cfg = ExperimentConfig(shots=3000, trials=2, seed=99)
        run_pipeline(cfg, tmp_path / "a")
        run_pipeline(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        base = ExperimentConfig(shots=3000, trials=1, seed=99)
        other = ExperimentConfig(shots=3000, trials=1, seed=100)
        ra = run_pipeline(base)
        rb = run_pipeline(other)
        assert report_csv_text(ra) != report_csv_text(rb)

    def test_stream_keys_are_distinct(self, monkeypatch):
        # every sampled circuit of every trial draws from its own stream:
        # 17 + 7 + 7 settings and 6 calibration circuits per trial
        keys = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            keys.append(tuple(seed))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        trials = 5
        run_pipeline(ExperimentConfig(shots=100, trials=trials, seed=1234))
        assert sorted(keys) == [(1234, t, s) for t in range(trials) for s in range(37)]
        states = {tuple(np.random.SeedSequence(k).generate_state(4)) for k in keys}
        assert len(states) == 37 * trials

    def test_trials_are_independent_streams(self):
        results = run_pipeline(ExperimentConfig(shots=1000, trials=2, seed=5))
        assert not np.array_equal(results[0].counts["ZZZ"], results[1].counts["ZZZ"])


class TestOutputs:
    def test_output_tree(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(ExperimentConfig(shots=1500, trials=2, seed=3), out)
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
        run_pipeline(ExperimentConfig(shots=1000, trials=1), out)
        first = (out / "report.csv").read_text().splitlines()[0]
        assert first == (
            "trial,shots,f_full_unmitigated,f_full_mitigated,"
            "f_parts_unmitigated,f_parts_mitigated"
        )

    def test_saved_marginals_consistent_with_parts(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(ExperimentConfig(shots=20000, trials=1, seed=11), out)
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

    def test_tomo3q_roundtrip(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        run_pipeline(ExperimentConfig(shots=20000, trials=1, seed=21), run_out)
        rho_file = tmp_path / "rho.json"
        rc = main([
            "tomo3q", str(run_out / "trial_0" / "counts_3q.json"),
            "--calib", str(run_out / "trial_0" / "calibration.json"),
            "--out", str(rho_file),
        ])
        assert rc == EXIT_OK
        rho = load_density(rho_file, 3)
        saved = load_density(run_out / "trial_0" / "rho_full.json", 3)
        assert np.abs(rho - saved).max() <= 1e-9

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

    @pytest.mark.parametrize("flag", ["--shots", "--trials"])
    def test_pipeline_rejects_non_positive_count(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", flag, "0", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer >= 1, got '0'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [
        ["tomo3q", "{missing}", "--out", "{out}"],
        ["tomo2q", "{missing}", "--out", "{out}"],
        ["diosi", "{missing}", "{missing}", "--out", "{out}"],
        ["fidelity", "{missing}"],
    ], ids=lambda c: c[0])
    def test_missing_input_file_is_reported(self, command, tmp_path):
        missing = tmp_path / "absent.json"
        argv = [a.format(missing=missing, out=tmp_path / "out.json") for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(f"cannot read {missing}: ")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["tomo3q", "tomo2q"])
    @pytest.mark.parametrize("case", [
        "empty-table", "counts-not-object", "ragged-bitstrings", "short-bitstring",
        "not-a-bitstring", "calib-qubit-count", "calib-singular", "calib-not-object",
    ])
    def test_malformed_input_is_reported(self, command, case, tmp_path):
        n = 3 if command == "tomo3q" else 2
        good = [[0.99, 0.02], [0.01, 0.98]]
        counts, calib = tmp_path / "counts.json", tmp_path / "calib.json"
        counts.write_text(json.dumps({"Z" * n: {"0" * n: 10}}))
        calib.write_text(json.dumps({f"q{q}": good for q in "ABC"[:n]}))
        bad, text = {
            "empty-table": (counts, json.dumps({"Z" * n: {}})),
            "counts-not-object": (counts, "[1, 2]"),
            "ragged-bitstrings": (counts, json.dumps({"Z" * n: {"0" * n: 5, "1" * (n + 1): 3}})),
            "short-bitstring": (counts, json.dumps({"Z" * n: {"0" * n: 5, "1" * (n - 1): 3}})),
            "not-a-bitstring": (counts, json.dumps({"Z" * n: {"0" * n: 5, "2" * n: 3}})),
            "calib-qubit-count": (calib, json.dumps({f"q{q}": good for q in "ABC"[: n - 1]})),
            "calib-singular": (
                calib, json.dumps({f"q{q}": [[0.5, 0.5], [0.5, 0.5]] for q in "ABC"[:n]})
            ),
            "calib-not-object": (calib, "[[0.5, 0.5], [0.5, 0.5]]"),
        }[case]
        bad.write_text(text)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([command, str(counts), "--calib", str(calib), "--out", str(out)])
        assert str(exc.value.code).startswith(f"cannot read {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, rho, message", [
        (["fidelity", "{f}"], np.eye(4) / 4, "density matrix is for 2 qubits, not 3"),
        (["diosi", "{f}", "{f}", "--out", "{out}"], np.eye(8) / 8,
         "density matrix is for 3 qubits, not 2"),
        (["fidelity", "{f}"], np.diag([1.0, -1, 0, 0, 0, 0, 0, 0]),
         "density matrix has trace 0, not positive"),
    ], ids=["fidelity-two-qubit", "diosi-three-qubit", "fidelity-zero-trace"])
    def test_malformed_density_file_is_reported(self, command, rho, message, tmp_path):
        f, out = tmp_path / "rho.json", tmp_path / "out.json"
        save_density(rho, f)
        with pytest.raises(SystemExit) as exc:
            main([a.format(f=f, out=out) for a in command])
        assert exc.value.code == f"cannot read {f}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("failing, code", [(1, EXIT_PARTIAL), (2, EXIT_RECONSTRUCTION)])
    def test_failed_trials_set_the_exit_code(self, failing, code, tmp_path, monkeypatch, capsys):
        # trials 0 .. failing-1 fail: Diosi rejects their mitigated AB marginals
        cfg = ExperimentConfig(shots=500, trials=2)
        targets = [run_trial(cfg, t).matrices["rho_ab"] for t in range(failing)]
        diosi = pipeline.diosi_reconstruct

        def flaky(pair):
            for rho in pair.rho_ab.reshape(-1, 4, 4):
                if any(np.array_equal(rho, target) for target in targets):
                    raise ReconstructionError("injected")
            return diosi(pair)

        monkeypatch.setattr(pipeline, "diosi_reconstruct", flaky)
        out = tmp_path / "run"
        rc = main(["pipeline", "--shots", "500", "--trials", "2", "--out", str(out)])
        assert rc == code
        assert "trial 0: FAILED (ReconstructionError: injected)" in capsys.readouterr().out
        errors = json.loads((out / "run_metadata.json").read_text())["errors"]
        assert sorted(errors) == [str(t) for t in range(failing)]

    def test_cli_read_backs_equal_pipeline_files_bitwise(self, tmp_path, capsys):
        # tomo3q and diosi on one trial's files give bitwise the matrices the
        # batched pipeline wrote for that trial
        out, back = tmp_path / "run", tmp_path / "back"
        eps_b = repr(0.05 + 2.0 / math.sqrt(20000))  # the pipeline's allowance at 20000 shots
        assert main(["pipeline", "--trials", "4", "--seed", "77", "--out", str(out)]) == EXIT_OK
        back.mkdir()
        for t in range(4):
            tdir = out / f"trial_{t}"
            full, psi = back / f"full_{t}.json", back / f"parts_{t}.json"
            assert main(["tomo3q", str(tdir / "counts_3q.json"),
                         "--calib", str(tdir / "calibration.json"), "--out", str(full)]) == EXIT_OK
            assert main(["diosi", str(tdir / "rho_ab.json"), str(tdir / "rho_bc.json"),
                         "--eps-b", eps_b, "--out", str(psi)]) == EXIT_OK
            assert np.array_equal(load_density(full, 3), load_density(tdir / "rho_full.json", 3))
            d = json.loads(psi.read_text())
            v = np.array(d["re"]) + 1j * np.array(d["im"])
            assert np.array_equal(np.outer(v, v.conj()), load_density(tdir / "rho_parts.json", 3))

    def test_noise_model_of_wrong_size_is_reported(self, tmp_path):
        noise = tmp_path / "noise.json"
        model = ReadoutModel.ibm_osaka().subset([0, 1])
        noise.write_text(json.dumps(readout_model_to_json_dict(model)))
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--noise", str(noise), "--out", str(tmp_path / "run")])
        assert exc.value.code == f"cannot read {noise}: noise model covers 2 qubits, not 3"
        assert not (tmp_path / "run").exists()
