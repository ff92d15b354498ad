"""The three benchmark workloads and their output checks.

A workload makes one call at a time. ``call(k)`` runs the timed work of the
k-th call; its inputs depend only on the workload seed and k, so a run is
reproducible. ``check`` inspects the outputs afterwards, untimed, and says
which operations (trials) failed. An operation fails when the program
reports an error, exits non-zero, or gives an output the check rejects.

Importing this module imports ``wtomo``; the caller puts the package's
source directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wtomo import cli
from wtomo.noise import ReadoutModel
from wtomo.pipeline import ExperimentConfig, run_pipeline

SHOTS = 20000
# The paper's claim, checked over all trials of a run: mitigated
# whole-from-parts fidelity is at least the mitigated full-tomography
# fidelity on this share of trials.
CLAIM_MIN_WIN_RATE = 0.95
ORACLE_TOL = 1e-9  # exact_full3q: mitigated f_full within this of 1
FIDELITY_PRINT_TOL = 1.5e-6  # `wtomo fidelity` and report.csv print 6 decimals

W = np.zeros(8, dtype=complex)
W[[1, 2, 4]] = 1 / np.sqrt(3)


@dataclass
class CheckResult:
    attempted: int
    failed: int
    f_full: list[float] = field(default_factory=list)  # mitigated, per good trial
    f_parts: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0  # by the pipeline's own output step


def _in_unit_interval(f: float) -> bool:
    return 0.0 <= f <= 1.0


def claim_losses(f_full, f_parts) -> int:
    """Trials that break the paper's claim, or 0 while it holds on enough of them."""
    losses = sum(p < f for f, p in zip(f_full, f_parts))
    return losses if losses > (1 - CLAIM_MIN_WIN_RATE) * len(f_full) else 0


class PipelineWorkload:
    """``run_pipeline`` with table-3 readout noise and mitigation."""

    def __init__(self, seed: int, trials: int, exact: bool, scheme: str):
        self.seed, self.trials, self.exact, self.scheme = seed, trials, exact, scheme

    def call(self, k: int):
        cfg = ExperimentConfig(
            shots=SHOTS,
            trials=self.trials,
            seed=self.seed + self.trials * k,
            noise=ReadoutModel.ibm_osaka(),
            mitigate=True,
            exact=self.exact,
            scheme=self.scheme,
        )
        return run_pipeline(cfg)

    def check(self, results) -> CheckResult:
        out = CheckResult(attempted=self.trials, failed=0)
        if len(results) != self.trials:
            out.failed = self.trials
            out.problems.append(f"{len(results)} results for {self.trials} trials")
            return out
        parts = self.scheme in ("parts2q", "both")
        for r in results:
            problem = self._trial_problem(r, parts)
            if problem:
                out.failed += 1
                out.problems.append(f"trial {r.trial_id}: {problem}")
                continue
            out.f_full.append(r.reports[True].f_full)
            if parts:
                out.f_parts.append(r.reports[True].f_parts)
        return out

    def _trial_problem(self, r, parts: bool) -> str | None:
        if r.error is not None:
            return r.error
        if set(r.reports) != {False, True}:
            return "missing mitigated or unmitigated report"
        for rep in r.reports.values():
            for f in (rep.f_full, rep.f_parts) if parts else (rep.f_full,):
                if not _in_unit_interval(f):
                    return f"fidelity {f} outside [0, 1]"
        if self.exact and abs(r.reports[True].f_full - 1.0) > ORACLE_TOL:
            return f"exact mitigated f_full {r.reports[True].f_full!r} is not 1"
        return None


class CliFilesWorkload:
    """``wtomo pipeline`` writes each trial; tomo3q, diosi and fidelity read it back."""

    EPS_B = 0.05 + 2.0 / math.sqrt(SHOTS)  # the pipeline's sampled-run allowance

    def __init__(self, seed: int, trials: int, workdir: Path):
        self.seed, self.trials, self.workdir = seed, trials, workdir

    def call(self, k: int):
        out = self.workdir / f"call_{k}"
        back = self.workdir / f"call_{k}_readback"
        back.mkdir(parents=True)
        argv = ["pipeline", "--trials", str(self.trials),
                "--seed", str(self.seed + self.trials * k), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = {"pipeline": cli.main(argv)}
        printed = []
        for t in range(self.trials):
            tdir, full, psi = out / f"trial_{t}", back / f"full_{t}.json", back / f"parts_{t}.json"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[t] = (
                    _cli(["tomo3q", str(tdir / "counts_3q.json"),
                          "--calib", str(tdir / "calibration.json"), "--out", str(full)]),
                    _cli(["diosi", str(tdir / "rho_ab.json"), str(tdir / "rho_bc.json"),
                          "--eps-b", repr(self.EPS_B), "--out", str(psi)]),
                    _cli(["fidelity", str(full)]),
                )
            printed.append(buf.getvalue())
        return out, back, codes, printed

    def check(self, outputs) -> CheckResult:
        out_dir, back, codes, printed = outputs
        res = CheckResult(attempted=self.trials, failed=0)
        try:
            if codes["pipeline"] != 0:
                res.failed = self.trials
                res.problems.append(f"pipeline exit code {codes['pipeline']}")
                return res
            res.bytes_written = sum(
                p.stat().st_size for p in out_dir.rglob("*") if p.is_file()
            )
            report = _read_report(out_dir / "report.csv")
            for t in range(self.trials):
                problem = self._trial_problem(out_dir / f"trial_{t}", back, t, codes[t],
                                              printed[t], report.get(t), res)
                if problem:
                    res.failed += 1
                    res.problems.append(f"trial {t}: {problem}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            shutil.rmtree(back, ignore_errors=True)
        return res

    @staticmethod
    def _trial_problem(tdir, back, t, codes, printed, report_row, res) -> str | None:
        if any(codes):
            return f"CLI exit codes {codes}"
        if report_row is None:
            return "no report.csv row"
        rho = _read_matrix(back / f"full_{t}.json")
        if not np.array_equal(rho, _read_matrix(tdir / "rho_full.json")):
            return "read-back rho differs from rho_full.json"
        with open(back / f"parts_{t}.json") as f:
            obj = json.load(f)
        psi = np.array(obj["re"]) + 1j * np.array(obj["im"])
        if not np.array_equal(np.outer(psi, psi.conj()), _read_matrix(tdir / "rho_parts.json")):
            return "read-back |psi><psi| differs from rho_parts.json"
        f_full = math.sqrt(max(np.real(np.vdot(W, rho @ W)), 0.0))
        f_parts = abs(np.vdot(W, psi))
        f_cli = float(printed.split()[-1])
        for f in (f_full, f_parts, f_cli):
            if not _in_unit_interval(f):
                return f"fidelity {f} outside [0, 1]"
        full_report, parts_report = report_row
        if abs(f_cli - full_report) > FIDELITY_PRINT_TOL:
            return f"`wtomo fidelity` {f_cli} differs from report.csv {full_report}"
        if abs(f_parts - parts_report) > FIDELITY_PRINT_TOL:
            return f"read-back f_parts {f_parts} differs from report.csv {parts_report}"
        res.f_full.append(f_full)
        res.f_parts.append(f_parts)
        return None


def _cli(argv: list[str]) -> int | str:
    """Exit code of one CLI call, or the exception it raised, so that only
    the trial it belongs to fails."""
    try:
        return cli.main(argv)
    except Exception as exc:
        return f"{argv[0]} raised {type(exc).__name__}: {exc}"


def _read_matrix(path: Path) -> np.ndarray:
    with open(path) as f:
        obj = json.load(f)
    return np.array(obj["re"]) + 1j * np.array(obj["im"])


def _read_report(path: Path) -> dict[int, tuple[float, float]]:
    """trial -> (f_full_mitigated, f_parts_mitigated) from report.csv."""
    rows = {}
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        try:
            rows[int(cells["trial"])] = (
                float(cells["f_full_mitigated"]), float(cells["f_parts_mitigated"])
            )
        except (KeyError, ValueError):
            continue
    return rows


# name -> (why, trials per call, factory(seed, trials, workdir))
WORKLOADS = {
    "sampled_both": (
        "the paper's experiment: sampling, calibration, mitigation, both schemes, Diosi",
        200,
        lambda seed, trials, workdir: PipelineWorkload(seed, trials, exact=False, scheme="both"),
    ),
    "exact_full3q": (
        "analytic probabilities, full scheme only: no sampling, calibration or Diosi",
        200,
        lambda seed, trials, workdir: PipelineWorkload(seed, trials, exact=True, scheme="full3q"),
    ),
    "cli_files": (
        "CLI writes every trial to JSON, then reconstructs one state per CLI call from files",
        20,
        lambda seed, trials, workdir: CliFilesWorkload(seed, trials, workdir),
    ),
}


def make(name: str, seed: int, workdir: Path, trials: int | None = None):
    _, default_trials, factory = WORKLOADS[name]
    return factory(seed, trials or default_trials, workdir)
