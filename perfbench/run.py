#!/usr/bin/env python3
"""wtomo benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sampled_both --seed 1234 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
is a separate run that wraps the package's functions (see tracer.py) and
reports per-layer metrics per trial, plus the tracer's overhead. Both runs
check the program's outputs. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
check passed, 1 when one failed, and 2 when the program cannot be imported
from ``src/``. Everything runs in one process on one thread; set-up time is
measured in fresh interpreters. See METRICS.md for what each metric means.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1234
HOLDOUT_SEED = 97531  # not used while the benchmark was written
RUN_SECONDS = 55  # the run length BENCHMARK.json gates and baseline.json records
SETUP_RUNS = 11  # spread evenly over the timed window of a --trace 0 run
WORKLOAD_NAMES = ("sampled_both", "exact_full3q", "cli_files")

# Functions traced in the --trace 1 run, as <module>.<function>.
TRACED = (
    "circuits.prepare_w",
    "circuits.MeasurementSetting.unitary",
    "noise.exact_probs",
    "noise.ReadoutModel.confusion_matrix",
    "noise.apply_readout_noise",
    "noise.sample_shots",
    "noise.simulate_calibration",
    "noise.load_counts_file",
    "mitigation.mitigate_probs",
    "mitigation.spectral_correct",
    "mitigation.load_calibration",
    "tomography.reconstruct_3q",
    "tomography.reconstruct_2q",
    "tomography.three_qubit_scheme",
    "tomography.load_density",
    "tomography.save_density",
    "wholeparts.diosi_reconstruct",
    "metrics.fidelity_pure",
    "linalg.eig_hermitian",
    "linalg.partial_trace",
    "pipeline.run_trial",
    "pipeline.write_outputs",
)
KRON = "linalg.kron"
CLI_MAIN = "cli.main"  # traced as one span per subcommand: cli.<subcommand>
CLI_SUBCOMMANDS = ("pipeline", "tomo3q", "diosi", "fidelity")

# (name, unit, better) of every metric; the first list is printed with
# --trace 0, the second with --trace 1.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("success_rate", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("f_full_mean", "fidelity", "higher"),
    ("f_parts_mean", "fidelity", "higher"),
    ("parts_win_rate", "ratio", "higher"),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    out = []
    for fn in TRACED + tuple(f"cli.{s}" for s in CLI_SUBCOMMANDS):
        out += [(f"{fn}.calls", "calls/trial", "lower"),
                (f"{fn}.ms", "ms/trial", "lower"),
                (f"{fn}.self_ms", "ms/trial", "lower")]
    return tuple(out) + (
        (f"{KRON}.calls", "calls/trial", "lower"),
        (f"{KRON}.ms", "ms/trial", "lower"),
        ("tomography.three_qubit_scheme.first_ms", "ms", "lower"),
        ("wholeparts.diosi_reconstruct.failures", "count/trial", "lower"),
        ("pipeline.write_outputs.bytes", "B/trial", "lower"),
        ("trace.traced_trials_per_s", "1/s", "higher"),
        ("trace.untraced_trials_per_s", "1/s", "higher"),
    )


PER_LAYER = _per_layer()


def no_program(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import wtomo from this checkout's src/ and the workloads; exit 2 if absent."""
    if not (SRC / "wtomo" / "__init__.py").is_file():
        no_program(f"no wtomo package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import wtomo
        import workloads
    except ImportError as exc:
        no_program(f"cannot import wtomo: {exc}")
    if Path(wtomo.__file__).resolve().parent != (SRC / "wtomo").resolve():
        no_program(f"imported wtomo from {wtomo.__file__}, not {SRC}")
    return workloads


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.seed == HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


SETUP_CHILD = """
import sys, time
from pathlib import Path
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
w = workloads.make({name!r}, {seed!r}, Path({workdir!r}), trials=1)
outputs = w.call(0)
elapsed = time.perf_counter() - t0
print(elapsed, w.check(outputs).failed)
"""


def measure_setup(name: str, seed: int, child_dir: Path, tally) -> list[float]:
    """Time import through the first one-trial call in a fresh interpreter.

    The set-up run is one attempted trial in the tally. Returns [seconds],
    or [] when the run failed.
    """
    child_dir.mkdir()
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name,
                              seed=seed, workdir=str(child_dir))
    tally.attempted += 1
    try:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        tally.failed += 1
        tally.problems.append("set-up run timed out")
        return []
    fields = proc.stdout.split()[-2:] if proc.returncode == 0 else []
    if len(fields) != 2:
        tally.failed += 1
        tally.problems.append(f"set-up run crashed: {proc.stderr.strip()[-500:]}")
        return []
    if fields[1] != "0":
        tally.failed += 1
        tally.problems.append("set-up run: its trial failed the check")
    return [float(fields[0])]


class Tally:
    """Operations attempted and failed, and quality data, over all calls."""

    def __init__(self):
        self.attempted = self.failed = self.bytes_written = 0
        self.f_full: list[float] = []
        self.f_parts: list[float] = []
        self.problems: list[str] = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.bytes_written += res.bytes_written
        self.f_full += res.f_full
        self.f_parts += res.f_parts
        self.problems += res.problems

    def check_claim(self, workloads):
        """Fail the trials that break the paper's claim, if it fails over the run."""
        losses = workloads.claim_losses(self.f_full, self.f_parts)
        if losses:
            self.failed += losses
            self.problems.append(f"parts < full on {losses} of {len(self.f_parts)} "
                                 "trials, more than the claim allows")


def run_call(workloads, w, k: int, tally: Tally) -> tuple[float, int]:
    """One timed call, then its untimed check: (wall seconds, good trials)."""
    t0 = time.perf_counter()
    try:
        outputs = w.call(k)
        dt = time.perf_counter() - t0
        res = w.check(outputs)
    except Exception:  # the program crashed: every trial of the call failed
        dt = time.perf_counter() - t0
        res = workloads.CheckResult(attempted=w.trials, failed=w.trials,
                                    problems=[traceback.format_exc(limit=4)])
    tally.add(res)
    return dt, res.attempted - res.failed


def timed_calls(workloads, w, first_k: int, seconds: float, tally: Tally,
                side_runs: int = 0, side=None):
    """Calls until `seconds` have passed (at least three): [(dt, good trials)].

    `side(i)` runs `side_runs` times between calls, at evenly spaced points of
    the window, and its time counts towards the window.
    """
    calls, done = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if done < side_runs and elapsed >= done * seconds / side_runs:
            side(done)
            done += 1
        elif elapsed < seconds or len(calls) < 3:
            calls.append(run_call(workloads, w, first_k + len(calls), tally))
        else:
            return calls, first_k + len(calls)


def warm_up(workloads, args, workdir: Path, tally: Tally):
    """One untimed one-trial call: lazy set-up such as scheme derivation."""
    run_call(workloads, workloads.make(args.workload, args.seed, workdir, trials=1), 0, tally)


def median_rate(calls) -> float:
    return statistics.median(good / dt for dt, good in calls)


def end_to_end(workloads, args, workdir: Path) -> tuple[dict, dict, Tally]:
    tally = Tally()
    warm_up(workloads, args, workdir, tally)
    w = workloads.make(args.workload, args.seed, workdir)
    setup = []

    def set_up(i: int):
        setup.extend(measure_setup(args.workload, args.seed, workdir / f"setup_{i}", tally))

    calls, _ = timed_calls(workloads, w, 1, args.seconds, tally, SETUP_RUNS, set_up)
    tally.check_claim(workloads)
    dts_ms = [dt * 1000 for dt, _ in calls]
    wins = sum(p >= f for f, p in zip(tally.f_full, tally.f_parts))
    metrics = {
        "setup_s": statistics.median(setup) if setup else None,
        "trials_per_s": median_rate(calls),
        "success_rate": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "f_full_mean": statistics.fmean(tally.f_full) if tally.f_full else None,
        "f_parts_mean": statistics.fmean(tally.f_parts) if tally.f_parts else None,
        "parts_win_rate": wins / len(tally.f_parts) if tally.f_parts else None,
    }
    info = {
        "set-up runs": len(setup),
        "timed calls": len(calls),
        "trials per call": w.trials,
        "call_ms_p50": f"{statistics.median(dts_ms)} ms",
        "call_ms_p90": f"{statistics.quantiles(dts_ms, n=10, method='inclusive')[-1]} ms",
        "fail_rate": f"{tally.failed / tally.attempted} ratio",
    }
    return metrics, info, tally


def per_layer(workloads, args, workdir: Path) -> tuple[dict, dict, Tally]:
    from tracer import Tracer

    tally = Tally()
    tracer = Tracer(TRACED + (KRON,), cli_target=CLI_MAIN)
    tracer.install()
    try:
        warm_up(workloads, args, workdir, tally)
        tracer.reset()  # keeps the first-call durations of the warm-up
        w = workloads.make(args.workload, args.seed, workdir)
        bytes_before, attempted_before = tally.bytes_written, tally.attempted
        traced, next_k = timed_calls(workloads, w, 1, args.seconds / 2, tally)
        trials = tally.attempted - attempted_before
        bytes_written = tally.bytes_written - bytes_before
    finally:
        tracer.uninstall()
    untraced, _ = timed_calls(workloads, w, next_k, args.seconds / 2, tally)
    tally.check_claim(workloads)

    metrics = {}
    for name in TRACED + tuple(f"cli.{s}" for s in CLI_SUBCOMMANDS) + (KRON,):
        s = tracer.stats.get(name)
        metrics[f"{name}.calls"] = s.calls / trials if s else 0.0
        metrics[f"{name}.ms"] = s.ns / 1e6 / trials if s else 0.0
        metrics[f"{name}.self_ms"] = s.self_ns / 1e6 / trials if s else 0.0
    del metrics[f"{KRON}.self_ms"]
    first = tracer.stats["tomography.three_qubit_scheme"].first_ns
    metrics["tomography.three_qubit_scheme.first_ms"] = (first or 0) / 1e6
    metrics["wholeparts.diosi_reconstruct.failures"] = (
        tracer.stats["wholeparts.diosi_reconstruct"].failures / trials
    )
    metrics["pipeline.write_outputs.bytes"] = bytes_written / trials
    metrics["trace.traced_trials_per_s"] = median_rate(traced)
    metrics["trace.untraced_trials_per_s"] = median_rate(untraced)
    info = {
        "traced calls": len(traced),
        "untraced calls": len(untraced),
        "traced trials": trials,
        "tracer slowdown": metrics["trace.untraced_trials_per_s"]
        / (metrics["trace.traced_trials_per_s"] or float("nan")),
        "missing targets": tracer.missing,
    }
    return metrics, info, tally


def run_one(args) -> int:
    workloads = import_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info, tally = measure(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    # A metric the workload does not exercise (f_parts on exact_full3q) is
    # printed as n/a and left out of the result.
    units = {n: u for n, u, _ in (PER_LAYER if args.trace else END_TO_END)}
    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload][0]}")
    for name, unit in units.items():
        value = "n/a" if metrics[name] is None else metrics[name]
        print(f"  {name:48s} {value!s:>14.14} {unit}")
    units = {n: u for n, u in units.items() if metrics[n] is not None}
    for key, value in info.items():
        print(f"  [{key}] {value}")
    for problem in tally.problems[:20]:
        print(f"  FAILED CHECK: {problem}", file=sys.stderr)
    print("env: " + json.dumps(environment(args), sort_keys=True))
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if proc.returncode == 2 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
