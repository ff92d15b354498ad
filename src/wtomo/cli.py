"""Command-line interface.

Subcommands:
  pipeline   run the full simulated experiment and write report + matrices
  fixtures   regression checks against the published reference matrices
  tomo3q     reconstruct a three-qubit state from a counts file
  tomo2q     reconstruct a two-qubit state from a counts file
  diosi      whole-from-parts reconstruction from two density-matrix files
  fidelity   square-root fidelity of a density-matrix file against the W state

Exit codes: 0 success, 1 unreadable or malformed input file (for fidelity
also a matrix that is not a state) or an output that cannot be written, 2
invalid arguments or fixture tolerance failure, 3 reconstruction error (for
pipeline: every trial failed), 4 pipeline trials failed in part.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fixtures, io
from .metrics import fidelity_pure
from .mitigation import mitigate, mitigation_matrix, spectral_correct
from .noise import ReadoutModel, counts_to_probs
from .pipeline import RUN_SCHEMES, ExperimentConfig, run_pipeline
from .tomography import reconstruct, tomography_scheme
from .wholeparts import EPS_B, MarginalPair, ReconstructionError, diosi_reconstruct

EXIT_OK = 0
EXIT_FIXTURE_MISMATCH = 2
EXIT_RECONSTRUCTION = 3
EXIT_PARTIAL = 4


def _read(load, path, *args):
    """load(path, *args); a missing or malformed file ends the command with a message."""
    try:
        return load(path, *args)
    except (OSError, ValueError, KeyError) as exc:
        sys.exit(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


def _write(save, obj, path) -> None:
    """save(obj, path); a failed write ends the command with a message."""
    try:
        save(obj, path)
    except OSError as exc:
        sys.exit(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _parse_noise(spec: str) -> ReadoutModel | None:
    if spec == "none":
        return None
    if spec == "table3":
        return ReadoutModel.ibm_osaka()
    return _read(io.load_readout_model, spec, 3)


def _cmd_pipeline(args) -> int:
    noise = _parse_noise(args.noise)
    try:  # the config checks the settings; a bad one is an argument error
        cfg = ExperimentConfig(
            shots=args.shots,
            trials=args.trials,
            seed=args.seed,
            noise=noise,
            mitigate=args.mitigate,
            exact=args.exact,
            scheme=args.scheme,
        )
    except ValueError as exc:
        args.usage_error(str(exc))
    _write(lambda _, out: out.mkdir(parents=True, exist_ok=True), None, args.out)
    results = run_pipeline(cfg)
    _write(functools.partial(io.write_outputs, cfg), results, args.out)
    failed = [r for r in results if r.error]
    for r in results:
        if r.error:
            print(f"trial {r.trial_id}: FAILED ({r.error})")
        else:
            u, m = r.reports[False], r.reports[True]
            print(
                f"trial {r.trial_id}: f_full {u.f_full:.4f}/{m.f_full:.4f} "
                f"f_parts {u.f_parts:.4f}/{m.f_parts:.4f} (unmitigated/mitigated)"
            )
    print(f"outputs written to {args.out}")
    if len(failed) == len(results):
        return EXIT_RECONSTRUCTION
    return EXIT_PARTIAL if failed else EXIT_OK


def _cmd_fixtures(args) -> int:
    ok = True

    def check(name, value, bound):
        nonlocal ok
        good = value <= bound
        ok &= good
        print(f"[{'PASS' if good else 'FAIL'}] {name}: {value:.4f} (tolerance {bound})")

    pair = fixtures.experimental_marginals()
    try:
        result = diosi_reconstruct(pair)
    except ReconstructionError as exc:
        print(f"reconstruction failed: {exc}")
        return EXIT_RECONSTRUCTION
    check(
        "whole-from-parts vs published matrix (entrywise)",
        float(np.abs(result.rho - fixtures.REF_RHO_PARTS).max()),
        fixtures.ENTRYWISE_TOL,
    )
    f_parts = fidelity_pure(result.rho)
    check(
        f"fidelity vs W (expected {fixtures.FIDELITY_PARTS_EXPECTED} "
        f"± {fixtures.FIDELITY_PARTS_TOL})",
        abs(f_parts - fixtures.FIDELITY_PARTS_EXPECTED),
        fixtures.FIDELITY_PARTS_TOL,
    )
    print(f"  fidelity(W, whole-from-parts) = {f_parts:.4f}")
    print(f"  residuals: ab {result.residual_ab:.4f}, bc {result.residual_bc:.4f}")

    # informational: the published full-tomography matrix is noisy as printed
    f_full = fidelity_pure(fixtures.REF_RHO_FULL)
    print(f"  fidelity(W, full-tomography reference) = {f_full:.4f}")
    return EXIT_OK if ok else EXIT_FIXTURE_MISMATCH


def _cmd_tomo(args, nqubits: int) -> int:
    p = counts_to_probs(_read(io.load_counts_file, args.counts, nqubits))
    if args.calib:
        p = mitigate(_read(lambda path: mitigation_matrix(io.load_calibration(path, nqubits)),
                           args.calib), p)
    try:
        rho = reconstruct(tomography_scheme(nqubits), p)
        if args.correct:
            rho = spectral_correct(rho)
    except ValueError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    _write(io.save_density, rho, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_diosi(args) -> int:
    rhos = []
    for path in (args.rho_ab, args.rho_bc):
        rho, unit = _read(io._read_density, path, 2)  # its trace is positive
        if unit is not rho:
            print(f"{path} has trace {np.trace(rho).real:.12g}; renormalizing to 1",
                  file=sys.stderr)
        rhos.append(unit)
    try:  # the pair checks eps_b; a bad one is an argument error
        pair = MarginalPair(*rhos, args.eps_b)
    except ValueError as exc:
        args.usage_error(str(exc))
    try:
        result = diosi_reconstruct(pair)
    except ReconstructionError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    _write(io.save_reconstruction, result, args.out)
    print(
        f"wrote {args.out} (residuals ab {result.residual_ab:.4f}, "
        f"bc {result.residual_bc:.4f})"
    )
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    rho = _read(io.load_density, args.state, 3)
    try:
        f = fidelity_pure(rho)
    except ValueError as exc:  # <W|rho|W> outside [0, 1]
        sys.exit(f"{args.state} is not a state: {exc}")
    print(f"{f:.6f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args returns
    a fresh Namespace per call and the parser holds only immutable defaults."""
    parser = argparse.ArgumentParser(
        prog="wtomo", description="Simulated W-state tomography pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run the simulated experiment")
    p.add_argument("--shots", type=int, default=ExperimentConfig.shots)
    p.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--noise", default="table3", help='noise file, "table3" or "none"')
    p.add_argument("--mitigate", action=argparse.BooleanOptionalAction,
                   default=ExperimentConfig.mitigate)
    p.add_argument("--exact", action="store_true", default=ExperimentConfig.exact,
                   help="analytic probabilities, no sampling")
    p.add_argument("--scheme", choices=RUN_SCHEMES, default=ExperimentConfig.scheme)
    p.add_argument("--out", type=Path, default=Path("wtomo_out"))
    p.set_defaults(func=_cmd_pipeline, usage_error=p.error)

    p = sub.add_parser("fixtures", help="regression checks against published matrices")
    p.set_defaults(func=_cmd_fixtures)

    for name, n in (("tomo3q", 3), ("tomo2q", 2)):
        p = sub.add_parser(name, help=f"{n}-qubit reconstruction from a counts file")
        p.add_argument("counts", help="counts JSON file")
        p.add_argument("--calib", help="calibration JSON file for mitigation")
        p.add_argument("--correct", action=argparse.BooleanOptionalAction, default=True,
                       help="apply spectral positivity correction")
        p.add_argument("--out", type=Path, required=True)
        p.set_defaults(func=lambda a, n=n: _cmd_tomo(a, n))

    p = sub.add_parser("diosi", help="whole-from-parts reconstruction")
    p.add_argument("rho_ab", help="density-matrix JSON for qubits AB")
    p.add_argument("rho_bc", help="density-matrix JSON for qubits BC")
    p.add_argument("--eps-b", type=float, default=EPS_B)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_diosi, usage_error=p.error)

    p = sub.add_parser("fidelity", help="fidelity of a state file vs the W state")
    p.add_argument("state", help="density-matrix JSON")
    p.set_defaults(func=_cmd_fidelity)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
