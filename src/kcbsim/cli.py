"""Command-line front end: exact evaluation, construction validation,
Monte Carlo runs, and transition-frequency arithmetic, all emitting a
machine-readable JSON record on stdout."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, KcbsimError
from .kcbs import (
    TERM_NAMES,
    exact_terms,
    kcbs_value,
    modified_kcbs_value,
    nchv_bound,
    nchv_bound_modified,
)
from .pentagram import (
    adjacency_defect,
    angles,
    build_cartesian_quintuplet,
    build_psi0,
    build_pulse_quintuplet,
    closure_defect,
    gram,
    slot_defect,
)
from .qutrit import ATOL, GEOMETRY_ATOL, spin_operators


def cmd_exact(args) -> dict:
    q = build_pulse_quintuplet()
    psi0 = build_psi0()
    terms = exact_terms(psi0, q)
    bound, maximizers = nchv_bound()
    return {
        "terms": terms.as_dict(),
        "kcbs_value": kcbs_value(terms),
        "modified_kcbs_value": modified_kcbs_value(terms),
        "nchv_bound": bound,
        "nchv_bound_modified": nchv_bound_modified(),
        "nchv_maximizer_count": len(maximizers),
    }


def _validation_checks():
    """Yield (name, defect, tolerance) triples in one fixed order;
    cmd_validate stops at the first that fails."""
    ang = angles()
    yield ("gamma_identity", abs(np.cos(ang.gamma) - (2 - np.sqrt(5))), 1e-15)
    yield ("theta_identity", abs(np.cos(ang.theta) - (1 - 2 / np.sqrt(5))), 1e-15)
    yield ("phi_identity", abs(np.cos(ang.phi) - (1 - np.sqrt(5)) / 2), 1e-15)

    q = build_pulse_quintuplet()  # raises ClosureFailure on a bad angle
    yield ("pulse_adjacent_orthogonality", adjacency_defect(q), GEOMETRY_ATOL)
    yield ("pulse_closure", closure_defect(q), GEOMETRY_ATOL)

    dirs, qc = build_cartesian_quintuplet()
    yield ("cartesian_adjacent_orthogonality", adjacency_defect(qc), GEOMETRY_ATOL)
    axis = np.array([0.0, 0.0, 1.0])
    axis_overlap = max(abs(float(n @ axis) - 5**-0.25) for n in dirs)
    yield ("cartesian_axis_overlap", axis_overlap, ATOL)
    g_pulse = gram(q.states[:5])
    g_cart = gram(qc.states[:5])
    yield ("gram_equivalence", float(np.max(np.abs(g_pulse - g_cart))), GEOMETRY_ATOL)

    psi0 = build_psi0()  # raises ConventionMismatch if the two forms split
    terms = exact_terms(psi0, q)
    yield ("psi0_singles", float(np.max(np.abs(terms.singles - 5**-0.5))), GEOMETRY_ATOL)
    yield ("psi0_pairs", float(np.max(np.abs(terms.pairs))), GEOMETRY_ATOL)

    yield ("readout_slots", slot_defect(q), GEOMETRY_ATOL)

    sx, sy, sz = spin_operators()
    comm = sx @ sy - sy @ sx - 1j * sz
    yield ("spin_commutator", float(np.max(np.abs(comm))), 1e-14)
    casimir = sx @ sx + sy @ sy + sz @ sz - 2 * np.eye(3)
    yield ("spin_casimir", float(np.max(np.abs(casimir))), 1e-14)


def cmd_validate(args) -> dict:
    """Run the checks in order, stopping at the first that fails: a defect
    over its tolerance, or a construction that raises."""
    checks = []
    record = {"status": "ok", "checks": checks}
    try:
        for name, defect, tol in _validation_checks():
            checks.append({"check": name, "defect": defect, "tolerance": tol})
            if not defect < tol:
                error = f"{name}: defect {defect:.3e} exceeds {tol:.0e}"
                record.update(status="failed", failed_check=name, error=error)
                break
    except KcbsimError as exc:
        record.update(status="failed", failed_check=type(exc).__name__, error=str(exc))
    return record


def cmd_simulate(args) -> dict:
    from . import experiment
    from .config import build_run_config, load_config_file, load_preset

    data = load_config_file(args.config) if args.config else load_preset(args.preset)
    config = build_run_config(
        data, seed=args.seed, shots=args.shots, pair_order=args.pair_order
    )
    with _open_csv(args.csv) as csv_file:
        result = experiment.run_protocol(config)
        if csv_file:
            _write_csv(csv_file, result)
    eps0, eps1 = experiment.misassignment_probabilities(config.noise)
    return {
        "preset": None if args.config else args.preset,
        "config_file": args.config,
        "config": dataclasses.asdict(config),
        "seed": config.seed,
        "terms": result.terms.as_dict(),
        "stderrs": result.stderrs.as_dict(),
        "successes": result.successes,
        "shots_per_term": result.shots_per_term,
        "kept_shots": result.kept_shots,
        "discarded_shots": result.discarded_shots,
        "kcbs_value": result.kcbs_value,
        "modified_kcbs_value": result.inequality_value,
        "inequality_stderr": result.inequality_stderr,
        "violation_sigma": result.violation_sigma,
        "nchv_bound": nchv_bound()[0],
        "nchv_bound_modified": nchv_bound_modified(),
        "readout_misassignment": {"assign1_given0": eps0, "assign0_given1": eps1},
    }


@contextlib.contextmanager
def _open_csv(path: str | None):
    """The --csv file open for writing, or None without one. It is opened
    before the run, so an unwritable path fails at once; a failed write,
    flush or close gives the same ConfigError."""
    if path is None:
        yield None
        return
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"--csv {path}: cannot write ({exc.strerror})") from exc


def _write_csv(fh, result) -> None:
    import csv

    values = result.terms.as_dict()
    errors = result.stderrs.as_dict()
    writer = csv.writer(fh)
    writer.writerow(["term", "estimate", "stderr", "shots"])
    for name in TERM_NAMES:
        writer.writerow(
            [name, repr(values[name]), repr(errors[name]), result.shots_per_term]
        )


def cmd_spectrum(args) -> dict:
    from .experiment import NvParameters, nmr_frequencies

    given = {
        "quadrupole_mhz": args.Q,
        "gyromagnetic_khz_per_gauss": args.gamma_n,
        "field_gauss": args.B,
    }
    # an option left out takes its NvParameters default
    params = NvParameters(**{k: v for k, v in given.items() if v is not None})
    low, high = nmr_frequencies(params)
    return {**dataclasses.asdict(params), "f_low_mhz": low, "f_high_mhz": high}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcbsim",
        description="Spin-1 pentagram inequality: exact values, bounds, and "
        "a sequential single-shot readout Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=f"kcbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact quantum values and classical bounds")
    p_exact.set_defaults(func=cmd_exact)

    p_val = sub.add_parser("validate", help="self-consistency checks of the construction")
    p_val.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run of the full protocol")
    p_sim.add_argument("--preset", default="ideal", help="named preset (default: ideal)")
    p_sim.add_argument("--config", default=None, help="YAML config file (overrides preset)")
    p_sim.add_argument("--seed", type=int, default=None, help="unsigned 64-bit seed")
    p_sim.add_argument("--shots", type=int, default=None, help="kept shots per term")
    p_sim.add_argument(
        "--pair-order",
        choices=("forward", "reverse"),
        default=None,
        help="which member of each sequential pair is measured first",
    )
    p_sim.add_argument("--csv", default=None, help="write per-term table to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_spec = sub.add_parser("spectrum", help="nuclear transition frequencies")
    p_spec.add_argument("--Q", type=float, help="quadrupole splitting in MHz")
    p_spec.add_argument(
        "--gamma-n", dest="gamma_n", type=float, help="gyromagnetic ratio in kHz per gauss"
    )
    p_spec.add_argument("--B", type=float, help="magnetic field in gauss")
    p_spec.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    """Run one command and print its JSON record, stamped with the command
    and its wall time. Exit 0, 1 on a failed validation, 2 on an error."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        record = args.func(args)
    except KcbsimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    record.update(command=args.command, wall_clock_seconds=time.perf_counter() - t0)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 1 if record.get("status") == "failed" else 0
