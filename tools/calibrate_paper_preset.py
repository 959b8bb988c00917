#!/usr/bin/env python3
"""Grid search that produced the `paper-2015` preset.

Scans a coarse grid of readout contrast (lambda_bright, lambda_dark) and
initialization error around a hand-estimated working point, holding every
other noise value (pulse noise, readout threshold, nuclear flip
probability, charge acceptance, polarity) at its value in the shipped
preset. Each candidate is evaluated once on the exact backend: its
forward-order modified value, and the stderr and sigma that a run of
--shots kept shots per term reports at its expected counts, scored by how
close they land to the targets (2.117, 0.015, 7.8). The shipped preset
ranks 2 of 27 at its 8000 shots per term.

Usage:
    python tools/calibrate_paper_preset.py            # exact scan + report
    python tools/calibrate_paper_preset.py --verify   # Monte Carlo seeds 1..10 of the shipped preset

The chosen parameters are frozen in src/kcbsim/presets/paper-2015.yaml.
"""

from __future__ import annotations

import argparse
import itertools
import statistics

from kcbsim.config import load_preset
from kcbsim.kcbs import modified_kcbs_value
from kcbsim.model import NoiseModel, RunConfig, exact_tables
from kcbsim.model import shot_programs, table_estimates

TARGET_VALUE = 2.117
TARGET_STDERR = 0.015
TARGET_SIGMA = 7.8

GRID = dict(
    lambda_bright=(10.0, 10.5, 11.0),
    lambda_dark=(1.35, 1.45, 1.55),
    init_error_prob=(0.015, 0.020, 0.025),
)


def expected(noise: NoiseModel, shots: int) -> dict:
    """The exact forward-order modified value, and the stderr and sigma that
    a run of `shots` kept shots per term reports at its expected counts."""
    _, terms, _, stderr = table_estimates(shot_programs(), exact_tables(noise) * shots, shots)
    value = modified_kcbs_value(terms)
    return {"value": value, "stderr": stderr, "sigma": (value - 2.0) / stderr}


def score(summary: dict) -> float:
    # value accuracy dominates; stderr and sigma act as soft penalties
    s = abs(summary["value"] - TARGET_VALUE)
    s += 0.5 * abs(summary["stderr"] - TARGET_STDERR)
    s += 0.002 * abs(summary["sigma"] - TARGET_SIGMA)
    return s


def scan(shots: int) -> None:
    preset = load_preset("paper-2015")["noise"]
    fixed = {k: v for k, v in preset.items() if k not in GRID}
    rows = []
    keys = sorted(GRID)
    for combo in itertools.product(*(GRID[k] for k in keys)):
        params = dict(zip(keys, combo))
        summary = expected(NoiseModel(**fixed, **params), shots)
        rows.append((score(summary), params, summary))
        print(f"{params}  value={summary['value']:.4f} "
              f"stderr={summary['stderr']:.4f} sigma={summary['sigma']:.2f}")
    rows.sort(key=lambda r: r[0])
    print("\n=== top candidates ===")
    for s, params, summary in rows[:5]:
        print(f"score={s:.4f} {params} -> value={summary['value']:.4f} "
              f"stderr={summary['stderr']:.4f} sigma={summary['sigma']:.2f}")
    rank = [params for _, params, _ in rows].index({k: preset[k] for k in keys})
    print(f"shipped preset: rank {rank + 1} of {len(rows)}, score={rows[rank][0]:.4f}")
    best = {**fixed, **rows[0][1]}
    print("\n=== preset noise block (best candidate) ===")
    for k in preset:
        print(f"  {k}: {best[k]}")


def verify(shots: int) -> None:
    from kcbsim.experiment import run_protocol  # the sampler; the scan never loads it

    data = load_preset("paper-2015")
    assert data["pair_order"] == "forward"  # the order the scan evaluates
    noise = NoiseModel(**data["noise"])
    rows = []
    print("seed  value    stderr   sigma")
    for seed in range(1, 11):
        res = run_protocol(RunConfig(seed=seed, shots_per_term=shots, noise=noise))
        rows.append((res.inequality_value, res.inequality_stderr, res.violation_sigma))
        print(f"{seed:4d}  {rows[-1][0]:.4f}  {rows[-1][1]:.4f}  {rows[-1][2]:.2f}")
    value, stderr, sigma = (statistics.mean(column) for column in zip(*rows))
    print(f"\nmean value  = {value:.4f}  (target {TARGET_VALUE})")
    print(f"mean stderr = {stderr:.4f}  (target {TARGET_STDERR})")
    print(f"mean sigma  = {sigma:.2f}  (target {TARGET_SIGMA})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=None,
                        help="kept shots per term (default: the preset's shots_per_term)")
    parser.add_argument("--verify", action="store_true",
                        help="check the shipped preset over Monte Carlo seeds 1..10 instead")
    args = parser.parse_args()
    if args.shots is not None and args.shots < 2:  # estimate_stats needs two kept shots
        parser.error(f"--shots must be at least 2, got {args.shots}")
    shots = load_preset("paper-2015")["shots_per_term"] if args.shots is None else args.shots
    if args.verify:
        verify(shots)
    else:
        scan(shots)


if __name__ == "__main__":
    main()
