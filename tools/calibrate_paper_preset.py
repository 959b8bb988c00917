#!/usr/bin/env python3
"""Grid search that produced the `paper-2015` preset.

Scans a coarse grid of readout contrast (lambda_bright, lambda_dark) and
initialization error around a hand-estimated working point, holding every
other noise value (pulse noise, readout threshold, nuclear flip
probability, charge acceptance, polarity) at its value in the shipped
preset. Each candidate is scored by how close the across-seed mean of the
modified inequality value, its combined standard error, and the violation
significance land to the targets (2.117, 0.015, 7.8).

Usage:
    python tools/calibrate_paper_preset.py            # scan + report
    python tools/calibrate_paper_preset.py --verify   # 10-seed check of the shipped preset

The chosen parameters are frozen in src/kcbsim/presets/paper-2015.yaml.
"""

from __future__ import annotations

import argparse
import itertools
import statistics

from kcbsim.config import load_preset
from kcbsim.experiment import NoiseModel, RunConfig, run_protocol

TARGET_VALUE = 2.117
TARGET_STDERR = 0.015
TARGET_SIGMA = 7.8

GRID = dict(
    lambda_bright=(10.0, 10.5, 11.0),
    lambda_dark=(1.35, 1.45, 1.55),
    init_error_prob=(0.015, 0.020, 0.025),
)


def evaluate(noise: NoiseModel, shots: int, seeds) -> dict:
    """Forward-order runs of one noise model, one per seed: the across-seed
    means and the per-seed rows (seed, value, stderr, sigma)."""
    rows = []
    for seed in seeds:
        res = run_protocol(RunConfig(seed=seed, shots_per_term=shots, noise=noise))
        rows.append((seed, res.inequality_value, res.inequality_stderr, res.violation_sigma))
    _, values, stderrs, sigmas = zip(*rows)
    return {
        "value": statistics.mean(values),
        "value_spread": statistics.pstdev(values),
        "stderr": statistics.mean(stderrs),
        "sigma": statistics.mean(sigmas),
        "per_seed": rows,
    }


def score(summary: dict) -> float:
    # value accuracy dominates; stderr and sigma act as soft penalties
    s = abs(summary["value"] - TARGET_VALUE)
    s += 0.5 * abs(summary["stderr"] - TARGET_STDERR)
    s += 0.002 * abs(summary["sigma"] - TARGET_SIGMA)
    return s


def scan(shots: int, seeds) -> None:
    preset = load_preset("paper-2015")["noise"]
    fixed = {k: v for k, v in preset.items() if k not in GRID}
    rows = []
    keys = sorted(GRID)
    for combo in itertools.product(*(GRID[k] for k in keys)):
        params = dict(zip(keys, combo))
        noise = NoiseModel(**fixed, **params)
        summary = evaluate(noise, shots, seeds)
        rows.append((score(summary), params, summary))
        print(
            f"{params}  value={summary['value']:.4f} "
            f"stderr={summary['stderr']:.4f} sigma={summary['sigma']:.2f}",
            flush=True,
        )
    rows.sort(key=lambda r: r[0])
    print("\n=== top candidates ===")
    for s, params, summary in rows[:5]:
        print(f"score={s:.4f} {params} -> value={summary['value']:.4f} "
              f"stderr={summary['stderr']:.4f} sigma={summary['sigma']:.2f}")
    best = {**fixed, **rows[0][1]}
    print("\n=== preset noise block (best candidate) ===")
    for k in preset:
        print(f"  {k}: {best[k]}")


def verify(shots: int) -> None:
    data = load_preset("paper-2015")
    assert data["pair_order"] == "forward"  # the order evaluate runs
    summary = evaluate(NoiseModel(**data["noise"]), shots, range(1, 11))
    print("seed  value    stderr   sigma")
    for seed, value, stderr, sigma in summary["per_seed"]:
        print(f"{seed:4d}  {value:.4f}  {stderr:.4f}  {sigma:.2f}")
    print(f"\nmean value  = {summary['value']:.4f}  (target {TARGET_VALUE})")
    print(f"mean stderr = {summary['stderr']:.4f}  (target {TARGET_STDERR})")
    print(f"mean sigma  = {summary['sigma']:.2f}  (target {TARGET_SIGMA})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=None,
                        help="kept shots per term (default: the preset's shots_per_term)")
    parser.add_argument("--seeds", type=int, default=6, help="seeds per candidate in the scan")
    parser.add_argument("--verify", action="store_true",
                        help="run the shipped preset across seeds 1..10 instead of scanning")
    args = parser.parse_args()
    shots = load_preset("paper-2015")["shots_per_term"] if args.shots is None else args.shots
    if args.verify:
        verify(shots)
    else:
        scan(shots, range(1, args.seeds + 1))


if __name__ == "__main__":
    main()
