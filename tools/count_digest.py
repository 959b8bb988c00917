#!/usr/bin/env python3
"""One SHA-256 over the counts of a fixed set of Monte Carlo runs.

A change to the sampler that claims to keep counts bit for bit prints the
same digest before and after. The run set:

- the gate models ideal, paper-2015, STRESS and STRESS_DARK (as in
  tests/test_experiment.py) and the std-0 twins of the three with angle
  noise, in both pair orders, at seeds 1, 7 and 21 and at 300 and 8000
  shots per term;
- ideal at 100 000 shots per term;
- RANDOM_MODELS random noise models and run settings drawn from
  default_rng(RANDOM_SEED): channels off, at 2^-53, at 1e-17, at random
  rates and at 1, both polarities, 2 to 20 000 shots.

Each run adds its (6, 2, 2) count tables, its discards, and its term
values, standard errors and inequality figures as float hex. Every seed is
fixed here, none comes from hash(), so the digest does not depend on
PYTHONHASHSEED.

Usage:
    python tools/count_digest.py    # prints "<sha256>  <runs> runs"
"""

from __future__ import annotations

import hashlib

import numpy as np

from kcbsim.config import build_run_config, load_preset
from kcbsim.experiment import run_protocol

STRESS = dict(pulse_angle_error_std=0.2, init_error_prob=0.3, nuclear_flip_prob=0.5,
              charge_good_prob=0.3, bright_state_is_one=False, lambda_bright=10.5,
              lambda_dark=1.55, readout_threshold=4)
STRESS_DARK = dict(STRESS, lambda_dark=0.3)
SEEDS = (1, 7, 21)
SHOTS = (300, 8000)
RANDOM_SEED = 2016
RANDOM_MODELS = 150


def gate_models() -> list[dict]:
    """The four gate models, then the std-0 twins of those with angle noise."""
    models = [load_preset("ideal")["noise"], load_preset("paper-2015")["noise"], STRESS, STRESS_DARK]
    return models + [dict(m, pulse_angle_error_std=0.0) for m in models if m["pulse_angle_error_std"]]


def random_runs(n: int):
    """n (noise, seed, shots, pair_order) drawn from default_rng(RANDOM_SEED)."""
    rng = np.random.default_rng(RANDOM_SEED)

    def rate():
        return float(rng.choice([0.0, 2.0**-53, 1e-17, rng.random(), 1.0]))

    for _ in range(n):
        noise = dict(
            pulse_angle_error_std=float(rng.choice([0.0, rng.random()])),
            init_error_prob=rate(),
            nuclear_flip_prob=rate(),
            lambda_bright=float(rng.uniform(0.0, 30.0)),
            lambda_dark=float(rng.uniform(0.0, 30.0)),
            readout_threshold=int(rng.integers(0, 25)),
            charge_good_prob=float(rng.uniform(0.05, 1.0)),
            bright_state_is_one=bool(rng.integers(2)),
        )
        shots = int(np.exp(rng.uniform(np.log(2), np.log(20_000))))
        yield noise, int(rng.integers(2**32)), shots, str(rng.choice(["forward", "reverse"]))


def runs():
    """Every (noise, seed, shots, pair_order) of the run set, in order."""
    for noise in gate_models():
        for pair_order in ("forward", "reverse"):
            for seed in SEEDS:
                for shots in SHOTS:
                    yield noise, seed, shots, pair_order
    yield load_preset("ideal")["noise"], 1, 100_000, "forward"
    yield from random_runs(RANDOM_MODELS)


def digest() -> tuple[str, int]:
    """(SHA-256 hex digest, number of runs) of the run set."""
    h, count = hashlib.sha256(), 0
    for noise, seed, shots, pair_order in runs():
        res = run_protocol(build_run_config({"noise": noise}, seed=seed, shots=shots, pair_order=pair_order))
        h.update(np.ascontiguousarray(res.tables, dtype="<i8").tobytes())
        figures = [*res.terms.as_dict().values(), *res.stderrs.as_dict().values(), res.kcbs_value,
                   res.inequality_value, res.inequality_stderr, res.violation_sigma]
        h.update(f"{res.discarded_shots} {' '.join(float(x).hex() for x in figures)}\n".encode())
        count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    value, count = digest()
    print(f"{value}  {count} runs")
