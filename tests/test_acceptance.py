"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with pytest -s). Numeric tolerances are pinned
here and nowhere else."""

import io
import json
import math
import statistics
import time
from contextlib import redirect_stdout

import numpy as np

from kcbsim.cli import main
from kcbsim.config import build_run_config, load_preset
from kcbsim.kcbs import exact_terms, nchv_bound, nchv_bound_modified
from kcbsim.pentagram import (
    adjacency_defect,
    angles,
    build_cartesian_quintuplet,
    build_psi0,
    build_pulse_quintuplet,
    closure_defect,
    gram,
    pulse_cycle,
)
from kcbsim.errors import ClosureFailure
from kcbsim.experiment import run_protocol
from kcbsim.qutrit import overlap

SQRT5 = math.sqrt(5.0)


def _report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def test_criterion_1_exact_quantum_value():
    t0 = time.perf_counter()
    code, rec = _run_cli("exact")
    elapsed = time.perf_counter() - t0
    value = rec["kcbs_value"]
    ok = code == 0 and abs(value - SQRT5) < 1e-9 and elapsed < 1.0
    _report(1, ok, f"kcbs value {value:.12f} vs sqrt(5), {elapsed:.3f}s")


def test_criterion_2_exact_singles_and_pairs():
    terms = exact_terms(build_psi0(), build_pulse_quintuplet())
    single_dev = float(np.max(np.abs(np.asarray(terms.singles) - 1 / SQRT5)))
    pair_dev = float(np.max(np.abs(np.asarray(terms.pairs))))
    ok = single_dev < 1e-9 and pair_dev < 1e-12
    _report(2, ok, f"singles dev {single_dev:.2e} (<1e-9), pairs dev {pair_dev:.2e} (<1e-12)")


def test_criterion_3_classical_bounds():
    t0 = time.perf_counter()
    best, maximizers = nchv_bound()
    best_mod = nchv_bound_modified()
    elapsed = time.perf_counter() - t0
    ok = best == 2 and best_mod == 2 and (1, 0, 1, 0, 0) in maximizers and elapsed < 1.0
    _report(3, ok, f"plain bound {best}, modified bound {best_mod}, {elapsed:.3f}s")


def test_criterion_4_construction_validity():
    q = build_pulse_quintuplet()
    adjacency = adjacency_defect(q)
    closure = abs(abs(overlap(q.states[5], q.states[0])) - 1.0)
    _, qc = build_cartesian_quintuplet()
    gram_dev = float(np.max(np.abs(np.asarray(gram(q.states[:5])) - np.asarray(gram(qc.states[:5])))))
    ok = adjacency < 1e-10 and closure < 1e-10 and gram_dev < 1e-10
    _report(
        4,
        ok,
        f"adjacency {adjacency:.2e}, closure {closure:.2e}, gram agreement {gram_dev:.2e}",
    )


def test_criterion_5_gamma_sensitivity():
    # Closure hinges on the exact gamma, and the law is quadratic:
    # 1 - |<l6|l1>| = (5(sqrt5 - 1)/8) dg^2 + O(dg^3), with 5(sqrt5 - 1)/8
    # ~ 0.77254 per rad^2 (series expansion of the pulse recipe about
    # gamma0 = arccos(2 - sqrt5)). |<l6|l1>| <= 1 and equals 1 at gamma0,
    # so its first derivative there is zero and no correct cycle can have
    # a first-order defect. The former demand of a defect above 1e-4 at
    # 0.01 rad (the law gives 7.7e-5 there) could therefore never hold;
    # 1e-4 is first crossed at dg* = sqrt(1e-4 / coeff) ~ 0.0114 rad. The
    # cubic term shifts defect/dg^2 by ~0.05 % at 0.01 rad, well inside 1 %.
    g = angles().gamma
    coeff = 5.0 * (SQRT5 - 1.0) / 8.0
    ratios = {}
    for delta in (+0.01, -0.01, +0.001, -0.001):
        ratios[delta] = closure_defect(pulse_cycle(g + delta)) / delta**2
    law = all(abs(r / coeff - 1.0) < 0.01 for r in ratios.values())

    d_star = math.sqrt(1e-4 / coeff)
    crossing = all(
        closure_defect(pulse_cycle(g + sign * 0.99 * d_star)) < 1e-4
        < closure_defect(pulse_cycle(g + sign * 1.01 * d_star))
        for sign in (+1.0, -1.0)
    )

    rejected = []
    for delta in (+0.01, -0.01):
        try:
            build_pulse_quintuplet(gamma=g + delta)
        except ClosureFailure:
            rejected.append(delta)
    refuses = len(rejected) == 2

    ok = law and crossing and refuses
    _report(
        5,
        ok,
        "defect/dg^2 at +-0.01, +-0.001 rad: "
        + ", ".join(f"{r:.5f}" for r in ratios.values())
        + f" (5(sqrt5-1)/8 = {coeff:.5f} +- 1%); 1e-4 crossed between "
        f"0.99 and 1.01 x {d_star:.5f} rad: {crossing}; "
        f"ClosureFailure at gamma0 +-0.01: {refuses}",
    )


def test_criterion_6_monte_carlo_consistency():
    t0 = time.perf_counter()
    code, rec = _run_cli("simulate", "--preset", "ideal", "--shots", "100000", "--seed", "42")
    elapsed = time.perf_counter() - t0
    value = rec["modified_kcbs_value"]
    stderr = rec["inequality_stderr"]
    consistent = code == 0 and abs(value - SQRT5) < 5 * stderr

    errs = {}
    for shots in (10_000, 40_000):
        cfg = build_run_config(load_preset("ideal"), seed=42, shots=shots)
        errs[shots] = run_protocol(cfg).inequality_stderr
    ratio = errs[10_000] / errs[40_000]
    scaling = abs(ratio - 2.0) < 0.2 * 2.0

    ok = consistent and scaling and elapsed < 60.0
    _report(
        6,
        ok,
        f"value {value:.5f} within {abs(value - SQRT5) / stderr:.2f} stderr of sqrt(5); "
        f"stderr ratio 1e4/4e4 = {ratio:.3f} (2 +- 20%); {elapsed:.1f}s (<60s)",
    )


def test_criterion_7_paper_result_calibration():
    data = load_preset("paper-2015")
    values, stderrs, sigmas = [], [], []
    for seed in range(1, 11):
        res = run_protocol(build_run_config(data, seed=seed))
        values.append(res.inequality_value)
        stderrs.append(res.inequality_stderr)
        sigmas.append(res.violation_sigma)
    mean_value = statistics.mean(values)
    mean_sigma = statistics.mean(sigmas)
    # the value window is only ~1.3 per-run standard errors wide, so it
    # constrains the across-seed mean; stderr is stable per seed
    ok = (
        2.097 <= mean_value <= 2.137
        and all(0.012 <= s <= 0.018 for s in stderrs)
        and 6.0 <= mean_sigma <= 10.0
    )
    _report(
        7,
        ok,
        f"mean value {mean_value:.4f} in [2.097, 2.137]; "
        f"stderr range [{min(stderrs):.4f}, {max(stderrs):.4f}] in [0.012, 0.018]; "
        f"mean sigma {mean_sigma:.2f} in [6, 10] over 10 seeds",
    )


def test_criterion_8_spectrum_arithmetic():
    code, rec = _run_cli("spectrum")
    low, high = rec["f_low_mhz"], rec["f_high_mhz"]
    ok = code == 0 and abs(low - 3.2158) < 1e-3 and abs(high - 6.6842) < 1e-3
    _report(8, ok, f"transition frequencies ({low:.4f}, {high:.4f}) MHz")


def test_criterion_9_determinism():
    args = ("simulate", "--preset", "paper-2015", "--shots", "2000", "--seed", "123")
    _, rec1 = _run_cli(*args)
    _, rec2 = _run_cli(*args)
    same_counts = rec1["successes"] == rec2["successes"]
    rec1.pop("wall_clock_seconds")
    rec2.pop("wall_clock_seconds")
    ok = same_counts and rec1 == rec2
    _report(9, ok, "identical per-term counts and records across reruns")
