import contextlib
import dataclasses
import functools
import itertools
import math
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from numpy.polynomial.hermite_e import hermegauss
from scipy.stats import chi2, nbinom, poisson

from kcbsim import experiment
from kcbsim.config import build_run_config, load_preset
from kcbsim.errors import ConfigError, InsufficientData
from kcbsim.kcbs import TERM_NAMES, TermSet, exact_terms
from kcbsim.experiment import DRAW_BYTES, group_rng, normal_uniforms
from kcbsim.experiment import run_protocol, run_tables
from kcbsim.experiment import _born_rows, _cos_sin, _noisy_apply_rows, _program_steps, _steps
from kcbsim.model import (
    LAMBDA_MAX,
    MAX_ATTEMPTS,
    MIN_SHOTS,
    NoiseModel,
    RunConfig,
    estimate_stats,
    exact_tables,
    misassignment_probabilities,
    recorded_terms,
    shot_programs,
    table_estimates,
)
from kcbsim.model import _pulse_channel
from kcbsim.pentagram import build_psi0, build_pulse_quintuplet, psi0_pulses, pulse_unitary, swap_pulses
from kcbsim.qutrit import GEOMETRY_ATOL, KET_PLUS, KET_ZERO, compose, dagger, overlap, rot_a, rot_b
from scalar_reference import initialize, noisy_apply, single_shot_readout

SQRT5 = math.sqrt(5.0)
#: The NoiseModel fields that lie in [0, 1].
PROBABILITIES = ("pulse_angle_error_std", "init_error_prob", "nuclear_flip_prob", "charge_good_prob")

IDEAL = NoiseModel()  # defaults are the noise-free model
PULSE_NOISE = NoiseModel(pulse_angle_error_std=0.02)
#: Every channel on: init errors, nuclear flips and misassignment.
ALL_ON = (True, True, True)
#: Workspace bytes of the widest column, 8 W + 4 depth, the forward
#: correction group's with pulse noise and every channel on: DRAW_BYTES =
#: WIDEST draws one window at a time, and anything smaller draws no window
#: of that group.
WIDEST = max(8 * layout[-1] + 4 * depth
             for o in ("forward", "reverse") for p in shot_programs(o)
             for layout, _, depth in [_program_steps(p, PULSE_NOISE.pulse_angle_error_std, ALL_ON)])


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    # run_protocol joins the thread that fills ahead before it returns or raises
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) == before


class TestNoiseModelValidation:
    def test_probability_range(self):
        with pytest.raises(ConfigError):
            NoiseModel(init_error_prob=1.5)
        with pytest.raises(ConfigError):
            NoiseModel(charge_good_prob=-0.1)

    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            NoiseModel(lambda_bright=-1.0)

    def test_threshold_integer(self):
        with pytest.raises(ConfigError):
            NoiseModel(readout_threshold=-2)

    def test_run_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(seed=1, shots_per_term=0)
        with pytest.raises(ConfigError):
            RunConfig(seed=-1, shots_per_term=10)
        with pytest.raises(ConfigError):
            RunConfig(seed=1, shots_per_term=10, pair_order="sideways")

    @pytest.mark.parametrize("noise", [{"charge_good_prob": 0.5}, None], ids=["dict", "none"])
    def test_run_config_refuses_a_noise_that_is_no_noise_model(self, noise):
        with pytest.raises(ConfigError, match="noise must be a NoiseModel"):
            RunConfig(noise=noise)

    @pytest.mark.parametrize("data, key", [({"foo": 1}, "foo"), ({"noise": {"bogus": 1}}, "bogus")])
    def test_build_run_config_rejects_unknown_keys(self, data, key):
        with pytest.raises(ConfigError, match=key):
            build_run_config(data)


class TestInitialize:
    def test_no_error_always_plus(self):
        noise = NoiseModel(init_error_prob=0.0)
        for u in np.random.default_rng(0).random(100).tolist():
            assert_allclose(initialize(noise, iter([u])), KET_PLUS)

    def test_full_error_never_plus(self):
        noise = NoiseModel(init_error_prob=1.0)
        for u in np.random.default_rng(0).random(100).tolist():
            assert initialize(noise, iter([u]))[0] == 0

    def test_error_rate_within_binomial_ci(self):
        p = 0.3
        noise = NoiseModel(init_error_prob=p)
        n = 100_000
        uniforms = np.random.default_rng(123).random(n).tolist()
        hits = sum(int(initialize(noise, iter([u]))[0].real == 1.0) for u in uniforms)
        expected = 1.0 - p
        assert abs(hits / n - expected) < 4.0 * math.sqrt(p * (1 - p) / n)

    def test_error_split_between_zero_and_minus(self):
        noise = NoiseModel(init_error_prob=1.0)
        uniforms = np.random.default_rng(7).random(20_000).tolist()
        zeros = sum(int(initialize(noise, iter([u]))[1].real == 1.0) for u in uniforms)
        assert abs(zeros / 20_000 - 0.5) < 4.0 * math.sqrt(0.25 / 20_000)


class TestChargeCheck:
    def test_never_keep(self):
        # no check can pass: RunConfig refuses the run
        data = load_preset("ideal")
        data["noise"]["charge_good_prob"] = 0.0
        with pytest.raises(ConfigError, match="charge_good_prob = 0.0 at 100 shots per term expects inf"):
            build_run_config(data, seed=1, shots=100)

    def test_never_keep_fails_before_any_attempt(self):
        # the refusal comes at construction, at once even at 1e8 shots
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="charge_good_prob = 0.0 at 100000000 shots per term expects inf"):
            RunConfig(seed=1, shots_per_term=10**8, noise=NoiseModel(charge_good_prob=0.0))
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("p", [0.3, 0.97])
    def test_attempts_end_at_the_last_kept_window(self, p, monkeypatch):
        # recount from each group's stream: its discards are one
        # negative-binomial draw, taken at shots * W, after its last window
        shots = 200
        cfg = RunConfig(seed=4, shots_per_term=shots, noise=NoiseModel(charge_good_prob=p))
        programs = shot_programs(cfg.pair_order)
        discards = []
        for group, prog in enumerate(programs):
            width = _program_steps(prog, 0.0, (False, False, False))[0][-1]  # noise off: 2
            rng = group_rng(cfg.seed, group)
            rng.bit_generator.advance(shots * width)
            discards.append(int(rng.negative_binomial(shots, p)))
        # at 7 widest windows a draw each group takes dozens of draws
        for draw in (DRAW_BYTES, 7 * WIDEST):
            monkeypatch.setattr(experiment, "DRAW_BYTES", draw)
            tables, got = run_tables(cfg, programs)
            assert (tables.sum(axis=(1, 2)) == shots).all() and got == discards, draw
        assert all(discards)


class TestAttemptBudget:
    """The one attempt limit left: a run that expects more than
    MAX_ATTEMPTS attempts a group is refused."""

    def test_max_shots_construct_when_every_check_passes(self):
        # 1e8 shots at charge_good_prob 1 expect exactly MAX_ATTEMPTS attempts
        RunConfig(seed=1, shots_per_term=10**8, noise=NoiseModel(charge_good_prob=1.0))

    def test_refuses_above_max_attempts(self):
        with pytest.raises(ConfigError, match="charge_good_prob = 1e-06 at 10000 shots"):
            RunConfig(seed=1, shots_per_term=10_000, noise=NoiseModel(charge_good_prob=1e-6))

    @pytest.mark.parametrize("shots", [2, 10_000])
    def test_smallest_accepted_charge_good_prob_runs(self, shots):
        # at MAX_ATTEMPTS expected attempts the discard draw stays far
        # inside numpy's range
        p = smallest_accepted_charge_good_prob(shots)
        assert shots / p <= MAX_ATTEMPTS < shots / np.nextafter(p, 0.0)
        res = run_protocol(RunConfig(seed=1, shots_per_term=shots, noise=NoiseModel(charge_good_prob=p)))
        assert res.kept_shots == 6 * shots
        assert res.discarded_shots > 0


def smallest_accepted_charge_good_prob(shots):
    """The smallest charge_good_prob that RunConfig accepts at `shots`."""
    def accepted(p):
        try:
            RunConfig(seed=1, shots_per_term=shots, noise=NoiseModel(charge_good_prob=p))
        except ConfigError:
            return False
        return True

    p = shots / MAX_ATTEMPTS
    while not accepted(p):
        p = np.nextafter(p, 1.0)
    while accepted(np.nextafter(p, 0.0)):
        p = np.nextafter(p, 0.0)
    return float(p)


def reader(noise):
    """single_shot_readout of the one state psi from the uniforms u, with
    the readout parameters of `noise`."""
    eps = misassignment_probabilities(noise)
    flip = noise.nuclear_flip_prob
    return lambda psi, u: single_shot_readout(tuple(map(float, np.real(psi))), iter(u), eps, flip)


read_ideal = reader(IDEAL)


def readout_windows(seed, n):
    """n lists of 3 uniforms, the most one readout reads."""
    return np.random.default_rng(seed).random((n, 3)).tolist()


class TestSingleShotReadout:
    def test_deterministic_bright_limit(self):
        for u in readout_windows(5, 200):
            bit, post = read_ideal(KET_PLUS, u)
            assert bit == 1
            assert_allclose(post, KET_PLUS)

    def test_deterministic_dark_limit(self):
        for u in readout_windows(5, 200):
            bit, post = read_ideal(KET_ZERO, u)
            assert bit == 0
            assert_allclose(post, KET_ZERO)

    def test_collapse_of_superposition(self):
        psi0 = build_psi0()
        saw = {0: 0, 1: 0}
        for u in readout_windows(11, 500):
            bit, post = read_ideal(psi0, u)
            saw[bit] += 1
            if bit == 1:
                assert_allclose(post, KET_PLUS)
            else:
                assert post == (0.0, psi0[1].real, psi0[2].real)
        assert saw[0] > 0 and saw[1] > 0

    def test_born_statistics(self):
        psi0 = build_psi0()
        n = 50_000
        ones = sum(read_ideal(psi0, u)[0] for u in readout_windows(13, n))
        p = 1 / SQRT5
        assert abs(ones / n - p) < 4.0 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("lam_b,lam_d,threshold", [(8.0, 1.2, 3), (10.5, 1.55, 4)])
    def test_misassignment_matches_poisson_tails(self, lam_b, lam_d, threshold):
        noise = NoiseModel(lambda_bright=lam_b, lambda_dark=lam_d, readout_threshold=threshold)
        read = reader(noise)
        n = 100_000
        windows = readout_windows(17, 2 * n)
        # true outcome 1 on |+1>: misassigned iff the count fell at or below threshold
        miss1 = sum(1 - read(KET_PLUS, u)[0] for u in windows[:n]) / n
        expect1 = poisson.cdf(threshold, lam_b)
        assert abs(miss1 - expect1) < 4.0 * math.sqrt(expect1 * (1 - expect1) / n) + 1e-9
        # true outcome 0 on |0>: misassigned iff the count exceeded threshold
        miss0 = sum(read(KET_ZERO, u)[0] for u in windows[n:]) / n
        expect0 = poisson.sf(threshold, lam_d)
        assert abs(miss0 - expect0) < 4.0 * math.sqrt(expect0 * (1 - expect0) / n) + 1e-9
        # the analytic helper agrees with scipy's tails
        eps0, eps1 = misassignment_probabilities(noise)
        assert eps0 == pytest.approx(expect0, abs=1e-12)
        assert eps1 == pytest.approx(expect1, abs=1e-12)

    def test_reverse_polarity_transposes_confusion(self):
        # flipping which state is bright swaps the two error probabilities
        bright = NoiseModel(lambda_bright=9.0, lambda_dark=1.0, readout_threshold=3)
        dark = NoiseModel(
            lambda_bright=9.0, lambda_dark=1.0, readout_threshold=3, bright_state_is_one=False
        )
        eps0_b, eps1_b = misassignment_probabilities(bright)
        eps0_d, eps1_d = misassignment_probabilities(dark)
        assert (eps0_d, eps1_d) == (eps1_b, eps0_b)

    def test_reverse_polarity_statistics(self):
        noise = NoiseModel(
            lambda_bright=100.0, lambda_dark=0.0, readout_threshold=10,
            bright_state_is_one=False,
        )
        read = reader(noise)
        windows = readout_windows(19, 200)
        assert all(read(KET_PLUS, u)[0] == 1 for u in windows[:100])
        assert all(read(KET_ZERO, u)[0] == 0 for u in windows[100:])

    def test_flip_matches_a_haar_random_flip(self):
        # a flip picks |0> or |-1> from its own uniform in place of a
        # uniformly random state of that subspace: after any pulse string,
        # the mean |+1> population of the picked states is the random
        # state's, within 4 standard errors of the two means combined
        n = 20_000
        read = reader(NoiseModel(nuclear_flip_prob=1.0))
        posts = np.array([read(KET_ZERO, u)[1] for u in readout_windows(37, n)])
        rng = np.random.default_rng(29)
        for _ in range(4):
            axes, angles = rng.choice(["a", "b"], 6).tolist(), rng.uniform(-7.0, 7.0, 6).tolist()
            pulses = zip(axes, angles)
            unitary = compose([rot_a(t) if axis == "a" else rot_b(t) for axis, t in pulses])
            picked = np.abs(posts @ unitary[0]) ** 2
            # Haar states of C^2: normalised pairs of complex Gaussians
            z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            haar = np.column_stack([np.zeros(n), z / np.linalg.norm(z, axis=1, keepdims=True)])
            pops = np.abs(haar @ unitary[0]) ** 2
            spread = math.sqrt((picked.var() + pops.var()) / n)
            assert abs(pops.mean() - picked.mean()) < 4.0 * spread

    def test_exact_poisson_tail_at_any_scale(self):
        lambdas = (0.0, 1e-300, 0.5, 1.55, 10.5, 100.0, 744.0, 745.0, 746.0, 900.0, 1000.0,
                   1e4, 1e5, 1e6, 1e7, 1e8, LAMBDA_MAX)
        for lam in lambdas:
            tol = 1e-12 if lam <= 1e6 else 1e-9
            for k in (0, 4, 950, 10**6, 10**12):
                for bright_is_one in (True, False):
                    noise = NoiseModel(lambda_bright=lam, lambda_dark=lam, readout_threshold=k,
                                       bright_state_is_one=bright_is_one)
                    eps0, eps1 = misassignment_probabilities(noise)
                    above, below = poisson.sf(k, lam), poisson.cdf(k, lam)
                    expected = (above, below) if bright_is_one else (below, above)
                    assert (eps0, eps1) == pytest.approx(expected, abs=tol), (lam, k)


class TestNoisyApply:
    def test_zero_noise_matches_exact_composition(self):
        pulses = psi0_pulses() + swap_pulses()
        u = np.random.default_rng(29).random(normal_uniforms(len(pulses))).tolist()
        mats = [rot_a(t) if ax == "a" else rot_b(t) for ax, t in pulses]
        expected = np.asarray(compose(mats)) @ KET_PLUS
        got = noisy_apply(pulses, IDEAL, iter(u), KET_PLUS)
        assert_allclose(got, expected, atol=1e-12)

    def test_swap_exchanges_populations(self):
        u = np.random.default_rng(31).random(normal_uniforms(3)).tolist()
        out = noisy_apply(swap_pulses(), IDEAL, iter(u), KET_PLUS)
        assert abs(out[2]) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_decreases_with_angle_noise(self):
        pulses = psi0_pulses()
        width = normal_uniforms(len(pulses))
        ideal = noisy_apply(pulses, IDEAL, iter([0.5] * width), KET_PLUS)
        means = []
        for std in (0.0, 0.01, 0.05):
            noise = NoiseModel(pulse_angle_error_std=std)
            windows = np.random.default_rng(37).random((10_000, width)).tolist()
            fids = [abs(np.vdot(ideal, noisy_apply(pulses, noise, iter(u), KET_PLUS))) ** 2 for u in windows]
            means.append(np.mean(fids))
        assert means[0] == pytest.approx(1.0, abs=1e-12)
        assert means[0] > means[1] > means[2]

    @pytest.mark.parametrize("second", [None, 0.3, -0.3])
    def test_angle_errors_are_unit_normals(self, second):
        # the executed angle of one pulse, or of two on the same axis, is
        # read back from the state; one Box-Muller pair feeds both pulses
        std, n = 0.5, 20_000
        pulses = (("a", 0.4),) if second is None else (("a", 0.4), ("a", second))
        nominal = sum(t for _, t in pulses)
        noise = NoiseModel(pulse_angle_error_std=std)
        errors = []
        for u in np.random.default_rng(41).random((n, 2)).tolist():
            a, b, _ = noisy_apply(pulses, noise, iter(u), KET_PLUS)
            executed = 2.0 * math.atan2(-b.real, a.real)
            errors.append((executed - nominal) / std)
        # a sum of angle errors t_k e_k has variance sum t_k^2 for independent unit normals
        var = sum(t * t for _, t in pulses)
        assert abs(np.mean(errors)) < 4.0 * math.sqrt(var / n)
        assert abs(np.var(errors) / var - 1.0) < 4.0 * math.sqrt(2.0 / n)


class TestCosSin:
    def test_matches_libm_trigonometry(self):
        # bound fixed beforehand: a few ulp of 1, with the nearest doubles to
        # the tangent's poles at x = (2k + 1) pi included
        pi = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")
        poles = np.array([float(k * pi) for k in (1, -1, 3, -3, 5)])
        rng = np.random.default_rng(43)
        for x in (rng.uniform(-40.0, 40.0, 10**6), rng.uniform(0.0, 2.0 * math.pi, 10**6), poles):
            cos, sin = _cos_sin(0.5 * x, np.empty_like(x), np.empty_like(x))
            assert np.isfinite(cos).all() and np.isfinite(sin).all()
            assert np.max(np.abs(cos - np.cos(x))) <= 1e-15
            assert np.max(np.abs(sin - np.sin(x))) <= 1e-15


class TestEstimateStats:
    def test_degenerate_count_keeps_nonzero_stderr(self):
        means, stderrs, _ = estimate_stats([10], 10)
        assert means[0] == 1.0
        n = 10
        p = 1 - 1 / (2 * n)
        assert stderrs[0] == pytest.approx(math.sqrt(p * (1 - p) / n))
        assert stderrs[0] > 0

    def test_half_count_stderr(self):
        n = 400
        means, stderrs, _ = estimate_stats([n // 2], n)
        assert means[0] == 0.5
        assert stderrs[0] == pytest.approx(1 / (2 * math.sqrt(n)))

    def test_quadrature_combination(self):
        n = 400
        k = [n // 2] * 12
        _, stderrs, combined = estimate_stats(k, n)
        s = 1 / (2 * math.sqrt(n))
        assert combined == pytest.approx(s * math.sqrt(12))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_stats([1], 1)


def ideal_config(seed=0, shots=2000, pair_order="forward"):
    return build_run_config(load_preset("ideal"), seed=seed, shots=shots,
                            pair_order=pair_order)


class TestRunProtocol:
    def test_deterministic_replay(self):
        a = run_protocol(ideal_config(seed=99, shots=500))
        b = run_protocol(ideal_config(seed=99, shots=500))
        assert a.successes == b.successes
        assert a.inequality_value == b.inequality_value
        assert a.inequality_stderr == b.inequality_stderr

    def test_seed_changes_counts(self):
        a = run_protocol(ideal_config(seed=1, shots=500))
        b = run_protocol(ideal_config(seed=2, shots=500))
        assert a.successes != b.successes

    def test_noiseless_estimates_near_exact(self):
        res = run_protocol(ideal_config(seed=3, shots=20_000))
        assert abs(res.inequality_value - SQRT5) < 5 * res.inequality_stderr
        # sequential pairs of orthogonal projectors never fire
        assert_allclose(res.terms.pairs, np.zeros(5))
        for i in range(5):
            assert abs(res.terms.singles[i] - 1 / SQRT5) < 5 * res.stderrs.singles[i]

    def test_noiseless_all_terms_converge_at_1e5_shots(self):
        from kcbsim.kcbs import exact_terms
        from kcbsim.pentagram import build_pulse_quintuplet

        res = run_protocol(ideal_config(seed=14, shots=100_000))
        exact = exact_terms(build_psi0(), build_pulse_quintuplet()).as_dict()
        estimates = res.terms.as_dict()
        stderrs = res.stderrs.as_dict()
        for name, target in exact.items():
            assert abs(estimates[name] - target) < 5 * stderrs[name], name

    def test_corrections_cancel_without_noise(self):
        res = run_protocol(ideal_config(seed=4, shots=5000))
        assert res.inequality_value == pytest.approx(res.kcbs_value, abs=1e-12)
        assert res.terms.correction_single == pytest.approx(
            res.terms.correction_pair, abs=1e-12
        )

    def test_reverse_pair_order_consistent(self):
        res = run_protocol(ideal_config(seed=5, shots=10_000, pair_order="reverse"))
        assert abs(res.inequality_value - SQRT5) < 5 * res.inequality_stderr
        assert_allclose(res.terms.pairs, np.zeros(5))

    def test_stderr_scales_inverse_sqrt_shots(self):
        small = run_protocol(ideal_config(seed=6, shots=2500))
        large = run_protocol(ideal_config(seed=6, shots=10_000))
        ratio = small.inequality_stderr / large.inequality_stderr
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_monotone_in_readout_misassignment(self):
        # thresholded Poisson pairs tuned to symmetric misassignment levels
        levels = {
            0.0: dict(lambda_bright=100.0, lambda_dark=0.0, readout_threshold=10),
            0.02: dict(lambda_bright=10.580384, lambda_dark=1.529526, readout_threshold=4),
            0.05: dict(lambda_bright=9.153519, lambda_dark=1.970150, readout_threshold=4),
            0.1: dict(lambda_bright=7.993590, lambda_dark=2.432591, readout_threshold=4),
        }
        for eps, params in levels.items():
            if eps == 0.0:
                continue
            eps0, eps1 = misassignment_probabilities(NoiseModel(**params))
            assert eps0 == pytest.approx(eps, abs=2e-3)
            assert eps1 == pytest.approx(eps, abs=2e-3)
        values, stderrs = [], []
        for params in levels.values():
            cfg = RunConfig(seed=8, shots_per_term=6000, noise=NoiseModel(**params))
            res = run_protocol(cfg)
            values.append(res.inequality_value)
            stderrs.append(res.inequality_stderr)
        for i in range(len(values) - 1):
            slack = 2.0 * math.hypot(stderrs[i], stderrs[i + 1])
            assert values[i + 1] <= values[i] + slack

    def test_discards_are_counted(self):
        data = load_preset("ideal")
        data["noise"]["charge_good_prob"] = 0.8
        cfg = build_run_config(data, seed=9, shots=2000)
        res = run_protocol(cfg)
        assert res.kept_shots == 6 * 2000
        assert res.discarded_shots > 0
        frac = res.discarded_shots / (res.kept_shots + res.discarded_shots)
        assert frac == pytest.approx(0.2, abs=0.02)

    def test_charge_always_good_discards_nothing(self):
        res = run_protocol(ideal_config(seed=9, shots=2000))
        assert res.discarded_shots == 0
        assert res.kept_shots == 6 * 2000

    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_discards_follow_the_negative_binomial(self, p):
        # the failed checks before 6 * shots passes are NB(6 * shots, p):
        # over 400 seeds the mean and the variance of the discards each lie
        # within five of their standard errors
        shots, runs = 20, 400
        noise = NoiseModel(charge_good_prob=p)
        discards = np.array([
            run_protocol(RunConfig(seed=seed, shots_per_term=shots, noise=noise)).discarded_shots
            for seed in range(1, runs + 1)
        ])
        mean, var, _, kurtosis = map(float, nbinom(6 * shots, p).stats(moments="mvsk"))
        assert abs(discards.mean() - mean) < 5.0 * math.sqrt(var / runs)
        assert abs(discards.var(ddof=1) - var) < 5.0 * var * math.sqrt((kurtosis + 2.0) / runs)

    def test_discard_fraction_within_binomial_ci(self):
        p = 0.8
        data = load_preset("ideal")
        data["noise"]["charge_good_prob"] = p
        res = run_protocol(build_run_config(data, seed=2, shots=20_000))
        n = res.kept_shots + res.discarded_shots
        assert abs(res.kept_shots / n - p) < 4.0 * math.sqrt(p * (1 - p) / n)

    def test_charge_block_raises(self):
        data = load_preset("ideal")
        data["noise"]["charge_good_prob"] = 0.0
        with pytest.raises(ConfigError, match="charge_good_prob = 0.0 at 50 shots"):
            build_run_config(data, seed=10, shots=50)

    def test_single_shot_insufficient(self):
        # estimate_stats needs MIN_SHOTS: RunConfig refuses the run
        with pytest.raises(ConfigError, match=rf"shots_per_term must lie in \[{MIN_SHOTS}, "):
            ideal_config(seed=11, shots=1)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        shots=st.integers(MIN_SHOTS, 30),
        noise=st.fixed_dictionaries({
            **{name: st.floats(0.0, 1.0) for name in PROBABILITIES},
            # photon counts capped to keep the Poisson tails cheap
            "lambda_bright": st.floats(0.0, 1e3),
            "lambda_dark": st.floats(0.0, 1e3),
            "readout_threshold": st.integers(0, 10**4),
            "bright_state_is_one": st.booleans(),
        }),
        pair_order=st.sampled_from(["forward", "reverse"]),
    )
    def test_every_run_config_that_constructs_runs(self, seed, shots, noise, pair_order):
        try:
            config = RunConfig(seed, shots, NoiseModel(**noise), pair_order)
        except ConfigError:
            reject()
        res = run_protocol(config)
        assert res.kept_shots == 6 * shots and math.isfinite(res.violation_sigma)

    def test_sigma_definition(self):
        res = run_protocol(ideal_config(seed=12, shots=2000))
        assert res.violation_sigma == pytest.approx(
            (res.inequality_value - 2.0) / res.inequality_stderr
        )
        assert res.inequality_stderr > 0

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_result_is_table_estimates_of_its_tables(self, pair_order):
        # the sampler ends in the one constructor both backends share
        cfg = build_run_config({"noise": STRESS}, seed=3, shots=500, pair_order=pair_order)
        res = run_protocol(cfg)
        again = table_estimates(shot_programs(pair_order), res.tables.copy(), 500, res.discarded_shots)
        for f in dataclasses.fields(res):
            got, want = getattr(res, f.name), getattr(again, f.name)
            if isinstance(got, TermSet):
                assert got.as_dict() == want.as_dict(), f.name
            elif isinstance(got, np.ndarray):
                assert got.shape == (6, 2, 2) and got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)
            else:
                assert type(got) is type(want) and got == want, f.name
        assert res.kept_shots == res.tables.sum() == 6 * 500
        assert res.discarded_shots > 0  # charge_good_prob 0.3


def assert_slots_read_their_states(programs):
    """Every readout slot checked geometrically, through neither backend:
    after the psi0_pulses() prefix, U1 the rest of the pre pulses and
    U2 = (mid pulses) U1, readout 1 reads l_k1 = U1^dag |+1> and readout 2
    reads l_k2 = U2^dag |+1>, up to phase within GEOMETRY_ATOL."""
    states = build_pulse_quintuplet().states
    prep = psi0_pulses()
    for group, prog in enumerate(programs):
        assert prog.pre_pulses[: len(prep)] == prep
        u1 = pulse_unitary(prog.pre_pulses[len(prep):])
        u2 = np.asarray(pulse_unitary(prog.mid_pulses)) @ u1
        for k, u in zip(prog.slots, (u1, u2)):
            defect = abs(1.0 - abs(overlap(states[k - 1], np.asarray(dagger(u)) @ KET_PLUS)))
            assert defect < GEOMETRY_ATOL, (group, k, defect)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_slots_read_their_cycle_states(pair_order):
    # both backends share the slots, so the exact gate cannot see them
    # wrong. Adjacent cycle states are orthogonal, so a setting's slots
    # reversed fail here, where on ideal no value test sees them (both
    # marginals are 1/sqrt(5)). At gamma_0 l6 = l1, so the closing group's
    # slots swapped pass here; test_paper_preset_modified_value fails then
    assert_slots_read_their_states(shot_programs(pair_order))


#: The exact modified value of paper-2015, per pair order.
PAPER_MODIFIED = {"forward": 2.114681, "reverse": 2.110771}


def exact_terms_of(noise, pair_order):
    """The twelve terms of exact_tables, by name."""
    programs = shot_programs(pair_order)
    return recorded_terms(programs, exact_tables(noise, programs))


class TestExactTables:
    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_noise_off_matches_the_geometric_terms(self, pair_order):
        expected = exact_terms(build_psi0(), build_pulse_quintuplet()).as_dict()
        got = exact_terms_of(IDEAL, pair_order)
        for name in TERM_NAMES:
            assert abs(got[name] - expected[name]) < 1e-12, name

    @pytest.mark.parametrize("pair_order, value", list(PAPER_MODIFIED.items()))
    def test_paper_preset_modified_value(self, pair_order, value):
        cfg = build_run_config(load_preset("paper-2015"))
        programs = shot_programs(pair_order)
        counts = exact_tables(cfg.noise, programs) * cfg.shots_per_term
        res = table_estimates(programs, counts, cfg.shots_per_term, 0)
        assert abs(res.inequality_value - value) < 1e-6
        # expected counts are floats, but the kept shots are exact
        assert type(res.kept_shots) is int and res.kept_shots == 6 * cfg.shots_per_term

    @pytest.mark.parametrize("noise", ["paper-2015", "stress", "stress-noise-free"])
    def test_programs_reversed_give_their_tables_reversed(self, noise):
        # each table is its own program's: the exact backend, too, reads
        # no other group
        noise = NoiseModel(**(GATE_MODELS[noise] if noise in GATE_MODELS else load_preset(noise)["noise"]))
        programs = shot_programs("reverse")
        assert np.array_equal(exact_tables(noise, programs[::-1]), exact_tables(noise, programs)[::-1])

    @pytest.mark.parametrize("std", [0.02, 0.5, 1.0])
    @pytest.mark.parametrize("axis", ["a", "b"])
    def test_pulse_channel_matches_gauss_hermite_average(self, axis, std):
        # the mean of R rho R^T over the executed angle t (1 + std e), by an
        # 80-node Gauss-Hermite rule for the weight exp(-e^2 / 2)
        nodes, weights = hermegauss(80)
        weights = weights / weights.sum()
        rot = rot_a if axis == "a" else rot_b
        rng = np.random.default_rng(47)
        for t in (0.3, 1.9, 3.1, -2.2):
            m = rng.normal(size=(3, 3))
            rho = m @ m.T / np.trace(m @ m.T)
            expected = sum(w * (r @ rho @ r.T) for w, e in zip(weights, nodes)
                           for r in [np.asarray(rot(t * (1.0 + std * e))).real])
            assert np.max(np.abs(_pulse_channel(rho, axis, t, std) - expected)) < 1e-12

    @pytest.mark.parametrize("t1, t2, axis", [(0.4, 0.3, "a"), (1.9, -0.7, "b"), (-2.2, -1.1, "a")])
    def test_same_axis_pulses_merge_into_one_channel(self, t1, t2, axis):
        # two pulses at relative spread std each are one pulse of angle
        # t1 + t2 at absolute spread std * hypot(t1, t2), which
        # _pulse_channel takes as a relative spread over t1 + t2
        std = 0.3
        m = np.random.default_rng(53).normal(size=(3, 3))
        rho = m @ m.T / np.trace(m @ m.T)
        two = _pulse_channel(_pulse_channel(rho, axis, t1, std), axis, t2, std)
        one = _pulse_channel(rho, axis, t1 + t2, std * math.hypot(t1, t2) / (t1 + t2))
        assert np.max(np.abs(two - one)) < 1e-15


def run_against_exact(preset, pair_order, seed):
    """(run_protocol result, exact tables) of one preset, or of STRESS,
    STRESS_DARK or STRESS_NOISE_FREE, at 8000 shots."""
    data = {"noise": GATE_MODELS[preset]} if preset in GATE_MODELS else load_preset(preset)
    cfg = build_run_config(data, seed=seed, shots=8000, pair_order=pair_order)
    return run_protocol(cfg), exact_tables(cfg.noise, shot_programs(pair_order))


monte_carlo_and_exact = functools.cache(run_against_exact)

#: Exact probabilities at or below this are zero up to rounding.
IMPOSSIBLE = 1e-15


def assert_terms_within_five_sigma(res, tables, pair_order):
    """The z-test of the exact gate: every term of the run within 5
    standard errors of its exact value, and no count where it is 0."""
    n = res.shots_per_term
    for name, p in recorded_terms(shot_programs(pair_order), tables).items():
        k = res.successes[name]
        if p <= IMPOSSIBLE:
            assert k == 0, name
        else:
            assert abs(k / n - p) < 5.0 * math.sqrt(p * (1.0 - p) / n), name


def assert_tables_pass_a_g_test(res, tables) -> int:
    """The G-test of the exact gate: every group's table of assigned
    (b1, b2) against its exact probabilities, which sees the b2 marginal of
    the groups that record b1 too; the bound is the 1 - 1e-4 quantile of
    chi^2, fixed beforehand. A count in a cell of probability 0 fails
    outright. Returns the degrees of freedom."""
    counts = res.tables
    assert (counts.sum(axis=(1, 2)) == res.shots_per_term).all()
    possible = tables > IMPOSSIBLE
    assert not counts[~possible].any()
    observed = counts[possible]
    expected = (res.shots_per_term * tables)[possible]
    seen = observed > 0
    g = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    dof = int(possible.sum()) - len(counts)
    assert g < chi2.isf(1e-4, dof), g
    return dof


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("preset", ["ideal", "paper-2015", "stress", "stress-dark", "stress-noise-free"])
class TestAgainstExactTables:
    def test_terms_within_five_sigma(self, preset, pair_order, seed):
        res, tables = monte_carlo_and_exact(preset, pair_order, seed)
        assert_terms_within_five_sigma(res, tables, pair_order)

    def test_tables_pass_a_g_test(self, preset, pair_order, seed):
        res, tables = monte_carlo_and_exact(preset, pair_order, seed)
        dof = assert_tables_pass_a_g_test(res, tables)
        assert dof == {"ideal": 11, "paper-2015": 18, "stress": 18, "stress-dark": 18, "stress-noise-free": 18}[preset]


#: A DRAW_BYTES at which the six 8000-shot groups of every gate model share
#: one draw: no column of a shared draw takes more than WIDEST bytes.
ONE_DRAW_BYTES = 6 * 8000 * WIDEST


@functools.cache
def monte_carlo_in_one_draw_and_exact(preset, pair_order, seed):
    """run_against_exact with the six groups in one draw (ONE_DRAW_BYTES)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(experiment, "DRAW_BYTES", ONE_DRAW_BYTES)
        return run_against_exact(preset, pair_order, seed)


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("preset", ["paper-2015", "stress", "stress-dark"])
class TestAgainstExactTablesInOneDraw:
    """The exact gate on the row kernel's shared-draw pass: the preset
    sizes run one group a draw, short calls share one."""

    def test_terms_within_five_sigma(self, preset, pair_order, seed):
        res, tables = monte_carlo_in_one_draw_and_exact(preset, pair_order, seed)
        assert_terms_within_five_sigma(res, tables, pair_order)

    def test_tables_pass_a_g_test(self, preset, pair_order, seed):
        res, tables = monte_carlo_in_one_draw_and_exact(preset, pair_order, seed)
        assert assert_tables_pass_a_g_test(res, tables) == 18


def first_uniforms(seed, group, n):
    """The first n uniforms of a group's stream."""
    return group_rng(seed, group).random(n)


class TestGroupRng:
    def test_reproducible(self):
        a = first_uniforms(42, 3, 5)
        b = first_uniforms(42, 3, 5)
        assert_allclose(a, b)

    def test_streams_distinct(self):
        a = first_uniforms(42, 0, 5)
        c = first_uniforms(42, 1, 5)
        d = first_uniforms(43, 0, 5)
        assert not np.allclose(a, c)
        assert not np.allclose(a, d)

    @pytest.mark.parametrize("seed, group", [(0, 0), (7, 5), (42, 3), (2**64 - 1, 2)])
    def test_streams_are_the_spawned_children_of_the_group(self, seed, group):
        # the PCG64 of the group's spawned child, advanced by 2^64
        child = np.random.SeedSequence(seed).spawn(group + 1)[group]
        assert group_rng(seed, group).bit_generator.state == np.random.PCG64(child).advance(2**64).state

    def test_order_free_derivation(self):
        # deriving stream g never depends on other streams having been
        # created or drawn from first
        later = first_uniforms(7, 2, 3)
        for g in range(6):
            first_uniforms(7, g, 100)
        again = first_uniforms(7, 2, 3)
        assert_allclose(later, again)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_attempt_window_reached_by_advance(self, pair_order):
        # kept shot j's window is uniforms [j W, (j + 1) W) of the group's
        # stream, and the discard draw of its 300 shots starts at 300 W
        for group, prog in enumerate(shot_programs(pair_order)):
            width = _program_steps(prog, PULSE_NOISE.pulse_angle_error_std, ALL_ON)[0][-1]
            rng = group_rng(5, group)
            rows, discards = rng.random((300, width)), rng.negative_binomial(300, 0.3)
            for i in (0, 1, 127, 128, 299, 300):
                rng = group_rng(5, group)
                rng.bit_generator.advance(i * width)
                if i < 300:
                    assert_allclose(rng.random(width), rows[i], rtol=0, atol=0)
                else:
                    assert rng.negative_binomial(300, 0.3) == discards

    def test_window_layout(self):
        # each channel that is on adds exactly its uniforms: the init
        # uniform first, a flip uniform to readout 1 only (nothing collapses
        # after readout 2) and an assignment uniform to each readout; one
        # normal per run of same-axis neighbours, none without pulse noise;
        # no charge uniform: the discards are one draw after the last window
        widths = {}
        for std, on in itertools.product((0.0, 0.02), itertools.product((False, True), repeat=3)):
            init, flip, assign = on
            for prog in shot_programs("forward") + shot_programs("reverse"):
                pre, first, mid, second, width = _program_steps(prog, std, on)[0]
                assert pre == init
                assert first - pre == (std > 0.0) * normal_uniforms(axis_runs(prog.pre_pulses))
                assert mid - first == 1 + flip + assign
                assert second - mid == (std > 0.0) * normal_uniforms(axis_runs(prog.mid_pulses))
                assert width - second == 1 + assign
                widths.setdefault((std, on), set()).add(width)
        assert widths[0.0, (False, False, False)] == {2}
        noisy = widths[0.02, ALL_ON]
        assert (min(noisy), max(noisy)) == (14, 20)

    def test_a_channel_is_on_from_2_to_the_minus_53(self, monkeypatch):
        # Generator.random draws multiples of 2^-53, so below that a
        # decision u < p could hold only at u = 0.0. ideal's bright tail,
        # 1.14e-30, is off; paper-2015 has every channel on
        cases = [(load_preset("ideal"), (False, False, False)), (load_preset("paper-2015"), ALL_ON)]
        for i, field in enumerate(("init_error_prob", "nuclear_flip_prob")):
            for p in (2.0**-53, np.nextafter(2.0**-53, 0.0)):
                cases.append(({"noise": {field: p}}, tuple(j == i and p >= 2.0**-53 for j in range(3))))
        for data, on in cases:
            assert channels_on(build_run_config(data, seed=1, shots=20), monkeypatch) == {on}

    def test_program_steps_are_shared_and_read_only(self):
        # memoised per shot program and angle spread: every call gets the
        # same steps, or without angle noise the same Born tables, which
        # none of them can write
        for prog, again in zip(shot_programs(), shot_programs()):
            for std in (0.0, 0.02):
                steps = _program_steps(prog, std, ALL_ON)[1]
                assert _program_steps(again, std, ALL_ON)[1] is steps
                for array in steps if std == 0.0 else [a for _, x, y in steps for a in (x, y)]:
                    with pytest.raises(ValueError):
                        array[0] = 0.0

    def test_program_steps_are_keyed_on_the_channels(self):
        # not on the noise model: the calibration grid's 27 noise points
        # share one angle spread and one set of channels, so 6 entries
        experiment._program_steps.cache_clear()
        grid = itertools.product((10.0, 10.5, 11.0), (1.35, 1.45, 1.55), (0.015, 0.02, 0.025))
        for lambda_bright, lambda_dark, init_error_prob in grid:
            noise = dict(load_preset("paper-2015")["noise"], lambda_bright=lambda_bright,
                         lambda_dark=lambda_dark, init_error_prob=init_error_prob)
            run_protocol(build_run_config({"noise": noise}, seed=1, shots=20))
        assert _program_steps.cache_info().currsize == 6

    def test_shot_programs_are_shared(self):
        # memoised per pair order, as a tuple no caller can change
        for pair_order in ("forward", "reverse"):
            programs = shot_programs(pair_order)
            assert type(programs) is tuple and len(programs) == 6
            assert shot_programs(pair_order) is programs

    def test_counts_do_not_depend_on_the_draw_size(self, monkeypatch):
        cfg = build_run_config(load_preset("paper-2015"), seed=21, shots=300)
        default = run_protocol(cfg)
        monkeypatch.setattr(experiment, "DRAW_BYTES", 7 * WIDEST)
        small_draws = run_protocol(cfg)
        assert small_draws.successes == default.successes
        assert small_draws.discarded_shots == default.discarded_shots
        # every channel on, in both pair orders, and a charge_good_prob so
        # low that the discards are about 500 times the kept shots
        low_charge = dict(STRESS, charge_good_prob=0.002)
        runs = [(STRESS, 300, "forward"), (STRESS, 300, "reverse"), (low_charge, 200, "forward")]
        for noise, shots, pair_order in runs:
            cfg = build_run_config({"noise": noise}, seed=21, shots=shots, pair_order=pair_order)
            monkeypatch.setattr(experiment, "DRAW_BYTES", DRAW_BYTES)
            default = run_protocol(cfg)
            # one window a draw, dozens of draws, and four times the default
            for draw in (WIDEST, 7 * WIDEST, 4 * DRAW_BYTES):
                monkeypatch.setattr(experiment, "DRAW_BYTES", draw)
                res = run_protocol(cfg)
                assert (res.successes, res.kept_shots, res.discarded_shots) == (
                    default.successes, default.kept_shots, default.discarded_shots
                ), (pair_order, shots, draw)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_counts_do_not_depend_on_the_charge_check(self, pair_order):
        # the kept shots read the first windows of their group's stream and
        # the discard draw comes after the last: only the discards change
        runs = [
            run_protocol(build_run_config({"noise": dict(STRESS, charge_good_prob=p)}, seed=23,
                                          shots=300, pair_order=pair_order))
            for p in (1.0, 0.5, 0.02)
        ]
        for res in runs:
            assert np.array_equal(res.tables, runs[0].tables)
            assert res.successes == runs[0].successes and res.kept_shots == 6 * 300
        assert runs[0].discarded_shots == 0 < runs[1].discarded_shots < runs[2].discarded_shots

    @pytest.mark.parametrize("shots", [300, 3000])
    @pytest.mark.parametrize("noise", ["paper-2015", "stress", "stress-noise-free"])
    def test_a_group_counts_only_its_own_program(self, noise, shots):
        # group g's tables and discards depend on programs[g] and g alone,
        # so the first k programs give the first k of the six: groups 6 and
        # up leave the protocol's counts alone. With angle noise the six
        # share one draw at 300 shots, and at 3000 fill two draws of three
        # groups, where the first five fill a draw of three and one of two.
        # Without angle noise each group takes a draw of its own on the
        # class path
        data = {"noise": GATE_MODELS[noise]} if noise in GATE_MODELS else load_preset(noise)
        cfg = build_run_config(data, seed=17, shots=shots, pair_order="reverse")
        programs = shot_programs(cfg.pair_order)
        tables, discards = run_tables(cfg, programs)
        for k in (1, 3, 5):
            got, got_discards = run_tables(cfg, programs[:k])
            assert np.array_equal(got, tables[:k]) and got_discards == discards[:k], k


def axis_runs(pulses) -> int:
    """Runs of same-axis neighbours in a pulse string."""
    return sum(1 for _ in itertools.groupby(axis for axis, _ in pulses))


def scalar_counts(config, programs):
    """(tables, discards) of run_tables: the tables of assigned (b1, b2),
    one per program, tallied one kept shot at a time from initialize,
    noisy_apply and single_shot_readout, each shot reading, in turn, the
    next uniforms of the group's stream, as many as its channels read (a
    window of another width shifts every later shot's uniforms), and each
    group's discards, one negative-binomial draw after its last shot."""
    noise = config.noise
    shots = config.shots_per_term
    eps = misassignment_probabilities(noise)
    flip = noise.nuclear_flip_prob
    tables = np.zeros((len(programs), 2, 2), dtype=np.int64)
    discards = []
    for group, (prog, table) in enumerate(zip(programs, tables)):
        rng = group_rng(config.seed, group)
        u = iter(rng.random, None)  # the group's stream, one uniform at a time
        for _ in range(shots):
            psi = initialize(noise, u)
            psi = noisy_apply(prog.pre_pulses, noise, u, psi)
            b1, psi = single_shot_readout(psi, u, eps, flip)
            psi = noisy_apply(prog.mid_pulses, noise, u, psi)
            b2, _ = single_shot_readout(psi, u, eps, 0.0)
            table[b1, b2] += 1
        discards.append(int(rng.negative_binomial(shots, noise.charge_good_prob)))
    return tables, discards


def channels_on(config, monkeypatch):
    """The set of channel flags (init, flip, misassignment) that one
    run_protocol call lays its windows out with."""
    program_steps, seen = experiment._program_steps, set()

    def spy(prog, std, on):
        seen.add(on)
        return program_steps(prog, std, on)

    with monkeypatch.context() as m:
        m.setattr(experiment, "_program_steps", spy)
        run_protocol(config)
    return seen


def draws_of(config, monkeypatch):
    """(workspace, columns) of each draw of one run_protocol call, in draw
    order: the flat buffer that both the draw's uniforms and its kernel
    rows view, side by side, and the columns of each of its segments."""
    run_rows, seen = experiment._run_rows, []

    def spy(spans, channels, ws):
        for lo, hi, _, _, u in spans:
            assert u.base is ws.base and not np.shares_memory(u, ws) and u.shape[1] == hi - lo
        assert [lo for lo, *_ in spans] == [0, *(hi for _, hi, *_ in spans[:-1])] and spans[-1][1] == ws.shape[1]
        seen.append((ws.base, [hi - lo for lo, hi, *_ in spans]))
        return run_rows(spans, channels, ws)

    with monkeypatch.context() as m:
        m.setattr(experiment, "_run_rows", spy)
        run_protocol(config)
    return seen


@contextlib.contextmanager
def started_threads(monkeypatch):
    """The threads started in the block, in a list that fills as they
    start."""
    start, started = threading.Thread.start, []

    def spy(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    yield started


def draw_workspaces(config, monkeypatch):
    """The workspace of each draw of one run_protocol call, in draw order."""
    return [workspace for workspace, _ in draws_of(config, monkeypatch)]


def draw_groups(config, monkeypatch):
    """The draws of one run_protocol call as lists of (group, columns),
    the groups read off the segments' columns: they come in group order,
    and each group's add up to its shots."""
    draws, group, left = [], 0, config.shots_per_term
    for _, columns in draws_of(config, monkeypatch):
        draws.append([])
        for n in columns:
            assert 0 < n <= left
            draws[-1].append((group, n))
            left -= n
            if left == 0:
                group, left = group + 1, config.shots_per_term
    assert group == 6
    return draws


# every channel on and far from the presets: frequent init errors, flips
# and discards, inverted polarity and wide angle noise
STRESS = dict(pulse_angle_error_std=0.2, init_error_prob=0.3, nuclear_flip_prob=0.5,
              charge_good_prob=0.3, bright_state_is_one=False, lambda_bright=10.5,
              lambda_dark=1.55, readout_threshold=4)
# STRESS with unequal misassignment tails, 0.0211 and 1.6e-5, where every
# other gate model's two tails agree to 1e-4: a readout that swaps the
# tails shows only here
STRESS_DARK = dict(STRESS, lambda_dark=0.3)
# STRESS without angle noise: every channel that the sampler's class path
# (_run_rows on _Born tables) decides is on, far from ideal, where all of
# them are off
STRESS_NOISE_FREE = dict(STRESS, pulse_angle_error_std=0.0)
#: The noise blocks of the stress models, by the names the gates give them.
GATE_MODELS = {"stress": STRESS, "stress-dark": STRESS_DARK, "stress-noise-free": STRESS_NOISE_FREE}
# STRESS's angle noise and discards, every other channel off
PULSES_ONLY = dict(pulse_angle_error_std=0.2, charge_good_prob=0.3)
#: The edge models of the count-for-count test, by id.
EDGES = {
    "no-flip": dict(STRESS, nuclear_flip_prob=0.0),
    "every-dark-outcome-flips": dict(STRESS, nuclear_flip_prob=1.0),
    "angles-across-tangent-poles": dict(STRESS, pulse_angle_error_std=1.0),
    "init-only": dict(PULSES_ONLY, init_error_prob=0.3),
    "flip-only": dict(PULSES_ONLY, nuclear_flip_prob=0.5),
    "misassignment-only": dict(PULSES_ONLY, lambda_bright=10.5, lambda_dark=0.3, readout_threshold=4,
                               bright_state_is_one=False),
}
#: The edges that the count-for-count test also runs without angle noise.
NOISE_FREE_TWINS = ("every-dark-outcome-flips", "init-only", "flip-only", "misassignment-only")
#: Shot programs with empty pulse strings, by id: (group, program) to the
#: program that the group runs instead.
EMPTY_STRINGS = {
    "pre-empty": lambda group, prog: dataclasses.replace(prog, pre_pulses=()),
    "mid-empty": lambda group, prog: dataclasses.replace(prog, mid_pulses=()),
    "both-empty": lambda group, prog: dataclasses.replace(prog, pre_pulses=(), mid_pulses=()),
    "both-empty-in-every-other-group": lambda group, prog: (
        prog if group % 2 else dataclasses.replace(prog, pre_pulses=(), mid_pulses=())),
}


def noise_free_rows(pulses, states):
    """The float32 rows [a, b, c, s1, s2] that _noisy_apply_rows leaves
    after the steps of `pulses` at std 0 on the columns of `states` (3 x n),
    from zero uniforms: every normal is then exactly 0."""
    steps = _steps(pulses, 0.0)
    u = np.zeros((normal_uniforms(len(steps[0])), states.shape[1]))
    ws = np.zeros((5 + 3 * len(u), states.shape[1]), np.float32)
    ws[:3] = states
    _noisy_apply_rows([(0, states.shape[1], steps, u)], ws[:5], ws[5:])
    return ws[:5]


class TestArrayKernel:
    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("preset", ["ideal", "paper-2015", "stress", "stress-noise-free"])
    def test_counts_match_the_scalar_helpers(self, preset, seed, pair_order, monkeypatch):
        data = {"noise": GATE_MODELS[preset]} if preset in GATE_MODELS else load_preset(preset)
        cfg = build_run_config(data, seed=seed, shots=400, pair_order=pair_order)
        assert_counts_match_the_scalar_helpers(cfg, shot_programs(cfg.pair_order), monkeypatch)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    @pytest.mark.parametrize(
        "noise",
        [*EDGES.values(), *(dict(EDGES[name], pulse_angle_error_std=0.0) for name in NOISE_FREE_TWINS)],
        ids=[*EDGES, *(f"{name}-noise-free" for name in NOISE_FREE_TWINS)],
    )
    def test_counts_match_the_scalar_helpers_at_the_edges(self, noise, pair_order, monkeypatch):
        # no flip at all, a flip on every dark outcome, noisy angles spread
        # across the poles of tan(t / 4), and one channel on at a time, so
        # that every window layout between ideal's and STRESS's is checked;
        # the noise-free twins check the same on the class path
        cfg = build_run_config({"noise": noise}, seed=5, shots=400, pair_order=pair_order)
        assert_counts_match_the_scalar_helpers(cfg, shot_programs(cfg.pair_order), monkeypatch)

    @pytest.mark.parametrize("tail, on", [(2.0**-53, True), (np.nextafter(2.0**-53, 0.0), False)],
                             ids=["tail-at-2^-53", "tail-below-2^-53"])
    def test_counts_match_the_scalar_helpers_at_the_smallest_tail(self, tail, on, monkeypatch):
        # ideal with a tail of exactly 2^-53, which reads an assignment
        # uniform in both readouts, or one just below, which reads none
        tails = lambda noise: (0.0, tail)  # noqa: E731
        monkeypatch.setattr(experiment, "misassignment_probabilities", tails)
        monkeypatch.setitem(globals(), "misassignment_probabilities", tails)
        cfg = build_run_config(load_preset("ideal"), seed=9, shots=400)
        assert channels_on(cfg, monkeypatch) == {(False, False, on)}
        assert_counts_match_the_scalar_helpers(cfg, shot_programs(cfg.pair_order), monkeypatch)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_merged_steps_match_the_single_rotations(self, pair_order):
        # noise off: the kernel's steps take the basis columns where the
        # product of the pulses' own rotations does, to float32 resolution
        for prog in shot_programs(pair_order):
            for pulses in (prog.pre_pulses, prog.mid_pulses):
                assert len(_steps(pulses, 0.0)[0]) == axis_runs(pulses)
                expected = np.asarray(compose([rot_a(t) if ax == "a" else rot_b(t) for ax, t in pulses])).real
                rows = noise_free_rows(pulses, np.eye(3))
                assert_allclose(np.array(rows[:3]), expected, rtol=0, atol=10 * np.finfo(np.float32).eps)
        merged = sum(axis_runs(p.pre_pulses) + axis_runs(p.mid_pulses) for p in shot_programs(pair_order))
        pulses = sum(len(p.pre_pulses) + len(p.mid_pulses) for p in shot_programs(pair_order))
        assert (pulses, merged) == {"forward": (57, 50), "reverse": (65, 58)}[pair_order]

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_certain_outcome_reads_bright_at_the_largest_uniform(self, pair_order):
        # the correction group reads l1 right after l6, and |<l6|l1>| = 1:
        # a column left exactly |+1> by the first readout has population 1
        # at the second, and must read bright at any uniform below 1
        prog = shot_programs(pair_order)[5]
        exact = np.asarray(compose([rot_a(t) if ax == "a" else rot_b(t) for ax, t in prog.mid_pulses])) @ KET_PLUS
        assert abs(exact[0]) ** 2 == pytest.approx(1.0, abs=1e-15)
        rows = noise_free_rows(prog.mid_pulses, np.eye(3)[:, :1])
        assert (np.nextafter(1.0, 0.0) < _born_rows(rows)).all()

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_born_tables_match_the_unitaries(self, pair_order):
        # every class of every program, flips included, against float64
        # products of the pulses' unitaries on the basis kets, with the
        # collapse and the flips done here by hand; the bound, 50 float32
        # ulp of 1, was fixed beforehand
        kets = np.eye(3)  # |+1>, |0>, |-1>

        def born(psi):
            return abs(psi[0]) ** 2 / np.vdot(psi, psi).real

        for prog in shot_programs(pair_order):
            tables = experiment._born_tables((_steps(prog.pre_pulses, 0.0), _steps(prog.mid_pulses, 0.0)))
            pre, mid = pulse_unitary(prog.pre_pulses), pulse_unitary(prog.mid_pulses)
            first, second = [], []
            for psi in (pre @ ket for ket in kets):
                first.append(born(psi))
                projected = np.array([0.0, psi[1], psi[2]])
                # outcome 0 kept, flipped to |-1>, flipped to |0>; outcome 1 ignores d
                posts = [projected, kets[2], kets[1]] + [kets[0]] * 3
                second += [born(mid @ post) for post in posts]
            atol = 50 * np.finfo(np.float32).eps
            assert_allclose(tables.first, first, rtol=0, atol=atol)
            assert_allclose(tables.second, second, rtol=0, atol=atol)

    @pytest.mark.parametrize("shots, charge_good_prob", [(100_000, 1.0), (20, 1e-4)])
    def test_memory_does_not_grow_with_shots_or_discards(self, shots, charge_good_prob):
        data = load_preset("ideal")
        data["noise"]["charge_good_prob"] = charge_good_prob
        cfg = build_run_config(data, seed=3, shots=shots)
        peak, held = traced_memory(cfg)
        assert peak < 4 * 2**20 and held < 64 * 2**10

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_memory_bound_holds_with_every_channel_on(self, pair_order):
        # noisy angles, Box-Muller normals and flips grow with the draw too;
        # at the preset's 8000 shots a group is one draw, at 20 000 two or
        # three. Filling ahead, the workspace holds a draw and the next
        # draw's windows: from 13 107 shots on it is at its largest, 3.65
        # MiB forward (DRAW_BYTES and the 1.40 MiB of a draw's windows)
        for shots in (None, 13_107, 20_000, 50_000):
            cfg = build_run_config(load_preset("paper-2015"), seed=3, shots=shots, pair_order=pair_order)
            assert cfg.shots_per_term == (shots or 8000)
            peak, held = traced_memory(cfg)
            assert peak < 4 * 2**20 and held < 64 * 2**10, cfg.shots_per_term

    def test_shipped_sizes_run_each_group_in_one_draw(self, monkeypatch):
        # the presets' shot counts fit DRAW_BYTES: six draws a call, each
        # paying the kernel's fixed ufunc calls once
        for preset, shots, pair_order in [("paper-2015", 8000, "forward"), ("paper-2015", 8000, "reverse"),
                                          ("ideal", 10_000, "forward")]:
            cfg = build_run_config(load_preset(preset), seed=3, pair_order=pair_order)
            assert cfg.shots_per_term == shots
            assert len(draw_workspaces(cfg, monkeypatch)) == 6, (preset, pair_order)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_workspace_stays_within_the_draw_bytes(self, pair_order, monkeypatch):
        # one buffer a call, even where every group takes more than one
        # draw (70 000 shots: over ideal's 65 536 columns), and each draw's
        # windows and kernel rows within DRAW_BYTES. Any other call than
        # one that fills ahead holds DRAW_BYTES at most, plus the 63 bytes
        # that let the buffer start on a 64-byte line. One that fills ahead
        # holds the next draw's windows at the other end too, its largest
        # draw's windows more, and rounds each of the three blocks it holds
        # at once up to whole lines: 3 x 63 bytes more
        run_rows = experiment._run_rows
        models = [load_preset("ideal"), load_preset("paper-2015"), {"noise": STRESS}, {"noise": STRESS_DARK}]
        for data, shots in itertools.product(models, (300, 70_000)):
            cfg = build_run_config(data, seed=3, shots=shots, pair_order=pair_order)
            workspaces, windows = [], []

            def spy(spans, channels, ws):
                workspaces.append(ws.base)
                windows.append(sum(u.nbytes for *_, u in spans))
                assert windows[-1] + ws.nbytes <= DRAW_BYTES
                return run_rows(spans, channels, ws)

            with monkeypatch.context() as m, started_threads(m) as threads:
                m.setattr(experiment, "_run_rows", spy)
                run_protocol(cfg)
            assert len({id(w) for w in workspaces}) == 1
            bound = DRAW_BYTES + (max(windows) + 3 * 63 if threads else 0) + 63
            assert workspaces[0].nbytes <= bound, (data, shots)
            assert len(threads) == (cfg.noise.pulse_angle_error_std > 0 and len(workspaces) > 2), (data, shots)

    @pytest.mark.parametrize("preset, shots", [("paper-2015", 20_000), ("ideal", 100_000)])
    def test_workspace_starts_on_a_cache_line(self, preset, shots, monkeypatch):
        # the sizes whose largest draw is within 63 bytes of DRAW_BYTES
        # (2 359 280 bytes on paper-2015, DRAW_BYTES itself on ideal): each
        # group is split, and the workspace still starts on a 64-byte line
        run_rows, starts = experiment._run_rows, []

        def spy(spans, channels, ws):
            starts.append(spans[0][4].ctypes.data)  # the draw's first window
            return run_rows(spans, channels, ws)

        monkeypatch.setattr(experiment, "_run_rows", spy)
        run_protocol(build_run_config(load_preset(preset), seed=3, shots=shots))
        assert len(starts) > 6 and all(start % 64 == 0 for start in starts), [start % 64 for start in starts]

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_short_calls_share_one_draw(self, pair_order, monkeypatch):
        # the row kernel runs each step once per draw, so with angle noise
        # the six 300-shot groups share one draw (about 0.43 MB); without
        # it each group keeps its own, the class path's policy (_draws)
        for data, draws in [(load_preset("paper-2015"), [[300] * 6]), ({"noise": STRESS}, [[300] * 6]),
                            (load_preset("ideal"), [[300]] * 6), ({"noise": STRESS_NOISE_FREE}, [[300]] * 6)]:
            cfg = build_run_config(data, seed=3, shots=300, pair_order=pair_order)
            assert [columns for _, columns in draws_of(cfg, monkeypatch)] == draws, data

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_whole_groups_share_a_draw_while_it_fits(self, pair_order, monkeypatch):
        # a draw of (group, columns) takes 8 W n bytes of windows a segment
        # and 4 depth bytes a column of kernel rows, depth its deepest
        # group's. A whole group joins the last draw while that stays
        # within DRAW_BYTES, else starts the next; a group that does not
        # fit alone is split, each part a draw
        plans = [_program_steps(prog, PULSE_NOISE.pulse_angle_error_std, ALL_ON) for prog in shot_programs(pair_order)]

        def nbytes(draw):
            depth = max(plans[group][2] for group, _ in draw)
            return sum((8 * plans[group][0][-1] + 4 * depth) * n for group, n in draw)

        for shots in (2, 300, 1000, 3000, 8000, 20_000):
            cfg = build_run_config(load_preset("paper-2015"), seed=3, shots=shots, pair_order=pair_order)
            draws = draw_groups(cfg, monkeypatch)
            for draw in draws:
                assert nbytes(draw) <= DRAW_BYTES
                assert all(n == shots for _, n in draw[1:]), (shots, draw)
            for last, draw in zip(draws, draws[1:]):
                if draw[0][1] == shots:  # a whole group that did not fit the draw before
                    assert nbytes(last + draw[:1]) > DRAW_BYTES, (shots, last, draw)
                else:  # a part of a group that fits no draw whole
                    assert nbytes([(draw[0][0], shots)]) > DRAW_BYTES
            assert len(draws) == {2: 1, 300: 1, 1000: 1, 3000: 2, 8000: 6}.get(shots, len(draws)), (shots, draws)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_the_one_draw_gate_runs_one_draw(self, pair_order, monkeypatch):
        # TestAgainstExactTablesInOneDraw sees the shared-draw pass
        monkeypatch.setattr(experiment, "DRAW_BYTES", ONE_DRAW_BYTES)
        for noise in (load_preset("paper-2015")["noise"], STRESS, STRESS_DARK):
            cfg = build_run_config({"noise": noise}, seed=11, shots=8000, pair_order=pair_order)
            assert [columns for _, columns in draws_of(cfg, monkeypatch)] == [[8000] * 6]

    @pytest.mark.parametrize("std", [0.02, 0.0])
    @pytest.mark.parametrize("strings", list(EMPTY_STRINGS))
    def test_empty_pulse_strings(self, strings, std, monkeypatch):
        # no shipped program has an empty string, but both backends take
        # any: the kernel skips a string with no step in any segment of a
        # draw, and leaves alone the segments without a step. Without angle
        # noise a |+1> preparation under an empty pre string leaves a dark
        # class of norm 0, which _born_tables stores as 0 without a warning.
        # The programs keep the forward slots, which the z-test reads
        programs = tuple(EMPTY_STRINGS[strings](group, prog) for group, prog in enumerate(shot_programs("forward")))
        experiment._program_steps.cache_clear()
        noise = dict(STRESS, pulse_angle_error_std=std)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = build_run_config({"noise": noise}, seed=5, shots=400)
            assert_counts_match_the_scalar_helpers(cfg, programs, monkeypatch)
            cfg = build_run_config({"noise": noise}, seed=11, shots=8000)
            counts, discards = run_tables(cfg, programs)
            res = table_estimates(programs, counts, cfg.shots_per_term, sum(discards))
            tables = exact_tables(cfg.noise, programs)
        assert_tables_pass_a_g_test(res, tables)
        assert_terms_within_five_sigma(res, tables, "forward")

    @pytest.mark.parametrize("shots", [300, 8000])
    def test_gate_models_raise_no_runtime_warning(self, shots):
        # at 300 shots the groups share a draw, so a group's cells beyond
        # its own normals reach tan and log; at 8000 each has its own draw.
        # The Born tables are built afresh, here
        experiment._program_steps.cache_clear()
        models = [load_preset("ideal"), load_preset("paper-2015"), *({"noise": m} for m in
                  (STRESS, STRESS_DARK, STRESS_NOISE_FREE))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data, pair_order in itertools.product(models, ("forward", "reverse")):
                run_protocol(build_run_config(data, seed=3, shots=shots, pair_order=pair_order))

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="glibc's heap trimming",
    )
    @pytest.mark.parametrize("preset, shots", [("paper-2015", 8000), ("ideal", 100_000)])
    def test_warm_call_does_not_refault_the_heap(self, preset, shots):
        # glibc returns the idle top of its heap to the kernel, so arrays
        # freed and allocated again on every draw fault their pages back in:
        # thousands of minor faults per call, where a workspace reused
        # across the call's draws takes a few hundred: mapping the 2.25 MiB
        # of DRAW_BYTES afresh costs 500-580. ideal at 100 000 shots runs
        # the widest draws, 65 536 columns. The call
        # runs in a fresh interpreter: once a process has freed a large
        # mapped block, as earlier tests do, glibc raises its trim threshold
        # and the churn no longer shows.
        code = (
            "import resource\n"
            "from kcbsim.config import build_run_config, load_preset\n"
            "from kcbsim.experiment import run_protocol\n"
            f"cfg = build_run_config(load_preset({preset!r}), seed=3, shots={shots})\n"
            "run_protocol(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_protocol(cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert int(out.stdout) < 1000


def slow_kernel(delay, monkeypatch):
    """Make _run_rows sleep `delay` seconds before each draw, so that the
    thread that fills ahead runs as far as it may."""
    run_rows = experiment._run_rows

    def slow(spans, channels, ws):
        time.sleep(delay)
        return run_rows(spans, channels, ws)

    monkeypatch.setattr(experiment, "_run_rows", slow)


def before_each_fill(hook, monkeypatch):
    """Make run_protocol call hook() before each window fill, in whichever
    thread makes it."""
    group_rng = experiment.group_rng

    def hooked(seed, group):
        rng = group_rng(seed, group)

        def random(*, out):
            hook()
            return rng.random(out=out)

        return types.SimpleNamespace(random=random, negative_binomial=rng.negative_binomial)

    monkeypatch.setattr(experiment, "group_rng", hooked)


def assert_counts_match_at_many_draws(config, monkeypatch):
    """run_tables' counts of the protocol's programs are the scalar
    helpers' at DRAW_BYTES = 7 WIDEST, dozens of draws a group, and the
    call fills ahead."""
    programs = shot_programs(config.pair_order)
    tables, discards = scalar_counts(config, programs)
    monkeypatch.setattr(experiment, "DRAW_BYTES", 7 * WIDEST)
    with started_threads(monkeypatch) as threads:
        got, got_discards = run_tables(config, programs)
    assert len(threads) == 1
    assert np.array_equal(got, tables) and got_discards == discards


class TestFillAhead:
    """A call with angle noise and more than two draws fills each next
    draw's windows in a second thread while the row kernel runs."""

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_counts_match_with_a_slow_kernel(self, pair_order, monkeypatch):
        # the thread gets as far ahead as it may: a window block reused
        # while the kernel still reads it changes the counts
        slow_kernel(5e-4, monkeypatch)
        cfg = build_run_config({"noise": STRESS}, seed=5, shots=200, pair_order=pair_order)
        assert_counts_match_at_many_draws(cfg, monkeypatch)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_counts_match_with_a_slow_fill(self, pair_order, monkeypatch):
        # the kernel waits for every draw
        before_each_fill(lambda: time.sleep(5e-4), monkeypatch)
        cfg = build_run_config({"noise": STRESS}, seed=5, shots=200, pair_order=pair_order)
        assert_counts_match_at_many_draws(cfg, monkeypatch)

    def test_concurrent_calls_keep_their_counts(self, monkeypatch):
        # three callers on two cores, each with its fill thread, switching
        # threads every microsecond: each call's counts are its own
        monkeypatch.setattr(experiment, "DRAW_BYTES", 7 * WIDEST)
        configs = [build_run_config({"noise": STRESS}, seed=seed, shots=100, pair_order=pair_order)
                   for seed, pair_order in [(1, "forward"), (2, "reverse"), (3, "forward")]]
        expected = [run_protocol(cfg) for cfg in configs]
        results = [[] for _ in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda cfg=cfg, out=out: out.extend(run_protocol(cfg) for _ in range(3)))
                       for cfg, out in zip(configs, results)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected, results):
            assert len(got) == 3
            for res in got:
                assert np.array_equal(res.tables, want.tables) and res.discarded_shots == want.discarded_shots

    def test_which_calls_start_a_thread(self, monkeypatch):
        # the row kernel with more than two draws starts one (paper-2015 at
        # 4000: three draws, at 8000: six); one draw (paper-2015 at 300),
        # two (at 3000) and the class path (ideal) start none
        for preset, shots, started in [("paper-2015", 8000, 1), ("paper-2015", 4000, 1), ("paper-2015", 300, 0),
                                       ("paper-2015", 3000, 0), ("ideal", 10_000, 0), ("ideal", 100_000, 0)]:
            cfg = build_run_config(load_preset(preset), seed=3, shots=shots)
            with monkeypatch.context() as m, started_threads(m) as threads:
                run_protocol(cfg)
            assert len(threads) == started, (preset, shots)

    def test_discards_are_drawn_on_the_calling_thread_once_the_fill_thread_ends(self, monkeypatch):
        # no two threads ever touch a stream: the fill thread fills every
        # later window, and the caller draws each group's discards after it
        group_rng, seen = experiment.group_rng, []

        def spied(seed, group):
            rng = group_rng(seed, group)

            def negative_binomial(n, p):
                seen.append((threading.current_thread(), threading.active_count()))
                return rng.negative_binomial(n, p)

            return types.SimpleNamespace(random=rng.random, negative_binomial=negative_binomial)

        monkeypatch.setattr(experiment, "group_rng", spied)
        before = threading.active_count()
        with started_threads(monkeypatch) as threads:
            run_protocol(build_run_config(load_preset("paper-2015"), seed=3))
        assert len(threads) == 1
        assert seen == [(threading.current_thread(), before)] * 6

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_in_the_kernel_stops_the_fill_thread(self, error, monkeypatch):
        run_rows, calls, exc = experiment._run_rows, itertools.count(1), error("second draw")

        def failing(spans, channels, ws):
            if next(calls) == 2:
                raise exc
            return run_rows(spans, channels, ws)

        monkeypatch.setattr(experiment, "_run_rows", failing)
        before = threading.active_count()
        with pytest.raises(error) as raised:
            run_protocol(build_run_config(load_preset("paper-2015"), seed=3))
        assert raised.value is exc
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_in_a_fill_reaches_the_caller(self, error, monkeypatch):
        exc, fills = error("third fill"), itertools.count(1)

        def fail_the_third():
            if next(fills) == 3:
                raise exc

        before_each_fill(fail_the_third, monkeypatch)
        before = threading.active_count()
        with started_threads(monkeypatch) as threads, pytest.raises(error) as raised:
            run_protocol(build_run_config(load_preset("paper-2015"), seed=3))
        assert raised.value is exc and len(threads) == 1
        assert threading.active_count() == before


def assert_counts_match_the_scalar_helpers(config, programs, monkeypatch):
    # every cell of every table, not just the recorded terms, and each
    # group's discards
    tables, discards = scalar_counts(config, programs)
    # at the default DRAW_BYTES a group takes one draw; at 7 widest
    # columns it takes dozens, so counts carried across draws and the cut
    # in the last are checked
    for draw in (DRAW_BYTES, 7 * WIDEST):
        monkeypatch.setattr(experiment, "DRAW_BYTES", draw)
        got, got_discards = run_tables(config, programs)
        assert np.array_equal(got, tables), draw
        assert got_discards == discards, draw


def traced_memory(config):
    """Traced Python allocation of one run_protocol call, in bytes: its
    peak, and what is still held once the call has returned and its result
    is dropped (a workspace kept past the call would show there). numpy
    imports numpy.random lazily on the first default_rng call of a
    process, about 0.6 MiB of importlib allocations; that happens first,
    untraced."""
    np.random.default_rng()
    tracemalloc.start()
    try:
        run_protocol(config)
        held, peak = tracemalloc.get_traced_memory()
        return peak, held
    finally:
        tracemalloc.stop()
