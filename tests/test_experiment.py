import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kcbsim.config import build_run_config, load_preset
from kcbsim.errors import ConfigError, InsufficientData, NonFinite
from kcbsim.experiment import (
    NoiseModel,
    NvParameters,
    RunConfig,
    charge_check,
    estimate_stats,
    initialize,
    misassignment_probabilities,
    nmr_frequencies,
    noisy_apply,
    run_protocol,
    shot_rng,
    single_shot_readout,
)
from kcbsim.pentagram import build_psi0, psi0_pulses, swap_pulses
from kcbsim.qutrit import KET_PLUS, KET_ZERO, compose, rot_a, rot_b

SQRT5 = math.sqrt(5.0)

IDEAL = NoiseModel()  # defaults are the noise-free model


def poisson_tail_above(threshold, lam):
    # brute-force mass of P(N > threshold) for N ~ Poisson(lam)
    if lam == 0.0:
        return 0.0
    term = math.exp(-lam)
    below = term
    for k in range(1, threshold + 1):
        term *= lam / k
        below += term
    return 1.0 - below


class TestNmrFrequencies:
    def test_reference_constants(self):
        low, high = nmr_frequencies(NvParameters())
        # 0.3077 kHz/G * 5636 G = 1.7341972 MHz on either side of 4.95 MHz
        assert low == pytest.approx(3.2158028, abs=1e-7)
        assert high == pytest.approx(6.6841972, abs=1e-7)
        assert low == pytest.approx(3.2158, abs=1e-3)
        assert high == pytest.approx(6.6842, abs=1e-3)

    def test_zero_field_degenerate(self):
        low, high = nmr_frequencies(NvParameters(field_gauss=0.0))
        assert (low, high) == (4.95, 4.95)

    def test_zero_gyromagnetic_degenerate(self):
        low, high = nmr_frequencies(NvParameters(gyromagnetic_khz_per_gauss=0.0))
        assert (low, high) == (4.95, 4.95)

    def test_sorted_even_past_crossing(self):
        low, high = nmr_frequencies(NvParameters(field_gauss=20000.0))
        assert low <= high

    def test_invalid_parameters(self):
        with pytest.raises(NonFinite):
            NvParameters(quadrupole_mhz=float("nan"))
        with pytest.raises(ConfigError):
            NvParameters(field_gauss=-1.0)


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


class TestInitialize:
    def test_no_error_always_plus(self):
        rng = np.random.default_rng(0)
        noise = NoiseModel(init_error_prob=0.0)
        for _ in range(100):
            assert_allclose(initialize(noise, rng), KET_PLUS)

    def test_full_error_never_plus(self):
        rng = np.random.default_rng(0)
        noise = NoiseModel(init_error_prob=1.0)
        for _ in range(100):
            assert initialize(noise, rng)[0] == 0

    def test_error_rate_within_binomial_ci(self):
        rng = np.random.default_rng(123)
        p = 0.3
        noise = NoiseModel(init_error_prob=p)
        n = 100_000
        hits = sum(int(initialize(noise, rng)[0].real == 1.0) for _ in range(n))
        expected = 1.0 - p
        assert abs(hits / n - expected) < 4.0 * math.sqrt(p * (1 - p) / n)

    def test_error_split_between_zero_and_minus(self):
        rng = np.random.default_rng(7)
        noise = NoiseModel(init_error_prob=1.0)
        zeros = sum(int(initialize(noise, rng)[1].real == 1.0) for _ in range(20_000))
        assert abs(zeros / 20_000 - 0.5) < 4.0 * math.sqrt(0.25 / 20_000)


class TestChargeCheck:
    def test_always_keep(self):
        rng = np.random.default_rng(1)
        assert all(charge_check(NoiseModel(charge_good_prob=1.0), rng) for _ in range(100))

    def test_never_keep(self):
        rng = np.random.default_rng(1)
        assert not any(charge_check(NoiseModel(charge_good_prob=0.0), rng) for _ in range(100))

    def test_keep_fraction_ci(self):
        rng = np.random.default_rng(2)
        p = 0.7
        n = 100_000
        kept = sum(charge_check(NoiseModel(charge_good_prob=p), rng) for _ in range(n))
        assert abs(kept / n - p) < 4.0 * math.sqrt(p * (1 - p) / n)


class TestSingleShotReadout:
    def test_deterministic_bright_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            bit, post, count = single_shot_readout(KET_PLUS, IDEAL, rng)
            assert bit == 1
            assert_allclose(post, KET_PLUS)
            assert count > IDEAL.readout_threshold

    def test_deterministic_dark_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            bit, post, count = single_shot_readout(KET_ZERO, IDEAL, rng)
            assert bit == 0
            assert_allclose(post, KET_ZERO)

    def test_collapse_of_superposition(self):
        rng = np.random.default_rng(11)
        psi0 = build_psi0()
        saw = {0: 0, 1: 0}
        for _ in range(500):
            bit, post, _ = single_shot_readout(psi0, IDEAL, rng)
            saw[bit] += 1
            if bit == 1:
                assert_allclose(post, KET_PLUS)
            else:
                assert post[0] == 0
                assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)
        assert saw[0] > 0 and saw[1] > 0

    def test_born_statistics(self):
        rng = np.random.default_rng(13)
        psi0 = build_psi0()
        n = 50_000
        ones = sum(single_shot_readout(psi0, IDEAL, rng)[0] for _ in range(n))
        p = 1 / SQRT5
        assert abs(ones / n - p) < 4.0 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("lam_b,lam_d,threshold", [(8.0, 1.2, 3), (10.5, 1.55, 4)])
    def test_misassignment_matches_poisson_tails(self, lam_b, lam_d, threshold):
        noise = NoiseModel(lambda_bright=lam_b, lambda_dark=lam_d, readout_threshold=threshold)
        rng = np.random.default_rng(17)
        n = 100_000
        # true outcome 1 on |+1>: misassigned iff count fell at or below threshold
        miss1 = sum(1 - single_shot_readout(KET_PLUS, noise, rng)[0] for _ in range(n)) / n
        expect1 = 1.0 - poisson_tail_above(threshold, lam_b)
        assert abs(miss1 - expect1) < 4.0 * math.sqrt(expect1 * (1 - expect1) / n) + 1e-9
        # true outcome 0 on |0>: misassigned iff count exceeded threshold
        miss0 = sum(single_shot_readout(KET_ZERO, noise, rng)[0] for _ in range(n)) / n
        expect0 = poisson_tail_above(threshold, lam_d)
        assert abs(miss0 - expect0) < 4.0 * math.sqrt(expect0 * (1 - expect0) / n) + 1e-9
        # the analytic helper agrees with the brute-force sums
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
        assert (eps0_d, eps1_d) == pytest.approx((eps1_b, eps0_b))

    def test_reverse_polarity_statistics(self):
        noise = NoiseModel(
            lambda_bright=100.0, lambda_dark=0.0, readout_threshold=10,
            bright_state_is_one=False,
        )
        rng = np.random.default_rng(19)
        assert all(single_shot_readout(KET_PLUS, noise, rng)[0] == 1 for _ in range(100))
        assert all(single_shot_readout(KET_ZERO, noise, rng)[0] == 0 for _ in range(100))

    def test_nuclear_flip_randomizes_dark_subspace(self):
        noise = NoiseModel(nuclear_flip_prob=1.0)
        rng = np.random.default_rng(23)
        psi = np.array([0.0, 0.8, 0.6], dtype=complex)
        posts = [single_shot_readout(psi, noise, rng)[1] for _ in range(50)]
        for post in posts:
            assert post[0] == 0
            assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)
        # the collapsed states genuinely vary
        spread = np.std([abs(p[1]) for p in posts])
        assert spread > 0.1


class TestNoisyApply:
    def test_zero_noise_matches_exact_composition(self):
        rng = np.random.default_rng(29)
        pulses = psi0_pulses() + swap_pulses()
        mats = [rot_a(t) if ax == "a" else rot_b(t) for ax, t in pulses]
        expected = compose(mats) @ KET_PLUS
        got = noisy_apply(pulses, IDEAL, rng, KET_PLUS)
        assert_allclose(got, expected, atol=1e-12)

    def test_swap_exchanges_populations(self):
        rng = np.random.default_rng(31)
        out = noisy_apply(swap_pulses(), IDEAL, rng, KET_PLUS)
        assert abs(out[2]) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_decreases_with_angle_noise(self):
        pulses = psi0_pulses()
        ideal = noisy_apply(pulses, IDEAL, np.random.default_rng(0), KET_PLUS)
        means = []
        for std in (0.0, 0.01, 0.05):
            noise = NoiseModel(pulse_angle_error_std=std)
            rng = np.random.default_rng(37)
            fids = [
                abs(np.vdot(ideal, noisy_apply(pulses, noise, rng, KET_PLUS))) ** 2
                for _ in range(10_000)
            ]
            means.append(np.mean(fids))
        assert means[0] == pytest.approx(1.0, abs=1e-12)
        assert means[0] > means[1] > means[2]


class TestEstimateStats:
    def test_degenerate_count_keeps_nonzero_stderr(self):
        means, stderrs, _ = estimate_stats([10], [10])
        assert means[0] == 1.0
        n = 10
        p = 1 - 1 / (2 * n)
        assert stderrs[0] == pytest.approx(math.sqrt(p * (1 - p) / n))
        assert stderrs[0] > 0

    def test_half_count_stderr(self):
        n = 400
        means, stderrs, _ = estimate_stats([n // 2], [n])
        assert means[0] == 0.5
        assert stderrs[0] == pytest.approx(1 / (2 * math.sqrt(n)))

    def test_quadrature_combination(self):
        n = 400
        k = [n // 2] * 12
        _, stderrs, combined = estimate_stats(k, [n] * 12)
        s = 1 / (2 * math.sqrt(n))
        assert combined == pytest.approx(s * math.sqrt(12))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_stats([1], [1])


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

    def test_charge_block_raises(self):
        data = load_preset("ideal")
        data["noise"]["charge_good_prob"] = 0.0
        cfg = build_run_config(data, seed=10, shots=50)
        with pytest.raises(InsufficientData):
            run_protocol(cfg)

    def test_single_shot_insufficient(self):
        with pytest.raises(InsufficientData):
            run_protocol(ideal_config(seed=11, shots=1))

    def test_sigma_definition(self):
        res = run_protocol(ideal_config(seed=12, shots=2000))
        assert res.violation_sigma == pytest.approx(
            (res.inequality_value - 2.0) / res.inequality_stderr
        )
        assert res.inequality_stderr > 0


class TestShotRng:
    def test_reproducible(self):
        a = shot_rng(42, 3, 17).random(5)
        b = shot_rng(42, 3, 17).random(5)
        assert_allclose(a, b)

    def test_streams_distinct(self):
        a = shot_rng(42, 0, 0).random(5)
        b = shot_rng(42, 0, 1).random(5)
        c = shot_rng(42, 1, 0).random(5)
        d = shot_rng(43, 0, 0).random(5)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert not np.allclose(a, d)

    def test_order_free_derivation(self):
        # deriving stream (g, s) never depends on other streams having
        # been created first
        later = shot_rng(7, 2, 1000).random(3)
        for g in range(3):
            for s in range(5):
                shot_rng(7, g, s)
        again = shot_rng(7, 2, 1000).random(3)
        assert_allclose(later, again)
