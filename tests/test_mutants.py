"""Standing mutants of the gates. Each test breaks the sampler, code that
both backends share, or the config loader, in one known way with
monkeypatch and asserts that the gate it names fails, through the gate's
own helper or test: a gate weakened later shows here as a mutant that
survives."""

import dataclasses
import functools
import math
import types

import numpy as np
import pytest
import yaml

import test_cli
import test_experiment
from kcbsim import config, experiment, model
from kcbsim.config import build_run_config, load_preset
from kcbsim.pentagram import swap_pulses
from test_experiment import assert_tables_pass_a_g_test, assert_terms_within_five_sigma, run_against_exact


def flips(u, flip_prob, zero_below):
    """_flips with a flip to |0> below zero_below * flip_prob (0.5 is fair)."""
    return u < flip_prob, u < zero_below * flip_prob


def collapse_keeping_the_bright_amplitude(one, flips, rows):
    """_collapse_rows with a dark outcome that keeps the |+1> amplitude
    instead of projecting it out."""
    a, b, c = rows[:3]
    flip = ~one & flips[0]
    zero = flip & flips[1]
    kept = ~(one | flip)
    a *= kept
    a += one
    b *= kept
    b += zero
    c *= kept
    c += flip & ~zero


def assert_both_gates_fail(preset, pair_order):
    res, tables = run_against_exact(preset, pair_order, seed=11)
    with pytest.raises(AssertionError):
        assert_tables_pass_a_g_test(res, tables)
    with pytest.raises(AssertionError):
        assert_terms_within_five_sigma(res, tables, pair_order)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("preset", ["stress", "stress-noise-free"])
def test_flip_fixed_to_one_state_fails_the_exact_gate(preset, pair_order, monkeypatch):
    # every flip to |0>, none to |-1>, on the row kernel and the class path
    monkeypatch.setattr(experiment, "_flips", functools.partial(flips, zero_below=1.0))
    assert_both_gates_fail(preset, pair_order)


def test_second_bit_inverted_after_a_dark_first_fails_the_g_test(monkeypatch):
    # b2 = np.where(b1, b2, ~b2) on paper-2015, where every cell is possible,
    # so the G statistic itself must catch it
    run_rows = experiment._run_rows

    def mutant(*args):
        return [(b1, np.where(b1, b2, ~b2)) for b1, b2 in run_rows(*args)]

    monkeypatch.setattr(experiment, "_run_rows", mutant)
    res, tables = run_against_exact("paper-2015", "forward", seed=11)
    with pytest.raises(AssertionError):
        assert_tables_pass_a_g_test(res, tables)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("preset", ["stress", "stress-noise-free"])
def test_unfair_flip_pick_fails_the_exact_gate(preset, pair_order, monkeypatch):
    # |0> on a quarter of the flips, |-1> on the rest
    monkeypatch.setattr(experiment, "_flips", functools.partial(flips, zero_below=0.25))
    assert_both_gates_fail(preset, pair_order)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("preset", ["stress", "stress-noise-free"])
def test_unfair_init_split_fails_the_g_test(preset, pair_order, monkeypatch):
    # |0> on three quarters of the init errors, |-1> on the rest. The
    # z-test misses it on STRESS at some seeds (forward 11 and 12)
    monkeypatch.setattr(experiment, "_prepared", lambda u, p: (u >= 1.0 - p, u >= 1.0 - p / 4.0))
    res, tables = run_against_exact(preset, pair_order, seed=11)
    with pytest.raises(AssertionError):
        assert_tables_pass_a_g_test(res, tables)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_dark_collapse_keeping_the_bright_amplitude_fails_the_exact_gate(pair_order, monkeypatch):
    monkeypatch.setattr(experiment, "_collapse_rows", collapse_keeping_the_bright_amplitude)
    assert_both_gates_fail("paper-2015", pair_order)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_swapped_misassignment_tails_fail_the_exact_gate(pair_order, monkeypatch):
    # only STRESS_DARK's tails differ enough to tell the two apart
    assigned = experiment._assigned
    monkeypatch.setattr(experiment, "_assigned", lambda one, u, tails: assigned(one, u, tails[::-1]))
    assert_both_gates_fail("stress-dark", pair_order)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_first_readout_one_slot_early_fails_the_exact_gate(pair_order, monkeypatch):
    # readout 1 reads u[first - 1:mid - 1]: on STRESS the Born uniform
    # shifts onto the last pre-pulse normal, the flip onto the Born and the
    # assignment onto the flip uniform. ideal's windows hold no init
    # uniform, so its readout 1 opens the window: there is no slot before it
    run_rows = experiment._run_rows

    def early(layout, u):
        first, mid = layout[1:3]
        v = u.copy()
        v[first:mid] = u[first - 1:mid - 1]
        return v

    def mutant(segments, channels, ws):
        return run_rows([(layout, steps, early(layout, u)) for layout, steps, u in segments], channels, ws)

    monkeypatch.setattr(experiment, "_run_rows", mutant)
    assert_both_gates_fail("stress", pair_order)


def ignore_the_init_class(first, second):
    first[:] = first[0]
    second[:] = second[0]


def swap_the_flip_classes(first, second):
    second[:, 0, 1:] = second[:, 0, :0:-1]


def swap_bright_and_dark(first, second):
    second[:] = second[:, ::-1]


def mutated(born, mutate):
    """The _Born tables changed by mutate(first, second) on copies, second
    as (init class, outcome, dark class): a wrong table entry is the same
    as a wrong per-column decision of the class path."""
    first, second = born.first.copy(), born.second.reshape(3, 2, 3).copy()
    mutate(first, second)
    return experiment._Born(first, second.ravel())


def class_path_mutant(mutate, monkeypatch):
    """Run the class path (_run_rows on _Born tables) on tables mutated by
    mutate."""
    run_rows = experiment._run_rows

    def mutant(segments, channels, ws):
        return run_rows([(layout, mutated(born, mutate), u) for layout, born, u in segments], channels, ws)

    monkeypatch.setattr(experiment, "_run_rows", mutant)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("mutate", [ignore_the_init_class, swap_bright_and_dark])
def test_class_path_decision_made_wrong_fails_the_exact_gate(mutate, pair_order, monkeypatch):
    # every column read as prepared in |+1>, or readout 2 looked up under
    # the other outcome of readout 1
    class_path_mutant(mutate, monkeypatch)
    assert_both_gates_fail("stress-noise-free", pair_order)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_class_path_flip_classes_swapped_fail_the_scalar_test(pair_order, monkeypatch):
    # |-1> below flip_prob / 2 and |0> above: still a fair pick, so exact
    # in distribution and no exact-gate test can see it; the count-for-count
    # test does, and so does the Born table test below
    class_path_mutant(swap_the_flip_classes, monkeypatch)
    cfg = build_run_config({"noise": test_experiment.STRESS_NOISE_FREE}, seed=1, shots=400, pair_order=pair_order)
    with pytest.raises(AssertionError):
        test_experiment.assert_counts_match_the_scalar_helpers(cfg, monkeypatch)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_flip_classes_swapped_fail_the_born_table_test(pair_order, monkeypatch):
    # the tables themselves swapped, read back by the test that checks each
    # class against the pulses' unitaries
    born_tables = experiment._born_tables
    monkeypatch.setattr(experiment, "_born_tables", lambda steps: mutated(born_tables(steps), swap_the_flip_classes))
    with pytest.raises(AssertionError):
        test_experiment.TestArrayKernel().test_born_tables_match_the_unitaries(pair_order)


def sampler_without(channel, monkeypatch):
    """Turn one channel off in the sampler alone: run_protocol runs with
    that noise field at 0, or with misassignment tails of 0, while the exact
    tables and the scalar helpers keep it. Its uniforms leave the window
    and its decision is never made."""
    if channel == "misassignment":
        monkeypatch.setattr(experiment, "misassignment_probabilities", lambda noise: (0.0, 0.0))
        return
    field = {"init": "init_error_prob", "flip": "nuclear_flip_prob"}[channel]
    run_protocol = experiment.run_protocol
    monkeypatch.setattr(test_experiment, "run_protocol", lambda config: run_protocol(
        dataclasses.replace(config, noise=dataclasses.replace(config.noise, **{field: 0.0}))))


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("channel", ["init", "flip", "misassignment"])
def test_channel_reported_off_fails_the_g_test(channel, pair_order, monkeypatch):
    # the z-test misses the flip at most seeds, and on paper-2015, at
    # 1.5 % init errors and 1 % flips, the init and flip mutants pass both
    # gates: the count-for-count test below catches them there
    sampler_without(channel, monkeypatch)
    res, tables = run_against_exact("stress", pair_order, seed=11)
    with pytest.raises(AssertionError):
        assert_tables_pass_a_g_test(res, tables)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("channel", ["init", "flip", "misassignment"])
def test_channel_reported_off_on_the_paper_preset_fails_the_scalar_test(channel, pair_order,
                                                                       monkeypatch):
    # the scalar helpers read the uniforms of every channel that is on, so
    # a window without the channel's uniforms moves every later shot
    sampler_without(channel, monkeypatch)
    cfg = build_run_config(load_preset("paper-2015"), seed=1, shots=400, pair_order=pair_order)
    with pytest.raises(AssertionError):
        test_experiment.assert_counts_match_the_scalar_helpers(cfg, monkeypatch)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_box_muller_radius_from_the_angle_column_fails_the_g_test(pair_order, monkeypatch):
    # r = sqrt(-2 log(1 - u')) from the angle's uniform u'. Only STRESS's
    # wide angle noise shows it: paper-2015 and ideal pass both gates
    noisy_apply_rows = experiment._noisy_apply_rows

    def radius_from_the_angle(u):
        v = u.copy()
        v[::2] = u[1::2]
        return v

    def mutant(strings, rows, ws):
        return noisy_apply_rows([(steps, radius_from_the_angle(u)) for steps, u in strings], rows, ws)

    monkeypatch.setattr(experiment, "_noisy_apply_rows", mutant)
    res, tables = run_against_exact("stress", pair_order, seed=11)
    with pytest.raises(AssertionError):
        assert_tables_pass_a_g_test(res, tables)


def runs_across_axes(step_runs):
    """_step_runs with neighbouring runs of a step joined whatever their
    axis, on the axis of the first."""
    def mutant(strings):
        joined = []
        for runs in step_runs(strings):
            merged = [list(runs[0])]
            for i, lo, hi in runs[1:]:
                if merged[-1][2] == lo:
                    merged[-1][2] = hi
                else:
                    merged.append([i, lo, hi])
            joined.append(merged)
        return joined

    return mutant


def first_groups_step_angles(noisy_apply_rows):
    """_noisy_apply_rows with every segment of a draw run at the step
    angles (T / 4, std w / 4) of the draw's first segment, repeated to
    the segment's own number of steps."""
    def mutant(strings, rows, ws):
        (_, x, y), _ = strings[0]
        return noisy_apply_rows([((first, np.resize(x, (len(first), 1)), np.resize(y, (len(first), 1))), u)
                                 for (first, _, _), u in strings], rows, ws)

    return mutant


# shared-draw mutants: each changes only a draw that holds more than one
# group, so the count-for-count test must see it at 400 shots, where the
# six groups share one draw
@pytest.mark.parametrize("preset", ["paper-2015", "stress"])
def test_step_run_across_axes_fails_the_scalar_test(preset, monkeypatch):
    # only the reverse order's mid strings change axis between neighbouring
    # groups at the same step (steps 0-2: b a b against a b a); forward, the
    # mutant leaves every count as it is
    monkeypatch.setattr(experiment, "_step_runs", runs_across_axes(experiment._step_runs))
    with pytest.raises(AssertionError):
        test_experiment.TestArrayKernel().test_counts_match_the_scalar_helpers(preset, 1, "reverse", monkeypatch)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
@pytest.mark.parametrize("preset", ["paper-2015", "stress"])
def test_first_groups_step_angles_everywhere_fail_the_scalar_test(preset, pair_order, monkeypatch):
    monkeypatch.setattr(experiment, "_noisy_apply_rows", first_groups_step_angles(experiment._noisy_apply_rows))
    with pytest.raises(AssertionError):
        test_experiment.TestArrayKernel().test_counts_match_the_scalar_helpers(preset, 1, pair_order, monkeypatch)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_swap_pulse_on_the_wrong_axis_fails_the_exact_gate(pair_order, monkeypatch):
    # the kernel's steps run the first pulse of a swap on axis "a"; the
    # memoised steps are dropped before and after, so none of the mutant's
    # outlive it. A wrong axis in pentagram.swap_pulses moves both backends
    # together; test_slots_read_their_cycle_states sees that one
    steps, swap = experiment._steps, swap_pulses()
    monkeypatch.setattr(
        experiment, "_steps",
        lambda pulses, std: steps((("a", math.pi),) + swap[1:] if pulses == swap else pulses, std),
    )
    experiment._program_steps.cache_clear()
    try:
        assert_both_gates_fail("paper-2015", pair_order)
    finally:
        experiment._program_steps.cache_clear()


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_discards_drawn_before_the_windows_fail_the_charge_tests(pair_order, monkeypatch):
    # the discard draw at the head of the group's stream, shifting every
    # window by the outputs it reads. That is exact in distribution, so
    # neither the exact gate nor the discard distribution can see it; the
    # charge tests do
    group_rng, run_protocol = experiment.group_rng, experiment.run_protocol

    def mutant(config):
        def discards_first(seed, group):
            rng = group_rng(seed, group)
            k = rng.negative_binomial(config.shots_per_term, config.noise.charge_good_prob)
            return types.SimpleNamespace(random=rng.random, negative_binomial=lambda n, p: k)

        with monkeypatch.context() as m:
            m.setattr(experiment, "group_rng", discards_first)
            return run_protocol(config)

    monkeypatch.setattr(test_experiment, "run_protocol", mutant)
    with pytest.raises(AssertionError):
        test_experiment.TestGroupRng().test_counts_do_not_depend_on_the_charge_check(pair_order)
    for p in (0.3, 0.97):
        with pytest.raises(AssertionError):
            test_experiment.TestChargeCheck().test_attempts_end_at_the_last_kept_window(p, monkeypatch)


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_discards_at_the_complement_probability_fail_the_discard_distribution_test(p, monkeypatch):
    # NB(shots, 1 - p): the passes counted as the failures
    group_rng = experiment.group_rng

    def complement(seed, group):
        rng = group_rng(seed, group)
        nb = rng.negative_binomial
        return types.SimpleNamespace(random=rng.random, negative_binomial=lambda n, q: nb(n, 1 - q))

    monkeypatch.setattr(experiment, "group_rng", complement)
    with pytest.raises(AssertionError):
        test_experiment.TestRunProtocol().test_discards_follow_the_negative_binomial(p)


def test_readout_polarity_ignored_fails_the_transposed_confusion_test(monkeypatch):
    # both backends read misassignment_probabilities, so no Monte
    # Carlo-against-exact gate can see this; the test reads the function
    # through its own module's name
    tails = model.misassignment_probabilities.__wrapped__
    monkeypatch.setattr(test_experiment, "misassignment_probabilities",
                        lambda noise: tails(dataclasses.replace(noise, bright_state_is_one=True)))
    with pytest.raises(AssertionError):
        test_experiment.TestSingleShotReadout().test_reverse_polarity_transposes_confusion()


def slots_reversed(programs, group):
    """The shot programs with one group's two slots exchanged."""
    prog = programs[group]
    return programs[:group] + (dataclasses.replace(prog, slots=prog.slots[::-1]),) + programs[group + 1:]


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_setting_slots_reversed_fail_the_geometric_slot_test(pair_order):
    # on ideal both marginals are 1/sqrt(5), so no value test sees these
    for group in range(5):
        with pytest.raises(AssertionError):
            test_experiment.assert_slots_read_their_states(slots_reversed(model.shot_programs(pair_order), group))


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_closing_slots_swapped_fail_the_paper_value_test(pair_order, monkeypatch):
    # l6 = l1 at gamma_0, so the geometric slot test cannot see this one
    programs = model.shot_programs
    for module in (model, test_experiment):
        monkeypatch.setattr(module, "shot_programs", lambda order: slots_reversed(programs(order), 5))
    with pytest.raises(AssertionError):
        test_experiment.TestExactTables().test_paper_preset_modified_value(
            pair_order, test_experiment.PAPER_MODIFIED[pair_order]
        )


def test_yaml_1_1_loader_fails_the_record_round_trip(tmp_path, monkeypatch):
    # plain SafeLoader reads the record's 1e-05 as a string, so the
    # record's own config block exits 2
    monkeypatch.setattr(config, "_Loader", yaml.SafeLoader)
    with pytest.raises(AssertionError):
        test_cli.assert_record_reruns(tmp_path, *test_cli.below_1e4_argv(tmp_path))
