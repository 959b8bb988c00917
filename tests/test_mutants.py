"""Standing mutants of the sampler. Each test breaks the kernel in one known
way with monkeypatch and asserts that the gate it names fails, through the
gate's own helper: a gate weakened later shows here as a mutant that
survives."""

import functools

import numpy as np
import pytest

from kcbsim import experiment
from test_experiment import assert_tables_pass_a_g_test, assert_terms_within_five_sigma, run_against_exact


def collapse(u, one, rows, flip_prob, zero_below=0.5, keep_plus=False):
    """_collapse_rows with a flip to |0> below zero_below * flip_prob (0.5
    is fair) and, with keep_plus, a dark outcome that keeps the |+1>
    amplitude instead of projecting it out."""
    a, b, c = rows[:3]
    flip = ~one & (u[1] < flip_prob)
    zero = flip & (u[1] < zero_below * flip_prob)
    kept = ~(one | flip)
    if keep_plus:
        a *= kept
        a += one
    else:
        np.copyto(a, one)
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
def test_flip_fixed_to_one_state_fails_the_exact_gate(pair_order, monkeypatch):
    # every flip to |0>, none to |-1>
    monkeypatch.setattr(experiment, "_collapse_rows", functools.partial(collapse, zero_below=1.0))
    assert_both_gates_fail("stress", pair_order)


def test_second_bit_inverted_after_a_dark_first_fails_the_g_test(monkeypatch):
    # b2 = np.where(b1, b2, ~b2) on paper-2015, where every cell is possible,
    # so the G statistic itself must catch it
    run_rows = experiment._run_rows

    def mutant(*args):
        b1, b2 = run_rows(*args)
        return b1, np.where(b1, b2, ~b2)

    monkeypatch.setattr(experiment, "_run_rows", mutant)
    res, tables = run_against_exact("paper-2015", "forward", seed=11)
    with pytest.raises(AssertionError):
        assert_tables_pass_a_g_test(res, tables)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_unfair_flip_pick_fails_the_exact_gate(pair_order, monkeypatch):
    # |0> on a quarter of the flips, |-1> on the rest
    monkeypatch.setattr(experiment, "_collapse_rows", functools.partial(collapse, zero_below=0.25))
    assert_both_gates_fail("stress", pair_order)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_dark_collapse_keeping_the_bright_amplitude_fails_the_exact_gate(pair_order, monkeypatch):
    monkeypatch.setattr(experiment, "_collapse_rows", functools.partial(collapse, keep_plus=True))
    assert_both_gates_fail("paper-2015", pair_order)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_swapped_misassignment_tails_fail_the_exact_gate(pair_order, monkeypatch):
    # only STRESS_DARK's tails differ enough to tell the two apart
    readout = experiment._readout_rows
    monkeypatch.setattr(experiment, "_readout_rows", lambda u, rows, tails: readout(u, rows, tails[::-1]))
    assert_both_gates_fail("stress-dark", pair_order)
