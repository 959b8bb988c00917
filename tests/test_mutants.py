"""Standing mutants of the sampler. Each test breaks the kernel in one known
way with monkeypatch and asserts that the gate it names fails, through the
gate's own helper: a gate weakened later shows here as a mutant that
survives."""

import numpy as np
import pytest

from kcbsim import experiment
from test_experiment import assert_tables_pass_a_g_test, assert_terms_within_five_sigma, run_against_exact


def collapse_every_flip_to_zero(u, one, rows, flip_prob):
    """_collapse_rows with the flip target fixed to |0>: the flip no longer
    picks |-1> at all."""
    a, b, c = rows[:3]
    flip = ~one & (u[1] < flip_prob)
    replaced = one | flip
    np.copyto(a, one)
    np.copyto(b, flip, where=replaced)
    np.copyto(c, False, where=replaced)


@pytest.mark.parametrize("pair_order", ["forward", "reverse"])
def test_flip_fixed_to_one_state_fails_the_exact_gate(pair_order, monkeypatch):
    monkeypatch.setattr(experiment, "_collapse_rows", collapse_every_flip_to_zero)
    res, tables = run_against_exact("stress", pair_order, seed=11)
    with pytest.raises(AssertionError):
        assert_tables_pass_a_g_test(res, tables)
    with pytest.raises(AssertionError):
        assert_terms_within_five_sigma(res, tables, pair_order)


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
