import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kcbsim.kcbs import (
    NCHV_BOUND,
    TERM_NAMES,
    TermSet,
    assignment_value,
    exact_terms,
    kcbs_value,
    modified_assignment_value,
    modified_kcbs_value,
    nchv_bound,
    nchv_bound_modified,
    sequential_pair_probability,
)
from kcbsim.pentagram import build_psi0, build_pulse_quintuplet
from kcbsim.qutrit import KET_PLUS, KET_ZERO

SQRT5 = math.sqrt(5.0)


def haar_state(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return z / np.linalg.norm(z)


def make_terms(singles, pairs, correction_single, correction_pair):
    return TermSet(
        singles=np.asarray(singles, dtype=float),
        pairs=np.asarray(pairs, dtype=float),
        correction_single=correction_single,
        correction_pair=correction_pair,
    )


ZERO_TERMS = make_terms([0] * 5, [0] * 5, 0.0, 0.0)


class TestNumpyTermSets:
    def test_values_match_np_sum_bit_for_bit(self):
        # the Monte Carlo builds its TermSets on numpy arrays; built-in sum
        # adds five values in sequence, as np.sum does, so the records keep
        # the bits that np.sum gave them
        rng = np.random.default_rng(17)
        for _ in range(20_000):
            t = TermSet.from_vector(rng.random(12) * 10.0 ** rng.integers(-3, 4, 12))
            value = float(np.sum(t.singles) - np.sum(t.pairs))
            assert kcbs_value(t) == value
            assert modified_kcbs_value(t) == value - t.correction_single + t.correction_pair


class TestExactTerms:
    def test_symmetry_axis_state(self):
        terms = exact_terms(build_psi0(), build_pulse_quintuplet())
        assert_allclose(terms.singles, np.full(5, 1 / SQRT5), atol=1e-12)
        assert_allclose(terms.pairs, np.zeros(5), atol=1e-12)
        assert terms.correction_single == pytest.approx(1 / SQRT5, abs=1e-12)
        assert terms.correction_pair == pytest.approx(1 / SQRT5, abs=1e-12)

    def test_plus_state(self):
        terms = exact_terms(KET_PLUS, build_pulse_quintuplet())
        assert terms.singles[0] == pytest.approx(1.0, abs=1e-12)
        assert terms.pairs[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_state(self):
        terms = exact_terms(KET_ZERO, build_pulse_quintuplet())
        assert terms.singles[0] == pytest.approx(0.0, abs=1e-12)
        assert terms.singles[1] == pytest.approx(0.0, abs=1e-12)

    def test_term_dict_ordering(self):
        terms = exact_terms(build_psi0(), build_pulse_quintuplet())
        assert tuple(terms.as_dict()) == TERM_NAMES

    def test_frechet_bound(self):
        q = build_pulse_quintuplet()
        rng = np.random.default_rng(29)
        for _ in range(200):
            t = exact_terms(haar_state(rng), q)
            for i in range(5):
                assert t.pairs[i] <= min(t.singles[i], t.singles[(i + 1) % 5]) + 1e-9


class TestInequalityValues:
    def test_quantum_value_is_sqrt5(self):
        terms = exact_terms(build_psi0(), build_pulse_quintuplet())
        assert kcbs_value(terms) == pytest.approx(SQRT5, abs=1e-12)

    def test_zero_terms(self):
        assert kcbs_value(ZERO_TERMS) == 0.0
        assert modified_kcbs_value(ZERO_TERMS) == 0.0

    def test_classical_maximizer_arithmetic(self):
        t = make_terms([1, 0, 1, 0, 0], [0] * 5, 0.0, 0.0)
        assert kcbs_value(t) == pytest.approx(2.0)

    def test_modified_equals_plain_on_exact_terms(self):
        # closure makes the two correction terms cancel
        q = build_pulse_quintuplet()
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = exact_terms(haar_state(rng), q)
            assert modified_kcbs_value(t) == pytest.approx(kcbs_value(t), abs=1e-12)

    def test_reported_experimental_arithmetic(self):
        # a term set reproducing the reported headline number
        t = make_terms([0.44] * 5, [0.02] * 5, 0.43, 0.447)
        assert modified_kcbs_value(t) == pytest.approx(2.117, abs=1e-12)

    def test_quantum_maximum_over_random_states(self):
        q = build_pulse_quintuplet()
        rng = np.random.default_rng(37)
        best = 0.0
        for _ in range(1000):
            val = kcbs_value(exact_terms(haar_state(rng), q))
            best = max(best, val)
            assert val <= SQRT5 + 1e-9
        assert best > 2.0  # random states do wander past the classical bound


class TestSequentialPairs:
    def test_order_symmetric_for_orthogonal_pairs(self):
        q = build_pulse_quintuplet()
        rng = np.random.default_rng(41)
        for _ in range(100):
            psi = haar_state(rng)
            for i in range(5):
                forward = sequential_pair_probability(psi, q.states[i], q.states[i + 1])
                backward = sequential_pair_probability(psi, q.states[i + 1], q.states[i])
                assert forward == pytest.approx(0.0, abs=1e-12)
                assert backward == pytest.approx(0.0, abs=1e-12)

    def test_factorized_form(self):
        a = KET_PLUS
        b = (np.asarray(KET_PLUS) + np.asarray(KET_ZERO)) / math.sqrt(2)
        psi = KET_PLUS
        assert sequential_pair_probability(psi, a, b) == pytest.approx(0.5, abs=1e-12)


class TestClassicalBounds:
    def test_bound_is_two(self):
        best, argmax = nchv_bound()
        assert best == 2 == NCHV_BOUND
        assert (1, 0, 1, 0, 0) in argmax

    def test_all_ones_assignment(self):
        assert assignment_value((1, 1, 1, 1, 1)) == 0

    def test_every_nonadjacent_pair_maximizes(self):
        _, argmax = nchv_bound()
        for i, j in itertools.combinations(range(5), 2):
            if (j - i) % 5 in (1, 4):
                continue  # adjacent on the cycle
            v = [0] * 5
            v[i] = v[j] = 1
            assert tuple(v) in argmax

    def test_maximizers_verified_by_direct_formula(self):
        # independent recomputation of each reported maximizer
        _, argmax = nchv_bound()
        for v in argmax:
            s = sum(v)
            p = sum(v[k] * v[(k + 1) % 5] for k in range(5))
            assert s - p == 2

    def test_modified_bound_is_two(self):
        assert nchv_bound_modified() == 2 == NCHV_BOUND

    def test_modified_assignment_examples(self):
        # frozen from exhaustive enumeration
        assert modified_assignment_value((1, 0, 1, 0, 0), 1) == 2
        assert modified_assignment_value((1, 0, 1, 0, 0), 0) == 1
        assert modified_assignment_value((0, 0, 0, 0, 0), 1) == 0

    def test_modified_bound_enumeration_against_plain(self):
        # with the closing value forced equal to v1 the modified form
        # collapses to the plain one
        for v in itertools.product((0, 1), repeat=5):
            assert modified_assignment_value(v, v[0]) == assignment_value(v)
