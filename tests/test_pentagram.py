import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from kcbsim.errors import ClosureFailure, ConventionMismatch
from kcbsim.model import shot_programs
from kcbsim.pentagram import (
    SLOT_TARGETS,
    Quintuplet,
    adjacency_defect,
    angles,
    build_cartesian_quintuplet,
    build_psi0,
    build_pulse_quintuplet,
    closure_defect,
    gram,
    inverse,
    pentagram_directions,
    pulse_unitary,
    setting_pulses,
    slot_defect,
)
from kcbsim.qutrit import (
    KET_MINUS,
    KET_PLUS,
    dagger,
    overlap,
    spin_operators,
    states_equal_up_to_phase,
)

SQRT5 = math.sqrt(5.0)
GOLDEN_CONJ = (SQRT5 - 1.0) / 2.0  # = 0.6180339887...


def test_angle_identities():
    ang = angles()
    assert math.cos(ang.gamma) == pytest.approx(2.0 - SQRT5, abs=1e-15)
    assert math.cos(ang.theta) == pytest.approx(1.0 - 2.0 / SQRT5, abs=1e-15)
    assert math.cos(ang.phi) == pytest.approx((1.0 - SQRT5) / 2.0, abs=1e-15)


def test_angle_values_in_radians():
    # recomputed from the closed forms
    ang = angles()
    assert ang.gamma == pytest.approx(1.8091137886, abs=1e-9)
    assert ang.theta == pytest.approx(1.4650264152, abs=1e-9)
    assert ang.phi == pytest.approx(2.2370357593, abs=1e-9)


class TestPulseQuintuplet:
    def test_first_two_states(self):
        q = build_pulse_quintuplet()
        assert_allclose(q.states[0], KET_PLUS)
        assert_allclose(q.states[1], KET_MINUS)

    def test_l1_l3_overlap_is_golden(self):
        q = build_pulse_quintuplet()
        assert abs(overlap(q.states[0], q.states[2])) == pytest.approx(
            GOLDEN_CONJ, abs=1e-12
        )

    def test_cycle_closes(self):
        q = build_pulse_quintuplet()
        assert states_equal_up_to_phase(q.states[5], q.states[0], tol=1e-10)

    def test_adjacent_orthogonality(self):
        assert adjacency_defect(build_pulse_quintuplet()) < 1e-10

    def test_closure_defect_tiny(self):
        assert closure_defect(build_pulse_quintuplet()) < 1e-10

    def test_wrong_angle_raises(self):
        with pytest.raises(ClosureFailure):
            build_pulse_quintuplet(gamma=math.acos(-0.5))

    def test_small_angle_error_still_raises(self):
        with pytest.raises(ClosureFailure):
            build_pulse_quintuplet(gamma=angles().gamma + 0.01)


class TestReadoutSlots:
    def test_slot_targets_follow_floor_formula(self):
        # setting i reads l_{2 floor(i/2) + 1} on |+1>, l_{2 floor((i+1)/2)} on |-1>
        formula = tuple((2 * (i // 2) + 1, 2 * ((i + 1) // 2)) for i in range(1, 6))
        assert SLOT_TARGETS == formula == ((1, 2), (3, 2), (3, 4), (5, 4), (5, 6))

    def test_setting_unitaries_map_onto_cycle_states(self):
        q = build_pulse_quintuplet()
        for pulses, (first, second) in zip(setting_pulses(), SLOT_TARGETS):
            ud = np.asarray(dagger(pulse_unitary(pulses)))
            assert states_equal_up_to_phase(ud @ KET_PLUS, q.states[first - 1])
            assert states_equal_up_to_phase(ud @ KET_MINUS, q.states[second - 1])

    def test_first_setting_is_identity(self):
        settings = setting_pulses()
        assert settings[0] == ()
        assert_allclose(pulse_unitary(settings[0]), np.eye(3))
        # each further setting appends one gamma pulse, alternating a and b
        g = angles().gamma
        assert settings[4] == (("a", g), ("b", g), ("a", g), ("b", g))
        for pulses in settings:
            assert_allclose(pulse_unitary(pulses + inverse(pulses)), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("pair_order", ["forward", "reverse"])
    def test_shot_program_unitaries_match_numpy_exponentials(self, pair_order):
        # an oracle outside the plain-Python algebra: float64 numpy products
        # of the generators' matrix exponentials, in application order
        generators = {
            "a": np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float),
            "b": np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float),
        }
        for prog in shot_programs(pair_order):
            for pulses in (prog.pre_pulses, prog.mid_pulses):
                expected = np.eye(3)
                for axis, t in pulses:
                    expected = expm(0.5 * t * generators[axis]) @ expected
                got = np.asarray(pulse_unitary(pulses))
                assert np.max(np.abs(got - expected)) < 1e-12, pulses

    def test_shuffled_cycle_has_slot_defect(self):
        q = build_pulse_quintuplet()
        assert slot_defect(q) < 1e-10
        shuffled = Quintuplet(
            states=(q.states[0], q.states[1], q.states[3], q.states[2], q.states[4], q.states[5])
        )
        assert slot_defect(shuffled) > 0.1


class TestCartesianQuintuplet:
    def test_adjacent_directions_orthogonal(self):
        dirs = pentagram_directions()
        for i in range(5):
            assert float(np.asarray(dirs[i]) @ dirs[(i + 1) % 5]) == pytest.approx(0.0, abs=1e-12)

    def test_axis_overlap(self):
        # every vertex makes the same angle with the symmetry axis
        for n in pentagram_directions():
            assert float(n[2]) == pytest.approx(5.0**-0.25, abs=1e-12)

    def test_next_nearest_overlap_is_golden(self):
        dirs = pentagram_directions()
        for i in range(5):
            assert float(np.asarray(dirs[i]) @ dirs[(i + 2) % 5]) == pytest.approx(
                GOLDEN_CONJ, abs=1e-12
            )

    def test_embedded_states_adjacent_orthogonal(self):
        _, q = build_cartesian_quintuplet()
        assert adjacency_defect(q) < 1e-12
        assert closure_defect(q) < 1e-12


class TestPsi0:
    def test_amplitudes(self):
        psi0 = build_psi0()
        expected = np.array([0.6687403050, 0.3249196962, 0.6687403050])
        assert_allclose(np.abs(psi0), expected, atol=1e-9)

    def test_overlap_with_every_cycle_state(self):
        psi0 = build_psi0()
        q = build_pulse_quintuplet()
        for state in q.states[:5]:
            assert abs(overlap(state, psi0)) ** 2 == pytest.approx(1 / SQRT5, abs=1e-10)

    def test_zero_z_polarization(self):
        psi0 = build_psi0()
        _, _, sz = spin_operators()
        assert np.vdot(psi0, np.asarray(sz) @ psi0) == pytest.approx(0.0, abs=1e-12)

    def test_sequential_pair_expectations_vanish(self):
        # <psi0| L_i L_{i+1} |psi0> via the operator product
        psi0 = build_psi0()
        q = build_pulse_quintuplet()
        for i in range(5):
            val = overlap(psi0, q.states[i]) * overlap(q.states[i], q.states[i + 1]) * overlap(
                q.states[i + 1], psi0
            )
            assert abs(val) < 1e-10

    def test_cartesian_symmetry_axis_pairing(self):
        # the z-axis embedding plays psi0 for the Cartesian construction
        from kcbsim.qutrit import cartesian_embed

        psi0c = cartesian_embed([0.0, 0.0, 1.0])
        _, qc = build_cartesian_quintuplet()
        for state in qc.states[:5]:
            assert abs(overlap(state, psi0c)) ** 2 == pytest.approx(1 / SQRT5, abs=1e-10)


class TestGram:
    def test_orthonormal_basis(self):
        assert_allclose(gram([KET_PLUS, KET_MINUS]), np.eye(2), atol=1e-15)

    def test_diagonal_is_one(self):
        q = build_pulse_quintuplet()
        assert_allclose(np.diag(gram(q.states[:5])), np.ones(5), atol=1e-12)

    def test_pulse_and_cartesian_grams_agree(self):
        qp = build_pulse_quintuplet()
        _, qc = build_cartesian_quintuplet()
        gp = gram(qp.states[:5])
        gc = gram(qc.states[:5])
        assert np.max(np.abs(np.asarray(gp) - np.asarray(gc))) < 1e-10

    def test_gram_structure(self):
        # 5-cycle: adjacent entries vanish, next-nearest are golden
        g = gram(build_pulse_quintuplet().states[:5])
        for i in range(5):
            assert g[i][(i + 1) % 5] == pytest.approx(0.0, abs=1e-10)
            assert g[i][(i + 2) % 5] == pytest.approx(GOLDEN_CONJ, abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram([])


def test_psi0_two_constructions_agree():
    # would raise ConventionMismatch on a sign bug
    psi0 = build_psi0()
    assert np.linalg.norm(psi0) == pytest.approx(1.0, abs=1e-12)


def test_convention_mismatch_is_detectable():
    # a deliberately wrong pulse state fails the up-to-phase comparison,
    # which is what build_psi0 guards against
    coeff = np.array([0.6687403050, 0.3249196962, 0.6687403050], dtype=complex)
    wrong = np.array([0.6687403050, -0.3249196962, 0.6687403050], dtype=complex)
    assert not states_equal_up_to_phase(coeff, wrong)
    assert issubclass(ConventionMismatch, Exception)
