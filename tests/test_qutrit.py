import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from kcbsim.errors import NonFinite, NotUnit, ZeroVector
from kcbsim.qutrit import (
    KET_MINUS,
    KET_PLUS,
    KET_ZERO,
    as_direction,
    cartesian_embed,
    compose,
    dagger,
    fix_phase,
    make_state,
    rot_a,
    rot_b,
    spin_operators,
    states_equal_up_to_phase,
)

SQRT5 = math.sqrt(5.0)

angles_st = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def haar_state(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return z / np.linalg.norm(z)


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestMakeState:
    def test_basis_state(self):
        assert_allclose(make_state(1, 0, 0), KET_PLUS)

    def test_symmetry_axis_amplitudes_already_normalized(self):
        # 1/sqrt(5) + (1 - 2/sqrt(5)) + 1/sqrt(5) = 1
        psi = make_state(5**-0.25, math.sqrt(1 - 2 / SQRT5), 5**-0.25)
        assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)
        assert_allclose(psi[0], 5**-0.25, atol=1e-12)

    def test_normalizes_scaling(self):
        assert_allclose(make_state(2, 0, 0), KET_PLUS)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            make_state(0, 0, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            make_state(float("nan"), 0, 1)

    @pytest.mark.parametrize(
        "amps, expected",
        [
            ((1e308, 1e308, 0), (2**-0.5, 2**-0.5, 0)),
            # here the norm itself passes the float range, and abs() of the
            # amplitude raises OverflowError
            ((1.7e308 + 1.7e308j, 0, 0), ((1 + 1j) * 2**-0.5, 0, 0)),
        ],
    )
    def test_finite_amplitudes_whose_norm_overflows(self, amps, expected):
        # the squares of these amplitudes overflow, the norm must not
        assert_allclose(make_state(*amps), expected, rtol=0, atol=1e-15)


class TestRotations:
    def test_rot_a_zero_is_identity(self):
        assert_allclose(rot_a(0.0), np.eye(3), atol=1e-15)

    def test_rot_b_zero_is_identity(self):
        assert_allclose(rot_b(0.0), np.eye(3), atol=1e-15)

    def test_two_pi_pulse_flips_sign(self):
        # half-angle convention: a 2*pi pulse is -1 on the rotated block
        assert_allclose(np.asarray(rot_a(2 * math.pi)) @ KET_PLUS, -np.asarray(KET_PLUS), atol=1e-12)

    @given(angles_st)
    def test_rot_a_matches_its_generator_exponential(self, theta):
        # independent oracle: matrix exponential of the block generator
        gen = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
        assert_allclose(rot_a(theta), expm(0.5 * theta * gen), atol=1e-10)

    @given(angles_st)
    def test_rot_b_matches_its_generator_exponential(self, theta):
        gen = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=complex)
        assert_allclose(rot_b(theta), expm(0.5 * theta * gen), atol=1e-10)

    def test_pi_pulse_transfers_population(self):
        assert states_equal_up_to_phase(np.asarray(rot_a(math.pi)) @ KET_PLUS, KET_ZERO)
        assert states_equal_up_to_phase(np.asarray(rot_b(math.pi)) @ KET_ZERO, KET_MINUS)

    def test_rot_b_leaves_plus_alone(self):
        assert_allclose(np.asarray(rot_b(math.pi)) @ KET_PLUS, KET_PLUS, atol=1e-15)

    @given(angles_st)
    def test_inverse_pair(self, theta):
        assert_allclose(np.asarray(rot_a(theta)) @ rot_a(-theta), np.eye(3), atol=1e-12)
        assert_allclose(np.asarray(rot_b(theta)) @ rot_b(-theta), np.eye(3), atol=1e-12)

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(NonFinite):
            rot_a(float("inf"))
        with pytest.raises(NonFinite):
            rot_b(float("nan"))

    def test_norm_preserved_for_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi = haar_state(rng)
            out = np.asarray(rot_a(rng.uniform(-10, 10))) @ rot_b(rng.uniform(-10, 10)) @ psi
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestApplyCompose:
    def test_identity_apply(self):
        psi = make_state(0.3, 0.4j, 0.5)
        assert_allclose(np.eye(3) @ psi, psi)

    def test_pi_pulse_apply(self):
        assert states_equal_up_to_phase(np.asarray(rot_a(math.pi)) @ KET_PLUS, KET_ZERO)

    def test_swap_sends_plus_to_minus(self):
        u_swap = np.asarray(compose([rot_b(math.pi), rot_a(math.pi), rot_b(math.pi)]))
        assert states_equal_up_to_phase(u_swap @ KET_PLUS, KET_MINUS)
        assert states_equal_up_to_phase(u_swap @ KET_MINUS, KET_PLUS)

    def test_compose_identities(self):
        assert_allclose(compose([np.eye(3), np.eye(3)]), np.eye(3))
        g = 1.234
        assert_allclose(compose([rot_a(g), dagger(rot_a(g))]), np.eye(3), atol=1e-12)

    def test_compose_application_order(self):
        # first list entry acts first: compose([A, B]) == B @ A
        a, b = rot_a(0.7), rot_b(1.1)
        assert_allclose(compose([a, b]), np.asarray(b) @ a, atol=1e-15)

    def test_compose_empty_is_identity(self):
        # the empty product, as an immutable tuple of complex rows
        first = compose([])
        assert_array_equal(first, np.eye(3))
        assert isinstance(first, tuple) and all(isinstance(row, tuple) for row in first)
        assert all(type(x) is complex for row in first for x in row)


class TestSpinOperators:
    def test_sz_diagonal(self):
        _, _, sz = spin_operators()
        assert_allclose(np.diag(sz), [1, 0, -1])

    def test_commutator(self):
        sx, sy, sz = (np.asarray(s) for s in spin_operators())
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-14

    def test_casimir(self):
        sx, sy, sz = (np.asarray(s) for s in spin_operators())
        assert_allclose(sx @ sx + sy @ sy + sz @ sz, 2 * np.eye(3), atol=1e-14)


class TestCartesianEmbed:
    def test_z_axis_gives_zero_state(self):
        assert_allclose(cartesian_embed([0, 0, 1]), KET_ZERO, atol=1e-15)

    def test_x_axis(self):
        # oracle: the null eigenvector of S_x
        sx, _, _ = spin_operators()
        vals, vecs = np.linalg.eigh(np.asarray(sx))
        null = vecs[:, np.argmin(np.abs(vals))]
        assert states_equal_up_to_phase(cartesian_embed([1, 0, 0]), null, tol=1e-12)
        expected = (np.asarray(KET_MINUS) - KET_PLUS) / math.sqrt(2)
        assert states_equal_up_to_phase(cartesian_embed([1, 0, 0]), expected, tol=1e-12)

    def test_eigen_equation_residual(self):
        sx, sy, sz = (np.asarray(s) for s in spin_operators())
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = random_direction(rng)
            sn = n[0] * sx + n[1] * sy + n[2] * sz
            residual = np.max(np.abs(sn @ cartesian_embed(n)))
            assert residual < 1e-12

    def test_phase_canonical(self):
        psi = cartesian_embed(random_direction(np.random.default_rng(5)))
        k = np.argmax(np.abs(psi))
        assert psi[k].imag == pytest.approx(0.0, abs=1e-15)
        assert psi[k].real > 0

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            cartesian_embed([1, 1, 1])

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [[1.0, 0.0, 0.0]], ["x", 0.0, 0.0], 1.0])
    def test_direction_rejects_non_vectors(self, bad):
        with pytest.raises(NotUnit):
            as_direction(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_direction_rejects_non_finite(self, bad):
        # abs(nan - 1) > ATOL is False: a unit check of that form lets NaN by
        with pytest.raises(NonFinite):
            as_direction([bad, 0.0, 0.0])

    def test_embed_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            cartesian_embed([float("nan"), 0.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("inf"))])
    def test_fix_phase_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite):
            fix_phase([bad, 0.0, 0.0])

    def test_overlap_magnitude_is_direction_cosine(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n, m = random_direction(rng), random_direction(rng)
            got = abs(np.vdot(cartesian_embed(n), cartesian_embed(m)))
            assert got == pytest.approx(abs(float(n @ m)), abs=1e-12)

