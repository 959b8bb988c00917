"""The protocol one attempt at a time in plain Python floats: the reference
that the array kernel of kcbsim.experiment is checked against, count for
count. Each helper reads the same uniforms of an attempt's window as the
kernel and makes the same decisions. The arithmetic differs in one place:
the kernel gets each cosine and sine from one tangent (experiment._cos_sin),
while these helpers call math.cos and math.sin. The two agree to about
1e-16, so the count-for-count tests check the tangent route against libm
trigonometry as well as the kernel's bookkeeping."""

from __future__ import annotations

import math

from kcbsim.experiment import NoiseModel
from kcbsim.qutrit import KET_MINUS, KET_PLUS, KET_ZERO

_TWO_PI = 2.0 * math.pi
_PLUS, _ZERO, _MINUS = (tuple(map(float, k.real)) for k in (KET_PLUS, KET_ZERO, KET_MINUS))


def initialize(noise: NoiseModel, u: float) -> tuple[float, float, float]:
    """Prepared state from one uniform: |+1> with probability
    1 - init_error_prob, else |0> or |-1> with equal probability."""
    p = noise.init_error_prob
    if u < 1.0 - p:
        return _PLUS
    if u < 1.0 - p / 2.0:
        return _ZERO
    return _MINUS


def noisy_apply(pulses, noise: NoiseModel, u, psi):
    """Apply a pulse string (application order) to a real state with
    multiplicative angle noise: pulse k runs at angle * (1 + std * e_k),
    the normals e_k coming in Box-Muller pairs from the uniforms u
    (normal_uniforms(len(pulses)) of them, drawn only when the noise is on)."""
    a, b, c = psi
    std = noise.pulse_angle_error_std
    for k, (axis, t) in enumerate(pulses):
        if std > 0.0:
            if k % 2 == 0:
                r = math.sqrt(-2.0 * math.log(1.0 - u[k]))
                phi = _TWO_PI * u[k + 1]
                e = r * math.cos(phi)
            else:
                e = r * math.sin(phi)
            t *= 1.0 + std * e
        ch = math.cos(0.5 * t)
        sh = math.sin(0.5 * t)
        if axis == "a":
            a, b = ch * a + sh * b, -sh * a + ch * b
        else:
            b, c = ch * b + sh * c, -sh * b + ch * c
    return a, b, c


def single_shot_readout(psi, u, misassignment: tuple[float, float], flip_prob: float):
    """One readout of the |+1> population of the real state psi from
    READOUT_UNIFORMS uniforms. Returns (assigned_bit, post_state).

    u[0] draws the true outcome from the Born probability and sets the
    collapse: |+1>, or on the |0>, |-1> outcome the state projected there
    and normalised. There, u[1] < flip_prob gives instead a nuclear flip:
    |0> where u[1] < flip_prob / 2, else |-1>. u[2] misassigns the bit with
    the Poisson tail probabilities `misassignment` = (P(assign 1 | true 0),
    P(assign 0 | true 1)) of the photon count, as
    misassignment_probabilities gives them.
    """
    a, b, c = psi
    if u[0] < a * a:
        return (0 if u[2] < misassignment[1] else 1), _PLUS
    bit = 1 if u[2] < misassignment[0] else 0
    if u[1] < flip_prob:
        return bit, (_ZERO if u[1] < 0.5 * flip_prob else _MINUS)
    rest = math.sqrt(b * b + c * c)
    return bit, (0.0, b / rest, c / rest)
