"""The protocol one attempt at a time in numpy scalars: the reference that
the array kernel of kcbsim.experiment is checked against, count for count.
Each helper reads the same uniforms of an attempt's window as the kernel
and makes the same decisions. The arithmetic runs in the float type of the
state it is given: np.float32, as in the kernel, for the states that
`initialize` returns, and float64 for Python floats or complex kets. In
float32 every operation is the kernel's, in the kernel's order: the runs of
same-axis pulses merged into one rotation, each cosine and sine taken from
one tangent, and the readout's |+1> population taken relative to the norm.
numpy's float32 tan, log and sqrt give the same bits on a scalar as inside
an array (numpy 2.4.6 on x86-64 with AVX-512), so the count-for-count
tests hold by construction, not by the luck of no uniform landing within
rounding of its threshold."""

from __future__ import annotations

import math

import numpy as np

from kcbsim.model import NoiseModel
from kcbsim.qutrit import KET_MINUS, KET_PLUS, KET_ZERO

_PLUS, _ZERO, _MINUS = (tuple(np.float32(x) for x in k.real) for k in (KET_PLUS, KET_ZERO, KET_MINUS))


def initialize(noise: NoiseModel, u: float):
    """Prepared float32 state from one uniform: |+1> with probability
    1 - init_error_prob, else |0> or |-1> with equal probability."""
    p = noise.init_error_prob
    if u < 1.0 - p:
        return _PLUS
    if u < 1.0 - p / 2.0:
        return _ZERO
    return _MINUS


def _cos_sin(half):
    """cos(x) and sin(x) from tau = tan(x / 2), half = x / 2, in half's
    float type."""
    tau = np.tan(half)
    tt = tau * tau
    d = 1.0 + tt
    return (1.0 - tt) / d, (tau + tau) / d


def noisy_apply(pulses, noise: NoiseModel, u, psi):
    """Apply a pulse string (application order) to a real state with
    multiplicative angle noise. Each run of same-axis neighbours, angles
    t_1..t_k, is one rotation of angle T = sum t_i that runs at
    T + std * w * e, w = sqrt(sum t_i^2): the sum of the pulses' own angle
    errors t_i * std * e_i in distribution. The normals e come in
    Box-Muller pairs from the uniforms u, normal_uniforms(runs) of them,
    drawn only when the noise is on."""
    a, b, c = psi
    f = type(a.real)
    std = noise.pulse_angle_error_std
    runs = []
    for axis, t in pulses:
        if runs and runs[-1][0] == axis:
            runs[-1][1].append(t)
        else:
            runs.append((axis, [t]))
    for k, (axis, ts) in enumerate(runs):
        quarter = f(0.25 * sum(ts))
        if std > 0.0:
            if k % 2 == 0:
                r = np.sqrt(-2.0 * np.log(f(1.0 - u[k])))
                cos, sin = _cos_sin(f(math.pi * u[k + 1]))  # half of 2 pi u'
                e = r * cos
            else:
                e = r * sin
            quarter = quarter + f(0.25 * std * math.hypot(*ts)) * e
        ch, sh = _cos_sin(quarter)
        if axis == "a":
            a, b = ch * a + sh * b, ch * b - sh * a
        else:
            b, c = ch * b + sh * c, ch * c - sh * b
    return a, b, c


def single_shot_readout(psi, u, misassignment: tuple[float, float], flip_prob: float):
    """One readout of the |+1> population of the real state psi from
    READOUT_UNIFORMS uniforms. Returns (assigned_bit, post_state), the
    post-state in psi's float type.

    u[0] draws the true outcome from the Born probability, the |+1>
    population relative to the norm, and sets the collapse: |+1>, or on
    the |0>, |-1> outcome the state projected there and normalised. There,
    u[1] < flip_prob gives instead a nuclear flip: |0> where
    u[1] < flip_prob / 2, else |-1>. u[2] misassigns the bit with the
    Poisson tail probabilities `misassignment` = (P(assign 1 | true 0),
    P(assign 0 | true 1)) of the photon count, as
    misassignment_probabilities gives them.
    """
    a, b, c = psi
    one, zero = type(a)(1.0), type(a)(0.0)
    aa = a * a
    # float() keeps the comparison in float64: numpy compares a Python
    # float with an np.float32 in float32
    if u[0] < float(aa / ((b * b + c * c) + aa)):
        return (0 if u[2] < misassignment[1] else 1), (one, zero, zero)
    bit = 1 if u[2] < misassignment[0] else 0
    if u[1] < flip_prob:
        return bit, ((zero, one, zero) if u[1] < 0.5 * flip_prob else (zero, zero, one))
    rest = np.sqrt(b * b + c * c)
    return bit, (zero, b / rest, c / rest)
