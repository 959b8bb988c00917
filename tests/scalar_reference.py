"""The protocol one attempt at a time in numpy scalars: the reference that
the array kernel of kcbsim.experiment is checked against, count for count.
Each helper takes the uniforms of an attempt's window as an iterator and
reads, in the window's order, only those of the channels that are on, a
channel being on at a probability of at least ON: the window layout is
restated here, not read from the kernel. Each makes the kernel's
decisions. The arithmetic runs in the float type of the state it is
given: np.float32, as in the kernel, for the states that `initialize`
returns, and float64 for Python floats or complex kets. In float32 every
operation is the kernel's, in the kernel's order: the runs of same-axis
pulses merged into one rotation, each cosine and sine taken from one
tangent, the readout's |+1> population taken relative to the norm, and the
dark collapse's projection left unnormalised. numpy's float32 tan, log and sqrt give the same bits on a scalar as inside
an array (numpy 2.4.6 on x86-64 with AVX-512), so the count-for-count
tests hold by construction, not by the luck of no uniform landing within
rounding of its threshold."""

from __future__ import annotations

import math

import numpy as np

from kcbsim.model import NoiseModel
from kcbsim.qutrit import KET_MINUS, KET_PLUS, KET_ZERO

#: The least probability of a channel that reads uniforms: below it, u < p
#: could hold only at u = 0.0, since Generator.random draws multiples of it.
ON = 2.0**-53

_PLUS, _ZERO, _MINUS = (tuple(np.float32(x) for x in np.asarray(k).real) for k in (KET_PLUS, KET_ZERO, KET_MINUS))


def initialize(noise: NoiseModel, u):
    """Prepared float32 state: |+1> with probability 1 - init_error_prob,
    else |0> or |-1> with equal probability, from the next uniform of u;
    with init errors off, |+1> without reading one."""
    p = noise.init_error_prob
    if p < ON:
        return _PLUS
    u = next(u)
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
    Box-Muller pairs from the next normal_uniforms(runs) uniforms of u,
    read only when the noise is on."""
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
                r = np.sqrt(-2.0 * np.log(f(1.0 - next(u))))
                cos, sin = _cos_sin(f(math.pi * next(u)))  # half of 2 pi u'
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
    """One readout of the |+1> population of the real state psi from the
    next uniforms of u: Born, then flip with flips on, then assignment
    with a misassignment tail on. Readout 2 passes flip_prob 0: nothing
    collapses after it. Returns (assigned_bit, post_state), the post-state
    in psi's float type.

    The Born uniform draws the true outcome from the Born probability, the
    |+1> population relative to the norm, and sets the collapse: |+1>, or
    on the |0>, |-1> outcome the state projected there, (0, b, c), with
    the norm of the projection: the next readout divides by it. There, a
    flip uniform below flip_prob gives instead a nuclear flip: |0> below
    flip_prob / 2, else |-1>. The assignment uniform misassigns the bit
    with the Poisson tail probabilities `misassignment` =
    (P(assign 1 | true 0), P(assign 0 | true 1)) of the photon count, as
    misassignment_probabilities gives them.
    """
    a, b, c = psi
    one, zero = type(a)(1.0), type(a)(0.0)
    aa = a * a
    # float() keeps the comparison in float64: numpy compares a Python
    # float with an np.float32 in float32
    outcome = 1 if next(u) < float(aa / ((b * b + c * c) + aa)) else 0
    flip = next(u) if flip_prob >= ON else None
    bit = outcome
    if max(misassignment) >= ON and next(u) < misassignment[outcome]:
        bit = 1 - outcome
    if outcome:
        return bit, (one, zero, zero)
    if flip is not None and flip < flip_prob:
        return bit, ((zero, one, zero) if flip < 0.5 * flip_prob else (zero, zero, one))
    return bit, (zero, b, c)
