"""Construction of the five pentagram measurement states and the
symmetry-axis state, via two independent routes (pulse recipe and
Cartesian geometry) that must agree, and the pulse settings whose readout
slots measure them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import qutrit
from .errors import ClosureFailure, ConventionMismatch
from .qutrit import (
    GEOMETRY_ATOL,
    KET_MINUS,
    KET_PLUS,
    apply,
    compose,
    dagger,
    fix_phase,
    overlap,
    rot_a,
    rot_b,
)

SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class PentagramAngles:
    """The three pulse angles of the construction, in radians."""

    gamma: float  # arccos(2 - sqrt(5)); steps the basis cycle
    theta: float  # arccos(1 - 2/sqrt(5)); tilts onto the symmetry axis
    phi: float  # arccos((1 - sqrt(5))/2); final symmetry-axis azimuth


@dataclass(frozen=True)
class Quintuplet:
    """Ordered basis cycle l1..l6, l6 meant to close back onto l1. Only
    build_pulse_quintuplet checks that adjacent states are orthogonal and
    |<l6|l1>| = 1, within GEOMETRY_ATOL; pulse_cycle and
    build_cartesian_quintuplet return unchecked cycles."""

    states: tuple

    def __post_init__(self):
        if len(self.states) != 6:
            raise ValueError("a quintuplet carries six states (l6 closes the cycle)")


def angles() -> PentagramAngles:
    return PentagramAngles(
        gamma=math.acos(2.0 - SQRT5),
        theta=math.acos(1.0 - 2.0 / SQRT5),
        phi=math.acos((1.0 - SQRT5) / 2.0),
    )


def adjacency_defect(q: Quintuplet) -> float:
    """Largest |<l_i|l_{i+1}>| over the five adjacent pairs."""
    return max(abs(overlap(q.states[i], q.states[i + 1])) for i in range(5))


def closure_defect(q: Quintuplet) -> float:
    """Deviation of |<l6|l1>| from 1."""
    return abs(1.0 - abs(overlap(q.states[5], q.states[0])))


#: Cycle states read by the two readout slots of each setting: the first
#: readout on |+1>, the second on |-1> (after the population swap).
SLOT_TARGETS = ((1, 2), (3, 2), (3, 4), (5, 4), (5, 6))


def setting_pulses(gamma: float | None = None) -> tuple[tuple[tuple[str, float], ...], ...]:
    """Pulse strings of the five measurement settings, in application order.

    The settings walk the basis cycle: U_1 = identity and each next
    setting appends one more gamma pulse on alternating transitions,
    starting with 'a'. `gamma` overrides the closure angle.
    """
    g = angles().gamma if gamma is None else float(gamma)
    chain = (("a", g), ("b", g), ("a", g), ("b", g))
    return tuple(chain[:i] for i in range(5))


def swap_pulses() -> tuple[tuple[str, float], ...]:
    """Pulse string exchanging the |+1> and |-1> populations."""
    return (("b", math.pi), ("a", math.pi), ("b", math.pi))


def pulse_unitary(pulses) -> tuple:
    """Matrix of a pulse string given in application order."""
    ops = [rot_a(t) if ax == "a" else rot_b(t) for ax, t in pulses]
    return compose(ops)


def inverse(pulses) -> tuple[tuple[str, float], ...]:
    """Pulse string undoing `pulses`."""
    return tuple((ax, -t) for ax, t in reversed(pulses))


def _slot_states(gamma: float | None = None):
    """(k, U_i^dag |+-1>) for the ten readout slots, setting by setting."""
    for pulses, targets in zip(setting_pulses(gamma), SLOT_TARGETS):
        ud = dagger(pulse_unitary(pulses))
        for ket, k in zip((KET_PLUS, KET_MINUS), targets):
            yield k, apply(ud, ket)


def pulse_cycle(gamma: float | None = None) -> Quintuplet:
    """Basis cycle read off the settings, without any check.

    l_k is the state read by the first slot that targets it. With the
    gamma chain this is the recipe l1 = |+1>, l2 = |-1>, l3 = R_a(-g) l1,
    and each further state applies W = R_a(-g) R_b(-g) (R_b first) to the
    state two steps back.
    """
    states = {}
    for k, state in _slot_states(gamma):
        states.setdefault(k, state)
    return Quintuplet(states=tuple(states[k] for k in range(1, 7)))


def slot_defect(q: Quintuplet) -> float:
    """Largest deviation of |<U_i^dag|+-1>|l_k>| from 1 over the ten
    readout slots, l_k being the state the slot is meant to read."""
    return max(abs(1.0 - abs(overlap(state, q.states[k - 1]))) for k, state in _slot_states())


def build_pulse_quintuplet(gamma: float | None = None) -> Quintuplet:
    """Basis cycle from the pulse recipe (`pulse_cycle`), checked.

    With g = arccos(2 - sqrt(5)) the cycle closes: l6 = l1. `gamma`
    overrides the closure angle (testing hook); any override that breaks
    closure beyond 1e-10 raises ClosureFailure.
    """
    g = angles().gamma if gamma is None else float(gamma)
    q = pulse_cycle(g)
    if closure_defect(q) > GEOMETRY_ATOL:
        raise ClosureFailure(
            f"|<l6|l1>| deviates from 1 by {closure_defect(q):.3e} "
            f"(gamma = {g!r})"
        )
    if adjacency_defect(q) > GEOMETRY_ATOL:
        raise ClosureFailure(
            f"adjacent states not orthogonal, max overlap {adjacency_defect(q):.3e}"
        )
    return q


def pentagram_directions() -> list[tuple[float, float, float]]:
    """Five unit vectors at the vertices of the regular pentagram.

    All make angle alpha with +z where cos^2(alpha) = 1/sqrt(5); the
    azimuthal step is 4*pi/5 so that consecutive directions (pentagram
    order, not pentagon order) are orthogonal.
    """
    cos_alpha = 5.0 ** -0.25
    sin_alpha = math.sqrt(1.0 - 1.0 / SQRT5)
    dirs = []
    for j in range(1, 6):
        az = 4.0 * math.pi * j / 5.0
        dirs.append((sin_alpha * math.cos(az), sin_alpha * math.sin(az), cos_alpha))
    return dirs


def build_cartesian_quintuplet() -> tuple[list[tuple[float, float, float]], Quintuplet]:
    """Pentagram directions plus their m = 0 embeddings (l6 := l1)."""
    dirs = pentagram_directions()
    states = [qutrit.cartesian_embed(n) for n in dirs]
    states.append(states[0])
    return dirs, Quintuplet(states=tuple(states))


def psi0_pulses() -> tuple[tuple[str, float], ...]:
    """Pulse sequence (in application order) preparing the symmetry-axis
    state from |+1>."""
    ang = angles()
    return (("a", -math.pi), ("b", -ang.theta), ("a", ang.phi))


def build_psi0() -> tuple:
    """Symmetry-axis state of the pentagram.

    Built both from its explicit amplitudes
    (5^(-1/4), sqrt(1 - 2/sqrt(5)), 5^(-1/4)) and from the pulse sequence
    R_a(phi) R_b(-theta) R_a(-pi) |+1>; raises ConventionMismatch when the
    two disagree beyond a global phase (which would indicate a rotation
    sign bug).
    """
    coeff = qutrit.make_state(5.0 ** -0.25, math.sqrt(1.0 - 2.0 / SQRT5), 5.0 ** -0.25)
    pulsed = apply(pulse_unitary(psi0_pulses()), KET_PLUS)
    if not qutrit.states_equal_up_to_phase(coeff, pulsed):
        raise ConventionMismatch(
            "pulse-built symmetry-axis state disagrees with its explicit "
            f"amplitudes: |<coeff|pulsed>| = {abs(overlap(coeff, pulsed)):.12f}"
        )
    return fix_phase(coeff)


def gram(states) -> tuple[tuple[float, ...], ...]:
    """Matrix of overlap magnitudes |<s_i|s_j>|, as rows of tuples."""
    states = list(states)
    if not states:
        raise ValueError("gram of an empty state list")
    return tuple(tuple(abs(overlap(a, b)) for b in states) for a in states)
