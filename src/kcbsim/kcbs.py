"""Exact evaluation of the five-cycle noncontextuality inequality and
brute-force certification of the noncontextual bound."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pentagram import Quintuplet
from .qutrit import overlap

#: Order of the twelve estimated terms: five singles, five sequential
#: pairs, the remeasured first single, and the closing sequential pair.
TERM_NAMES = (
    "L1", "L2", "L3", "L4", "L5",
    "L1L2", "L2L3", "L3L4", "L4L5", "L5L6",
    "L1c", "L1pL1",
)
#: The noncontextual (classical) bound of both inequalities, the maximum
#: that nchv_bound and nchv_bound_modified certify.
NCHV_BOUND = 2


@dataclass(frozen=True)
class TermSet:
    """Per-term values (expectations, estimates, or standard errors)."""

    singles: np.ndarray  # <L1>..<L5>
    pairs: np.ndarray  # <L1 L2>..<L5 L6>
    correction_single: float  # <L1> remeasured
    correction_pair: float  # <L1' L1>, L1' being the closing state l6

    @classmethod
    def from_vector(cls, values) -> TermSet:
        """TermSet from twelve values in TERM_NAMES order."""
        return cls(
            singles=values[0:5],
            pairs=values[5:10],
            correction_single=float(values[10]),
            correction_pair=float(values[11]),
        )

    def as_dict(self) -> dict[str, float]:
        values = list(self.singles) + list(self.pairs)
        values += [self.correction_single, self.correction_pair]
        return {name: float(v) for name, v in zip(TERM_NAMES, values)}


def sequential_pair_probability(psi, first, second) -> float:
    """P(first outcome 1, then second outcome 1) under the projection rule.

    After the first projector fires, the state is exactly |first>, so the
    joint probability factorizes as |<first|psi>|^2 |<second|first>|^2.
    """
    return abs(overlap(first, psi)) ** 2 * abs(overlap(second, first)) ** 2


def exact_terms(psi: np.ndarray, q: Quintuplet) -> TermSet:
    """Exact quantum values of all twelve terms for state psi.

    Singles are Born probabilities |<l_i|psi>|^2; pairs are sequential
    joint probabilities with the earlier-indexed observable measured
    first; the correction terms reuse the closing state l6 in the role of
    the remeasured first observable.
    """
    singles = np.array([abs(overlap(q.states[i], psi)) ** 2 for i in range(5)])
    pairs = np.array(
        [sequential_pair_probability(psi, q.states[i], q.states[i + 1]) for i in range(5)]
    )
    correction_single = abs(overlap(q.states[0], psi)) ** 2
    correction_pair = sequential_pair_probability(psi, q.states[5], q.states[0])
    return TermSet(
        singles=singles,
        pairs=pairs,
        correction_single=float(correction_single),
        correction_pair=float(correction_pair),
    )


def kcbs_value(t: TermSet) -> float:
    """Sum of singles minus sum of sequential pairs."""
    return float(np.sum(t.singles) - np.sum(t.pairs))


def modified_kcbs_value(t: TermSet) -> float:
    """Five-cycle value corrected for an imperfectly closing cycle:
    subtract the remeasured first single, add the closing pair."""
    return kcbs_value(t) - t.correction_single + t.correction_pair


def assignment_value(v) -> int:
    """Inequality left-hand side for one deterministic 0/1 assignment
    (v6 identified with v1)."""
    s = sum(v)
    p = sum(v[i] * v[(i + 1) % 5] for i in range(5))
    return s - p


def modified_assignment_value(v, v1_prime: int) -> int:
    """Modified left-hand side where the closing observable carries its
    own predetermined value v1_prime (v6 := v1_prime in the pair chain)."""
    s = sum(v)
    p = sum(v[i] * v[i + 1] for i in range(4)) + v[4] * v1_prime
    return s - p - v[0] + v1_prime * v[0]


def nchv_bound() -> tuple[int, list[tuple[int, ...]]]:
    """Maximum of the inequality over all 2^5 deterministic assignments,
    together with every maximizing assignment. The maximum is 2."""
    best = -(10**9)
    argmax: list[tuple[int, ...]] = []
    for v in itertools.product((0, 1), repeat=5):
        val = assignment_value(v)
        if val > best:
            best, argmax = val, [v]
        elif val == best:
            argmax.append(v)
    return best, argmax


def nchv_bound_modified() -> int:
    """Maximum of the modified inequality over all 2^6 assignments
    (v1..v5 plus the independent closing value). The maximum is 2."""
    return max(
        modified_assignment_value(v, vp)
        for v in itertools.product((0, 1), repeat=5)
        for vp in (0, 1)
    )
