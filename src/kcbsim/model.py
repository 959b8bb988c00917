"""The sequential single-shot protocol and what it should give: the noise
model and run configuration, the shot programs (pulse schedules and readout
slots), their exact expectation exact_tables, and the ExperimentResult of
count tables. kcbsim.experiment samples the same shot programs."""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, InsufficientData
from .kcbs import NCHV_BOUND, TERM_NAMES, TermSet, kcbs_value, modified_kcbs_value
from .pentagram import SLOT_TARGETS, inverse, psi0_pulses, setting_pulses, swap_pulses

#: Largest accepted mean photon count; it bounds the Poisson window that
#: misassignment_probabilities sums (about 7.6e5 terms).
LAMBDA_MAX = 1e9
#: Most expected attempts of a group.
MAX_ATTEMPTS = 1e8
#: Shows a rejected value in its ConfigError, cut below two levels of nesting.
_REJECTED = reprlib.Repr()
_REJECTED.maxlevel = 2


def _rejected_number(v) -> str:
    """A rejected number shown in its ConfigError. A string that float()
    reads gets a hint: PyYAML reads YAML 1.1, where 1e9 and 1.0e9 are
    strings and only 1.0e+9 is a float."""
    shown = _REJECTED.repr(v)
    if isinstance(v, str):
        try:
            float(v)
        except ValueError:
            return shown
        shown += " (a string: YAML 1.1 reads a float as 1.0e+9 and an integer in digits)"
    return shown


def _finite(v: Real) -> bool:
    """True for a number with a finite float value; an integer too large
    for a float is not finite."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class NoiseModel:
    """Error channels of the simulated protocol.

    pulse_angle_error_std: each pulse angle t is executed as t*(1+e) with
        e drawn fresh per pulse from N(0, std^2); std lies in [0, 1], at
        most 100 % relative jitter.
    init_error_prob: probability the prepared state is |0> or |-1>
        (split evenly) instead of |+1>.
    lambda_bright / lambda_dark: mean photon counts of the two readout
        outcomes, each in [0, LAMBDA_MAX].
    readout_threshold: counts strictly above it assign the bright outcome.
    nuclear_flip_prob: probability per dark readout outcome that the
        post-measurement state is replaced by a uniformly random state of
        the |0>, |-1> subspace. Only a later readout's Born probability sees
        that state, and it is linear in the state's density matrix, whose
        mean is (|0><0| + |-1><-1|) / 2. So the flip picks |0> or |-1> with
        equal chances: every later outcome keeps its distribution.
    charge_good_prob: probability a shot passes the charge-state check.
    bright_state_is_one: polarity flag; when False the |+1> outcome is the
        dark one and the threshold decision is inverted.
    """

    pulse_angle_error_std: float = 0.0
    init_error_prob: float = 0.0
    lambda_bright: float = 100.0
    lambda_dark: float = 0.0
    readout_threshold: int = 10
    nuclear_flip_prob: float = 0.0
    charge_good_prob: float = 1.0
    bright_state_is_one: bool = True

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "bright_state_is_one":
                if not isinstance(v, bool):
                    raise ConfigError(f"{f.name} must be true or false, got {_REJECTED.repr(v)}")
            elif isinstance(v, bool) or not isinstance(v, Real) or not _finite(v):
                raise ConfigError(f"{f.name} must be a finite number, got {_rejected_number(v)}")
        probabilities = ("init_error_prob", "nuclear_flip_prob", "charge_good_prob")
        for name in ("pulse_angle_error_std", *probabilities):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v!r}")
        for name in ("lambda_bright", "lambda_dark"):
            v = getattr(self, name)
            if not (0.0 <= v <= LAMBDA_MAX):
                raise ConfigError(f"{name} must lie in [0, {LAMBDA_MAX:.0e}], got {v!r}")
        v = self.readout_threshold
        if int(v) != v or v < 0:
            raise ConfigError(f"readout_threshold must be an integer >= 0, got {v!r}")
        object.__setattr__(self, "readout_threshold", int(v))  # normalize integral floats


@dataclass(frozen=True)
class RunConfig:
    """Full description of one protocol run. A run is refused when its
    expected attempts per group, shots_per_term / charge_good_prob, exceed
    MAX_ATTEMPTS; at charge_good_prob 0, run_protocol raises InsufficientData
    before any draw instead."""

    seed: int = 0
    shots_per_term: int = 10_000
    noise: NoiseModel = field(default_factory=NoiseModel)
    pair_order: str = "forward"

    def __post_init__(self):
        for name in ("seed", "shots_per_term"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ConfigError(f"{name} must be an integer, got {_rejected_number(v)}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not 1 <= self.shots_per_term <= MAX_ATTEMPTS:
            raise ConfigError(f"shots_per_term must lie in [1, {MAX_ATTEMPTS:.0e}]")
        if self.pair_order not in ("forward", "reverse"):
            raise ConfigError("pair_order must be 'forward' or 'reverse'")
        p, s = self.noise.charge_good_prob, self.shots_per_term
        if p and s / p > MAX_ATTEMPTS:  # the quotient: s > MAX_ATTEMPTS * p rounds differently
            raise ConfigError(
                f"charge_good_prob = {p!r} at {s} shots per term "
                f"expects {s / p:.3g} attempts per group, above {MAX_ATTEMPTS:.0e}"
            )


@functools.lru_cache(maxsize=64)
def misassignment_probabilities(noise: NoiseModel) -> tuple[float, float]:
    """Readout confusion (P(assign 1 | true 0), P(assign 0 | true 1)): the
    Poisson tail masses of each outcome's photon count on the wrong side of
    the threshold. Counts strictly above it assign the bright outcome.
    Memoised per noise model."""
    k = noise.readout_threshold
    eps = _poisson_split(k, noise.lambda_dark)[1], _poisson_split(k, noise.lambda_bright)[0]
    # the true |+1> outcome is the bright one unless the polarity is inverted
    return eps if noise.bright_state_is_one else eps[::-1]


def _poisson_split(k: int, lam: float) -> tuple[float, float]:
    """(P(N <= k), P(N > k)) for N ~ Poisson(lam).

    Both sides are summed directly from weights normalised at the mode over
    lam +- (12 sqrt(lam) + 40), outside which the mass is below 1e-30, so
    the cost does not depend on k and nothing underflows at large lam.
    The log weights are accumulated outward from the mode, where their
    partial sums stay small.
    """
    if lam == 0.0:
        return 1.0, 0.0
    half = 12.0 * math.sqrt(lam) + 40.0
    lo = max(0, math.ceil(lam - half))
    hi = math.floor(lam + half)
    if k < lo:
        return 0.0, 1.0
    if k >= hi:
        return 1.0, 0.0
    mode = int(lam)
    sums = [0.0, 0.0]  # below, above
    sums[mode > k] = 1.0
    log_lam = math.log(lam)
    log_w = 0.0
    for j in range(mode + 1, hi + 1):
        # log p(j) / p(j - 1) = log(lam / j); log1p keeps it exact near a large mode
        log_w += math.log1p((lam - j) / j) if lam >= 1.0 else log_lam - math.log(j)
        sums[j > k] += math.exp(log_w)
    log_w = 0.0
    for j in range(mode, lo, -1):
        log_w += math.log1p((j - lam) / lam)  # log p(j - 1) / p(j) = log(j / lam)
        sums[j - 1 > k] += math.exp(log_w)
    below, above = sums
    return below / (below + above), above / (below + above)


def estimate_stats(successes, shots: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Binomial means and standard errors per term, each of n = `shots`
    kept shots, plus the quadrature combination across terms.

    For the standard error only, the success fraction is clamped to
    [1/(2n), 1 - 1/(2n)] so that degenerate counts still carry a nonzero
    uncertainty. Raises InsufficientData below two kept shots.
    """
    if shots < 2:
        raise InsufficientData("need at least 2 kept shots per term")
    means = np.asarray(successes, dtype=float) / shots
    p_err = np.clip(means, 1.0 / (2.0 * shots), 1.0 - 1.0 / (2.0 * shots))
    stderrs = np.sqrt(p_err * (1.0 - p_err) / shots)
    combined = float(np.sqrt(np.sum(stderrs**2)))
    return means, stderrs, combined


@dataclass(frozen=True)
class _ShotProgram:
    """Pulse schedule of one shot group and the readout slots it reads."""

    pre_pulses: tuple  # after initialization, before the first readout
    mid_pulses: tuple  # between the two readouts
    slots: tuple  # (k1, k2): the cycle states l_k1, l_k2 that readouts 1 and 2 read


@functools.cache
def shot_programs(pair_order: str = "forward") -> tuple[_ShotProgram, ...]:
    """The six shot groups: one per measurement setting plus the
    cycle-closure (correction) group, memoised per pair order as one
    shared tuple; a group's number is its position.

    A setting's two readouts read SLOT_TARGETS' pair of cycle states, and
    the closing group reads l6 and then l1. Reversed pair order inserts
    the population swap before the first readout, exchanging the two
    slots.
    """
    prep = psi0_pulses()
    swap = swap_pulses()
    settings = setting_pulses()
    reverse = pair_order == "reverse"
    order = -1 if reverse else 1
    programs = [
        _ShotProgram(prep + pulses + (swap if reverse else ()), swap, slots[::order])
        for pulses, slots in zip(settings, SLOT_TARGETS)
    ]
    # the setting whose swapped slot reads the closing state l6
    closing = next(p for p, (_, second) in zip(settings, SLOT_TARGETS) if second == 6)
    # forward: readout 1 on the closing state l6, undo, readout 2 on l1
    pre, mid = (prep, closing + swap) if reverse else (prep + closing + swap, swap + inverse(closing))
    return (*programs, _ShotProgram(pre, mid, (6, 1)[::order]))


def recorded_terms(programs, tables) -> dict[str, float]:
    """The twelve recorded terms of 2x2 tables over the assigned bits
    (b1, b2), one table per shot program: each group records the marginal
    of its lower-indexed slot, its b1 = 1 row or its b2 = 1 column, as its
    single, and the (1, 1) cell as its pair. So context {i, i+1} records
    <L_i> and <L_i L_i+1>, and the closing context {6, 1} records L1c and
    L1pL1. Count tables give the success counts, probability tables the
    expected terms."""
    singles, pairs = [], []
    for prog, table in zip(programs, tables):
        k1, k2 = prog.slots
        singles.append((table[1] if k1 < k2 else table[:, 1]).sum().item())
        pairs.append(table[1, 1].item())
    return dict(zip(TERM_NAMES, singles[:5] + pairs[:5] + singles[5:] + pairs[5:]))


@dataclass(frozen=True)
class ExperimentResult:
    """Estimates, uncertainties, and bookkeeping of one protocol run, or of
    its expectation; table_estimates builds it for both backends."""

    terms: TermSet
    stderrs: TermSet
    successes: dict[str, float]  # per-term success counts: integers from a run, floats from expected counts
    tables: np.ndarray  # (6, 2, 2) counts of assigned (b1, b2), shot_programs order
    shots_per_term: int
    kept_shots: int
    discarded_shots: int
    kcbs_value: float
    inequality_value: float  # modified (cycle-corrected) value
    inequality_stderr: float
    violation_sigma: float  # standard errors above NCHV_BOUND


def table_estimates(programs, tables, shots: int, discarded: int) -> ExperimentResult:
    """The ExperimentResult of (6, 2, 2) count tables of `shots` kept shots
    a group, `discarded` attempts having failed the charge check: the
    recorded_terms and their estimate_stats. Expected counts,
    exact_tables times shots, give a run's expectation; their successes are
    floats, and kept_shots is the exact integer len(programs) * shots on
    both backends."""
    successes = recorded_terms(programs, tables)
    means, errs, combined = estimate_stats(list(successes.values()), shots)
    terms = TermSet.from_vector(means)
    modified = modified_kcbs_value(terms)
    return ExperimentResult(
        terms=terms,
        stderrs=TermSet.from_vector(errs),
        successes=successes,
        tables=tables,
        shots_per_term=shots,
        kept_shots=len(programs) * shots,
        discarded_shots=discarded,
        kcbs_value=kcbs_value(terms),
        inequality_value=modified,
        inequality_stderr=combined,
        violation_sigma=(modified - NCHV_BOUND) / combined,
    )


def _pulse_channel(rho, axis: str, t: float, std: float):
    """E[R rho R^T] for one pulse of angle t on a real density matrix, the
    mean over its angle noise. R = P + c A + s B, where P keeps the level
    the pulse leaves alone, A is the identity on the rotated block and B
    the block's generator, and (c, s) = (cos, sin)(t' / 2) at the executed
    angle t' = t (1 + std e), e ~ N(0, 1). The moments come from
    E[cos k t'] = exp(-(k t std)^2 / 2) cos k t, and the same for sin."""
    i, j = (0, 1) if axis == "a" else (1, 2)
    P = np.zeros((3, 3))
    P[3 - i - j, 3 - i - j] = 1.0
    A = np.eye(3) - P
    B = np.zeros((3, 3))
    B[i, j], B[j, i] = 1.0, -1.0
    half = math.exp(-((0.5 * t * std) ** 2) / 2.0)  # k = 1/2
    full = math.exp(-((t * std) ** 2) / 2.0)  # k = 1
    c, s = half * math.cos(0.5 * t), half * math.sin(0.5 * t)
    cc, ss = 0.5 * (1.0 + full * math.cos(t)), 0.5 * (1.0 - full * math.cos(t))
    cs = 0.5 * full * math.sin(t)
    cross = (c * A + s * B) @ rho @ P + cs * (A @ rho @ B.T)
    return P @ rho @ P + cc * (A @ rho @ A) + ss * (B @ rho @ B.T) + cross + cross.T


def exact_tables(noise: NoiseModel, pair_order: str = "forward") -> np.ndarray:
    """Exact probabilities P(b1, b2) of the assigned bits of a kept shot,
    a (6, 2, 2) array in shot_programs order: the protocol's expectation,
    followed with real 3x3 density matrices. The prepared state is
    diag(1 - p, p / 2, p / 2); each pulse is _pulse_channel. A readout
    leaves P1 rho P1 on the |+1> outcome and, on the dark one,
    (1 - f) P0 rho P0 + f tr(P0 rho P0) P0 / 2, P0 being the projector on
    |0>, |-1> and f the nuclear flip probability. The table of true
    outcomes T then becomes C T C^T, with C[b, o] = P(assign b | true o).
    The charge check drops out: it does not depend on the state."""
    p, f, std = noise.init_error_prob, noise.nuclear_flip_prob, noise.pulse_angle_error_std
    eps0, eps1 = misassignment_probabilities(noise)
    confusion = np.array([[1.0 - eps0, eps1], [eps0, 1.0 - eps1]])
    dark = np.diag([0.0, 1.0, 1.0])

    def pulsed(pulses, rho):
        for axis, t in pulses:
            rho = _pulse_channel(rho, axis, t, std)
        return rho

    tables = []
    for prog in shot_programs(pair_order):
        rho = pulsed(prog.pre_pulses, np.diag([1.0 - p, p / 2.0, p / 2.0]))
        kept = dark @ rho @ dark
        # the states after a dark (0) and a |+1> (1) first outcome
        posts = ((1.0 - f) * kept + 0.5 * f * np.trace(kept) * dark, np.diag([rho[0, 0], 0.0, 0.0]))
        ends = [pulsed(prog.mid_pulses, q) for q in posts]
        true = np.array([(r[1, 1] + r[2, 2], r[0, 0]) for r in ends])
        tables.append(confusion @ true @ confusion.T)
    return np.array(tables)


