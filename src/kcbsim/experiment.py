"""Stochastic simulation of the sequential single-shot measurement
protocol: noisy initialization, RF pulse sequences, charge-state
post-selection, photon-count-thresholded readouts, and shot statistics.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, InsufficientData, NonFinite
from .kcbs import TERM_NAMES, TermSet, kcbs_value, modified_kcbs_value
from .pentagram import SLOT_TARGETS, inverse, psi0_pulses, setting_pulses, swap_pulses
from .qutrit import KET_MINUS, KET_PLUS, KET_ZERO

#: Largest accepted mean photon count; it bounds the Poisson window that
#: misassignment_probabilities sums (about 7.6e5 terms).
LAMBDA_MAX = 1e9
#: Most shot attempts a single shot group may be budgeted.
MAX_ATTEMPTS = 1e8
#: Largest accepted chance that a group falls short of its shots within its
#: attempt budget.
BUDGET_TAIL = 1e-12


def _finite(v: Real) -> bool:
    """True for a number with a finite float value; an integer too large
    for a float is not finite."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class NvParameters:
    """Nuclear-spin Hamiltonian constants H = Q Iz^2 + gn Bz Iz."""

    quadrupole_mhz: float = 4.95
    gyromagnetic_khz_per_gauss: float = 0.3077
    field_gauss: float = 5636.0

    def __post_init__(self):
        for name in ("quadrupole_mhz", "gyromagnetic_khz_per_gauss", "field_gauss"):
            if not math.isfinite(getattr(self, name)):
                raise NonFinite(f"{name} must be finite")
        if self.field_gauss < 0:
            raise ConfigError("field_gauss must be >= 0")


def nmr_frequencies(p: NvParameters) -> tuple[float, float]:
    """The two nuclear transition frequencies |E(+-1) - E(0)| in MHz,
    sorted ascending. The Zeeman term gn*Bz is converted from kHz to MHz.
    Raises NonFinite when finite inputs overflow to an infinite frequency."""
    zeeman_mhz = p.gyromagnetic_khz_per_gauss * p.field_gauss * 1e-3
    f1 = abs(p.quadrupole_mhz - zeeman_mhz)
    f2 = abs(p.quadrupole_mhz + zeeman_mhz)
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise NonFinite(f"transition frequencies overflow (Zeeman term {zeeman_mhz!r} MHz)")
    return (f1, f2) if f1 <= f2 else (f2, f1)


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
    nuclear_flip_prob: probability per readout that the post-measurement
        state is replaced by a uniformly random state of the subspace it
        collapsed into.
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
                    raise ConfigError(f"{f.name} must be true or false, got {v!r}")
            elif isinstance(v, bool) or not isinstance(v, Real) or not _finite(v):
                raise ConfigError(f"{f.name} must be a finite number, got {v!r}")
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
    """Full description of one protocol run."""

    seed: int = 0
    shots_per_term: int = 10_000
    noise: NoiseModel = field(default_factory=NoiseModel)
    pair_order: str = "forward"

    def __post_init__(self):
        for name in ("seed", "shots_per_term"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not 1 <= self.shots_per_term <= MAX_ATTEMPTS:
            raise ConfigError(f"shots_per_term must lie in [1, {MAX_ATTEMPTS:.0e}]")
        if self.pair_order not in ("forward", "reverse"):
            raise ConfigError("pair_order must be 'forward' or 'reverse'")
        self.attempt_budget()  # refuses a run too long to finish

    def attempt_budget(self) -> int:
        """Shot attempts per group before the run gives up, or just the
        shots when none can be kept. The Chernoff bound on the lower tail
        of Binomial(n, p) gives the budget n = (s + c + sqrt(c^2 + 2 s c)) / p
        for s shots, p = charge_good_prob and c = ln(1 / BUDGET_TAIL), so a
        group falls short with probability at most BUDGET_TAIL.
        Raises ConfigError above MAX_ATTEMPTS."""
        p = self.noise.charge_good_prob
        s = self.shots_per_term
        if p == 0.0:
            return s
        c = -math.log(BUDGET_TAIL)
        budget = (s + c + math.sqrt(c * c + 2.0 * s * c)) / p
        if not budget <= MAX_ATTEMPTS:
            raise ConfigError(
                f"charge_good_prob = {p!r} at {s} shots per term "
                f"needs {budget:.3g} attempts per group, above {MAX_ATTEMPTS:.0e}"
            )
        return math.ceil(budget)


@dataclass(frozen=True)
class ExperimentResult:
    """Estimates, uncertainties, and bookkeeping of one protocol run."""

    terms: TermSet
    stderrs: TermSet
    successes: dict[str, int]  # raw per-term success counts
    shots_per_term: int
    kept_shots: int
    discarded_shots: int
    kcbs_value: float
    inequality_value: float  # modified (cycle-corrected) value
    inequality_stderr: float
    violation_sigma: float


def group_rng(seed: int, group: int) -> np.random.Generator:
    """The random stream of one shot group, derived from (seed, group).

    Attempt i of the group owns the window of uniforms
    [i * W, (i + 1) * W) of this stream, W being the width in its shot
    program's `layout`.
    `Generator.random` takes exactly one 64-bit output per double, so
    `bit_generator.advance(i * W)` reaches any attempt's window directly:
    results do not depend on the order in which attempts or groups run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(group,)))


_TWO_PI = 2.0 * math.pi
#: Uniforms one readout consumes: Born, nuclear flip, assignment, and four
#: for the complex Gaussian pair of the depolarised state.
READOUT_UNIFORMS = 7
#: Passing windows each array step of run_protocol aims to run: a draw holds
#: ceil(CHUNK / charge_good_prob) windows. Counts do not depend on it.
#: Larger values run faster (about 1.6x per doubling on paper-2015). It is
#: 32 because perfbench's sweep-small workload holds about 2 KB per
#: operation run, so a faster kernel raises its peak RSS; at 64 that rose
#: more than 5 % above the scalar kernel's.
CHUNK = 32
#: Most uniforms one draw holds (1 MiB of float64), which bounds the draws
#: at a low charge_good_prob.
DRAW_UNIFORMS = 2**17
_PLUS, _ZERO, _MINUS = (tuple(map(complex, k)) for k in (KET_PLUS, KET_ZERO, KET_MINUS))


def initialize(noise: NoiseModel, u: float) -> tuple[complex, complex, complex]:
    """Prepared state from one uniform: |+1> with probability
    1 - init_error_prob, else |0> or |-1> with equal probability."""
    p = noise.init_error_prob
    if u < 1.0 - p:
        return _PLUS
    if u < 1.0 - p / 2.0:
        return _ZERO
    return _MINUS


def normal_uniforms(n: int) -> int:
    """Uniforms that n Box-Muller normals consume: one pair per two."""
    return 2 * ((n + 1) // 2)


def noisy_apply(pulses, noise: NoiseModel, u, psi):
    """Apply a pulse string (application order) with multiplicative angle
    noise: pulse k runs at angle * (1 + std * e_k), the normals e_k coming
    in Box-Muller pairs from the uniforms u (normal_uniforms(len(pulses))
    of them, read only when the noise is on)."""
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
    """One readout of the |+1> population from READOUT_UNIFORMS uniforms.

    Returns (assigned_bit, post_state). u[0] draws the true outcome from
    the Born probability and sets the collapse. On the |0>, |-1> outcome,
    u[1] < flip_prob replaces the post-measurement state by a uniformly
    random state of that subspace, built from u[3:7]. u[2] misassigns the
    bit with the Poisson tail probabilities `misassignment` =
    (P(assign 1 | true 0), P(assign 0 | true 1)) of the photon count, as
    misassignment_probabilities gives them.
    """
    a, b, c = psi
    if u[0] < a.real * a.real + a.imag * a.imag:
        return (0 if u[2] < misassignment[1] else 1), _PLUS
    if u[1] < flip_prob:
        # a normalised complex Gaussian pair r_j e^(i phi_j)
        r0 = math.sqrt(-2.0 * math.log(1.0 - u[3]))
        r1 = math.sqrt(-2.0 * math.log(1.0 - u[5]))
        n = math.hypot(r0, r1)
        phi0, phi1 = _TWO_PI * u[4], _TWO_PI * u[6]
        post = (
            0j,
            complex(r0 * math.cos(phi0), r0 * math.sin(phi0)) / n,
            complex(r1 * math.cos(phi1), r1 * math.sin(phi1)) / n,
        )
    else:
        rest = math.sqrt(b.real * b.real + b.imag * b.imag + c.real * c.real + c.imag * c.imag)
        post = (0j, b / rest, c / rest)
    return (1 if u[2] < misassignment[0] else 0), post


def misassignment_probabilities(noise: NoiseModel) -> tuple[float, float]:
    """Readout confusion (P(assign 1 | true 0), P(assign 0 | true 1)): the
    Poisson tail masses of each outcome's photon count on the wrong side of
    the threshold. Counts strictly above it assign the bright outcome."""
    # the true |+1> outcome is the bright one unless the polarity is inverted
    if noise.bright_state_is_one:
        lam_one, lam_zero = noise.lambda_bright, noise.lambda_dark
    else:
        lam_one, lam_zero = noise.lambda_dark, noise.lambda_bright
    below_zero, above_zero = _poisson_split(noise.readout_threshold, lam_zero)
    below_one, above_one = _poisson_split(noise.readout_threshold, lam_one)
    if noise.bright_state_is_one:
        return above_zero, below_one
    return below_zero, above_one


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


def estimate_stats(successes, trials) -> tuple[np.ndarray, np.ndarray, float]:
    """Binomial means and standard errors per term, plus the quadrature
    combination across terms.

    For the standard error only, the success fraction is clamped to
    [1/(2n), 1 - 1/(2n)] so that degenerate counts still carry a nonzero
    uncertainty. Raises InsufficientData below two kept shots.
    """
    k = np.asarray(successes, dtype=float)
    n = np.asarray(trials, dtype=float)
    if k.shape != n.shape:
        raise ValueError("successes and trials must align")
    if np.any(n < 2):
        raise InsufficientData("need at least 2 kept shots per term")
    means = k / n
    p_err = np.clip(means, 1.0 / (2.0 * n), 1.0 - 1.0 / (2.0 * n))
    stderrs = np.sqrt(p_err * (1.0 - p_err) / n)
    combined = float(np.sqrt(np.sum(stderrs**2)))
    return means, stderrs, combined


@dataclass(frozen=True)
class _ShotProgram:
    """Pulse schedule of one shot group and the terms it records."""

    group: int
    pre_pulses: tuple  # after initialization, before the first readout
    mid_pulses: tuple  # between the two readouts
    single_term: str
    single_from_first: bool  # record the single from b1 (else from b2)
    pair_term: str

    @property
    def layout(self) -> tuple[int, int, int, int, int]:
        """Offsets of (pre-pulse normals, readout 1, mid-pulse normals,
        readout 2) in an attempt's window of uniforms, and the window width
        W. The window opens with the initialization and charge-check
        uniforms. Uniforms of a branch not taken are skipped, never reused,
        so W depends on the pulse schedule alone."""
        pre = 2
        first = pre + normal_uniforms(len(self.pre_pulses))
        mid = first + READOUT_UNIFORMS
        second = mid + normal_uniforms(len(self.mid_pulses))
        return pre, first, mid, second, second + READOUT_UNIFORMS


def shot_programs(pair_order: str = "forward") -> list[_ShotProgram]:
    """The six shot groups: one per measurement setting plus the
    cycle-closure (correction) group.

    Each group records one single and one sequential pair. The singles
    L1, L3, L5 sit in the first readout slot of their setting; L2, L4 and
    the remeasured L1 are read from the second-readout marginal, which is
    undisturbed for compatible observables. Reversed pair order inserts
    the population swap before the first readout, exchanging the two
    slots.
    """
    prep = psi0_pulses()
    swap = swap_pulses()
    settings = setting_pulses()
    reverse = pair_order == "reverse"
    programs = []
    for i, (pulses, (first, _)) in enumerate(zip(settings, SLOT_TARGETS), start=1):
        programs.append(
            _ShotProgram(
                group=i - 1,
                pre_pulses=prep + pulses + (swap if reverse else ()),
                mid_pulses=swap,
                single_term=f"L{i}",
                single_from_first=(first == i) != reverse,
                pair_term=TERM_NAMES[4 + i],
            )
        )
    # the setting whose swapped slot reads the closing state l6
    closing = next(p for p, (_, second) in zip(settings, SLOT_TARGETS) if second == 6)
    closing_inv = inverse(closing)
    if not reverse:
        # readout 1 on the closing state l6, undo, readout 2 on l1
        corr = _ShotProgram(
            group=5,
            pre_pulses=prep + closing + swap,
            mid_pulses=swap + closing_inv,
            single_term="L1c",
            single_from_first=False,
            pair_term="L1pL1",
        )
    else:
        corr = _ShotProgram(
            group=5,
            pre_pulses=prep,
            mid_pulses=closing + swap,
            single_term="L1c",
            single_from_first=True,
            pair_term="L1pL1",
        )
    programs.append(corr)
    return programs


def _noisy_apply_rows(pulses, std: float, u, psi):
    """noisy_apply over many attempts at once, with the same arithmetic in
    the same order. Column j of u holds attempt j's pulse uniforms, and
    psi = (a, b, c) their amplitudes, each a (2, n) array of real and
    imaginary rows."""
    a, b, c = psi
    t = np.array([t for _, t in pulses]).reshape(-1, 1, 1)
    if std > 0.0:
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        phi = _TWO_PI * u[1::2]
        e = np.empty(u.shape)
        e[0::2] = r * np.cos(phi)
        e[1::2] = r * np.sin(phi)
        # one row of angles per (re, im) row, so each product below pairs equal shapes
        t = (t * (1.0 + std * e[: len(pulses), None])).repeat(2, axis=1)
    ch = np.cos(0.5 * t)
    sh = np.sin(0.5 * t)
    minus_sh = -sh
    for k, (axis, _) in enumerate(pulses):
        if axis == "a":
            a, b = ch[k] * a + sh[k] * b, minus_sh[k] * a + ch[k] * b
        else:
            b, c = ch[k] * b + sh[k] * c, minus_sh[k] * b + ch[k] * c
    return a, b, c


def _readout_rows(u, psi, misassignment: tuple[float, float]):
    """The true outcomes (True for |+1>) and assigned bits that
    single_shot_readout gives the attempts whose readout uniforms are the
    columns of u."""
    a = psi[0]
    one = u[0] < a[0] * a[0] + a[1] * a[1]
    return one, np.where(one, u[2] >= misassignment[1], u[2] < misassignment[0])


def _collapse_rows(u, one, psi, flip_prob: float):
    """The post-measurement states single_shot_readout gives the attempts
    whose readout uniforms are the columns of u and true outcomes `one`."""
    _, b, c = psi
    dark = ~one
    rest = np.sqrt(b[0] * b[0] + b[1] * b[1] + c[0] * c[0] + c[1] * c[1])
    post = np.zeros((3,) + b.shape)
    post[0, 0] = one
    np.divide(b, rest, out=post[1], where=dark)
    np.divide(c, rest, out=post[2], where=dark)
    flipped = np.flatnonzero(dark & (u[1] < flip_prob))
    if len(flipped):
        # rows (r0, r1) and (phi0, phi1) of the normalised complex Gaussian pair
        r = np.sqrt(-2.0 * np.log(1.0 - u[3::2, flipped]))
        n = np.hypot(r[0], r[1])
        phi = _TWO_PI * u[4::2, flipped]
        post[1:, 0, flipped] = r * np.cos(phi) / n
        post[1:, 1, flipped] = r * np.sin(phi) / n
    return post


def _run_rows(prog: _ShotProgram, noise: NoiseModel, eps, u):
    """Assigned bits (b1, b2) of the attempts whose windows are the columns
    of u: initialize, noisy_apply and single_shot_readout in turn, each run
    as array steps over all of them."""
    pre, first, mid, second, _ = prog.layout
    p = noise.init_error_prob
    plus = u[0] < 1.0 - p
    zero = ~plus & (u[0] < 1.0 - p / 2.0)
    psi = np.zeros((3, 2, u.shape[1]))
    psi[0, 0], psi[1, 0], psi[2, 0] = plus, zero, ~(plus | zero)
    std = noise.pulse_angle_error_std
    psi = _noisy_apply_rows(prog.pre_pulses, std, u[pre:first], psi)
    one, b1 = _readout_rows(u[first:mid], psi, eps)
    psi = _collapse_rows(u[first:mid], one, psi, noise.nuclear_flip_prob)
    psi = _noisy_apply_rows(prog.mid_pulses, std, u[mid:second], psi)
    _, b2 = _readout_rows(u[second:], psi, eps)
    return b1, b2


def run_protocol(config: RunConfig) -> ExperimentResult:
    """Run the full sequential-measurement protocol.

    Every group collects shots_per_term kept shots, each attempt running:
    initialize -> charge check -> noisy preparation and setting pulses ->
    first readout -> noisy swap (or undo) pulses -> second readout.
    Attempts failing the charge check are counted and discarded. Attempt i
    of a group reads only its own window of the group's stream (see
    group_rng), so results are independent of execution order and of how
    many windows are drawn at once; identical configurations reproduce
    identical counts. The windows that pass the charge check in each draw
    run together as array steps (_run_rows), one per pulse and readout.
    """
    noise = config.noise
    shots = config.shots_per_term
    p_charge = noise.charge_good_prob
    # with no attempt able to pass the charge check, fail before drawing one
    budget = config.attempt_budget() if p_charge > 0.0 else 0
    eps = misassignment_probabilities(noise)
    successes = {name: 0 for name in TERM_NAMES}
    kept_total = 0
    discarded_total = 0
    for prog in shot_programs(config.pair_order):
        width = prog.layout[-1]
        rng = group_rng(config.seed, prog.group)
        kept = attempts = 0
        singles = pairs = 0
        while kept < shots and attempts < budget:
            windows = min(math.ceil(CHUNK / p_charge), DRAW_UNIFORMS // width, budget - attempts)
            block = rng.random((windows, width))
            good = np.flatnonzero(block[:, 1] < p_charge)[: shots - kept]
            kept += len(good)
            # the group ends at its shots-th passing window, which is counted
            attempts += int(good[-1]) + 1 if kept == shots else windows
            if len(good):
                b1, b2 = _run_rows(prog, noise, eps, block[good].T)
                singles += int(np.count_nonzero(b1 if prog.single_from_first else b2))
                pairs += int(np.count_nonzero(b1 & b2))
        if kept < shots:
            raise InsufficientData(
                f"group {prog.group}: only {kept} of {shots} shots kept "
                f"(charge_good_prob = {p_charge})"
            )
        successes[prog.single_term] += singles
        successes[prog.pair_term] += pairs
        kept_total += kept
        discarded_total += attempts - kept
    counts = np.array([successes[name] for name in TERM_NAMES], dtype=float)
    trials = np.full(len(TERM_NAMES), shots, dtype=float)
    means, errs, combined = estimate_stats(counts, trials)
    terms = TermSet.from_vector(means)
    plain = kcbs_value(terms)
    modified = modified_kcbs_value(terms)
    return ExperimentResult(
        terms=terms,
        stderrs=TermSet.from_vector(errs),
        successes=dict(successes),
        shots_per_term=shots,
        kept_shots=kept_total,
        discarded_shots=discarded_total,
        kcbs_value=plain,
        inequality_value=modified,
        inequality_stderr=combined,
        violation_sigma=(modified - 2.0) / combined,
    )
