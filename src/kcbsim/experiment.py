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

#: Largest accepted mean photon count, well inside numpy's Poisson range.
LAMBDA_MAX = 1e9
#: Most shot attempts a single shot group may be budgeted.
MAX_ATTEMPTS = 1e8


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
    sorted ascending. The Zeeman term gn*Bz is converted from kHz to MHz."""
    zeeman_mhz = p.gyromagnetic_khz_per_gauss * p.field_gauss * 1e-3
    f1 = abs(p.quadrupole_mhz - zeeman_mhz)
    f2 = abs(p.quadrupole_mhz + zeeman_mhz)
    return (f1, f2) if f1 <= f2 else (f2, f1)


@dataclass(frozen=True)
class NoiseModel:
    """Error channels of the simulated protocol.

    pulse_angle_error_std: each pulse angle t is executed as t*(1+e) with
        e drawn fresh per pulse from N(0, std^2).
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
            elif isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
                raise ConfigError(f"{f.name} must be a finite number, got {v!r}")
        for name in ("init_error_prob", "nuclear_flip_prob", "charge_good_prob"):
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
        if self.pulse_angle_error_std < 0.0:
            raise ConfigError("pulse_angle_error_std must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Full description of one protocol run."""

    seed: int
    shots_per_term: int
    noise: NoiseModel = field(default_factory=NoiseModel)
    pair_order: str = "forward"

    def __post_init__(self):
        for name in ("seed", "shots_per_term"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.shots_per_term < 1:
            raise ConfigError("shots_per_term must be >= 1")
        if self.pair_order not in ("forward", "reverse"):
            raise ConfigError("pair_order must be 'forward' or 'reverse'")
        self.attempt_budget()  # refuses a run too long to finish

    def attempt_budget(self) -> int:
        """Shot attempts per group before the run gives up: 4 shots /
        charge_good_prob + 100, or just the shots when none can be kept.
        Raises ConfigError above MAX_ATTEMPTS."""
        p = self.noise.charge_good_prob
        if p == 0.0:
            return self.shots_per_term
        budget = 4.0 * self.shots_per_term / p
        if not budget + 100 <= MAX_ATTEMPTS:
            raise ConfigError(
                f"charge_good_prob = {p!r} at {self.shots_per_term} shots per term "
                f"needs {budget + 100:.3g} attempts per group, above {MAX_ATTEMPTS:.0e}"
            )
        return int(budget) + 100


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


def shot_rng(seed: int, group: int, shot: int) -> np.random.Generator:
    """Independent random stream for one shot, derived from
    (seed, group index, shot index). The derivation is order-free, so any
    parallel schedule reproduces the sequential results bit for bit."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(group, shot)))


def initialize(noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Prepared state: |+1> with probability 1 - init_error_prob, else
    |0> or |-1> with equal probability."""
    u = rng.random()
    p = noise.init_error_prob
    if u < 1.0 - p:
        return KET_PLUS.copy()
    if u < 1.0 - p / 2.0:
        return KET_ZERO.copy()
    return KET_MINUS.copy()


def charge_check(noise: NoiseModel, rng: np.random.Generator) -> bool:
    """True when the shot passes the charge-state check and is kept."""
    return bool(rng.random() < noise.charge_good_prob)


def noisy_apply(pulses, noise: NoiseModel, rng: np.random.Generator, psi: np.ndarray) -> np.ndarray:
    """Apply a pulse string (application order) with multiplicative angle
    noise, one fresh draw per pulse."""
    a, b, c = complex(psi[0]), complex(psi[1]), complex(psi[2])
    std = noise.pulse_angle_error_std
    for axis, angle in pulses:
        t = angle * (1.0 + rng.normal(0.0, std)) if std > 0.0 else angle
        ch = math.cos(0.5 * t)
        sh = math.sin(0.5 * t)
        if axis == "a":
            a, b = ch * a + sh * b, -sh * a + ch * b
        else:
            b, c = ch * b + sh * c, -sh * b + ch * c
    return np.array([a, b, c])


def single_shot_readout(
    psi: np.ndarray, noise: NoiseModel, rng: np.random.Generator
) -> tuple[int, np.ndarray, int]:
    """One photon-count-thresholded readout of the |+1> population.

    Returns (assigned_bit, post_state, photon_count). The true outcome is
    sampled from the Born probability and sets the collapse and the
    photon-count mean; the assigned bit only thresholds the count, so the
    two disagree with the Poisson tail probabilities.
    """
    a, b, c = complex(psi[0]), complex(psi[1]), complex(psi[2])
    p_plus = a.real * a.real + a.imag * a.imag
    true_one = rng.random() < p_plus
    if true_one:
        post = KET_PLUS.copy()
    else:
        rest = math.sqrt(b.real * b.real + b.imag * b.imag + c.real * c.real + c.imag * c.imag)
        post = np.array([0j, b / rest, c / rest])
    if noise.nuclear_flip_prob > 0.0 and rng.random() < noise.nuclear_flip_prob and not true_one:
        # depolarize within the {|0>, |-1>} subspace the state collapsed into
        g = rng.standard_normal(4)
        z0 = complex(g[0], g[1])
        z1 = complex(g[2], g[3])
        n = math.sqrt(abs(z0) ** 2 + abs(z1) ** 2)
        post = np.array([0j, z0 / n, z1 / n])
    bright = true_one == noise.bright_state_is_one
    lam = noise.lambda_bright if bright else noise.lambda_dark
    photon_count = int(rng.poisson(lam)) if lam > 0.0 else 0
    above = photon_count > noise.readout_threshold
    assigned = above if noise.bright_state_is_one else not above
    return int(assigned), post, photon_count


def misassignment_probabilities(noise: NoiseModel) -> tuple[float, float]:
    """Analytic readout confusion (P(assign 1 | true 0), P(assign 0 | true 1))
    from the Poisson tail masses on either side of the threshold."""
    lam_true1 = noise.lambda_bright if noise.bright_state_is_one else noise.lambda_dark
    lam_true0 = noise.lambda_dark if noise.bright_state_is_one else noise.lambda_bright

    def p_assign_one(lam: float) -> float:
        above = 1.0 - _poisson_cdf(noise.readout_threshold, lam)
        return above if noise.bright_state_is_one else 1.0 - above

    return p_assign_one(lam_true0), 1.0 - p_assign_one(lam_true1)


def _poisson_cdf(k: int, lam: float) -> float:
    if lam == 0.0:
        return 1.0
    term = math.exp(-lam)
    total = term
    for i in range(1, k + 1):
        term *= lam / i
        total += term
    return min(total, 1.0)


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


def run_protocol(config: RunConfig) -> ExperimentResult:
    """Run the full sequential-measurement protocol.

    Every group collects shots_per_term kept shots, each one running:
    initialize -> charge check -> noisy preparation and setting pulses ->
    first readout -> noisy swap (or undo) pulses -> second readout. Shots
    failing the charge check are counted and discarded. Random streams
    are derived per (seed, group, shot), so results are independent of
    execution order; identical configurations reproduce identical counts.
    """
    noise = config.noise
    shots = config.shots_per_term
    programs = shot_programs(config.pair_order)
    budget = config.attempt_budget()
    successes = {name: 0 for name in TERM_NAMES}
    kept_total = 0
    discarded_total = 0
    for prog in programs:
        kept = 0
        for attempt in range(budget):
            if kept >= shots:
                break
            rng = shot_rng(config.seed, prog.group, attempt)
            psi = initialize(noise, rng)
            if not charge_check(noise, rng):
                discarded_total += 1
                continue
            psi = noisy_apply(prog.pre_pulses, noise, rng, psi)
            b1, psi, _ = single_shot_readout(psi, noise, rng)
            psi = noisy_apply(prog.mid_pulses, noise, rng, psi)
            b2, psi, _ = single_shot_readout(psi, noise, rng)
            kept += 1
            successes[prog.single_term] += b1 if prog.single_from_first else b2
            successes[prog.pair_term] += b1 & b2
        if kept < shots:
            raise InsufficientData(
                f"group {prog.group}: only {kept} of {shots} shots kept "
                f"(charge_good_prob = {noise.charge_good_prob})"
            )
        kept_total += kept
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
