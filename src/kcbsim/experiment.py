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
        """Shot attempts per group before the run gives up, or 0 when no
        attempt can pass the charge check. The Chernoff bound on the lower tail
        of Binomial(n, p) gives the budget n = (s + c + sqrt(c^2 + 2 s c)) / p
        for s shots, p = charge_good_prob and c = ln(1 / BUDGET_TAIL), so a
        group falls short with probability at most BUDGET_TAIL.
        Raises ConfigError above MAX_ATTEMPTS."""
        p = self.noise.charge_good_prob
        s = self.shots_per_term
        if p == 0.0:
            return 0
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
    tables: np.ndarray  # (6, 2, 2) counts of assigned (b1, b2), shot_programs order
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
    program's `layout(noise)`.
    `Generator.random` takes exactly one 64-bit output per double, so
    `bit_generator.advance(i * W)` reaches any attempt's window directly:
    results do not depend on the order in which attempts or groups run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(group,)))


#: Uniforms one readout consumes: Born, nuclear flip, assignment.
READOUT_UNIFORMS = 3
#: Most uniforms one draw of run_protocol holds (256 KiB of float64), and so
#: the most columns of one array step: 1260-4096 windows of 8-26 uniforms.
#: Counts do not depend on it. It bounds the workspace of a call (the
#: draw, its passing windows and the kernel's rows, each grown to the
#: largest a draw asks for), which the memory tests hold under 4 MiB of
#: tracemalloc peak.
DRAW_UNIFORMS = 2**15


def normal_uniforms(n: int) -> int:
    """Uniforms that n Box-Muller normals consume: one pair per two."""
    return 2 * ((n + 1) // 2)


def misassignment_probabilities(noise: NoiseModel) -> tuple[float, float]:
    """Readout confusion (P(assign 1 | true 0), P(assign 0 | true 1)): the
    Poisson tail masses of each outcome's photon count on the wrong side of
    the threshold. Counts strictly above it assign the bright outcome."""
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
    """Pulse schedule of one shot group and the terms it records."""

    group: int
    pre_pulses: tuple  # after initialization, before the first readout
    mid_pulses: tuple  # between the two readouts
    single_term: str
    single_from_first: bool  # record the single from b1 (else from b2)
    pair_term: str

    def layout(self, noise: NoiseModel) -> tuple[int, int, int, int, int]:
        """Offsets of (pre-pulse normals, readout 1, mid-pulse normals,
        readout 2) in an attempt's window of uniforms, and the window width
        W. The window opens with the initialization and charge-check
        uniforms. Pulse normals are drawn only when the pulse angles are
        noisy. Uniforms of a branch not taken are skipped, never reused, so
        W depends on the pulse schedule and the noise model alone."""
        noisy = noise.pulse_angle_error_std > 0.0
        pre = 2
        first = pre + noisy * normal_uniforms(len(self.pre_pulses))
        mid = first + READOUT_UNIFORMS
        second = mid + noisy * normal_uniforms(len(self.mid_pulses))
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


def recorded_terms(programs, tables) -> dict[str, float]:
    """The twelve recorded terms of 2x2 tables over the assigned bits
    (b1, b2), one table per shot program: a group's single is its b1 = 1
    row or its b2 = 1 column, its pair the (1, 1) cell. Count tables give
    the success counts, probability tables the expected terms."""
    terms = {}
    for prog, table in zip(programs, tables):
        single = table[1] if prog.single_from_first else table[:, 1]
        terms[prog.single_term] = single.sum().item()
        terms[prog.pair_term] = table[1, 1].item()
    return {name: terms[name] for name in TERM_NAMES}


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


def _cos_sin(half, cos, d):
    """cos(x) and sin(x) from one tangent, in place: with half = x / 2 and
    tau = tan(half), cos = (1 - tau^2) / (1 + tau^2) and
    sin = 2 tau / (1 + tau^2). The sine overwrites half, the cosine goes to
    cos, and d is scratch of the same shape. numpy may run float64 tan as a
    vector loop where cos and sin run scalar libm; the pair stays within
    about 1e-16 of libm's, and finite at the tangent's poles, where tau is
    large but finite."""
    tau = np.tan(half, half)
    np.add(1.0, np.multiply(tau, tau, cos), d)
    np.divide(np.subtract(1.0, cos, cos), d, cos)
    return cos, np.divide(np.add(tau, tau, tau), d, tau)


def _noisy_apply_rows(pulses, std: float, u, rows, ws):
    """Apply a pulse string (application order) to many attempts at once,
    in place.

    rows = [a, b, c, s1, s2] holds the real amplitude rows, one column per
    state, then two scratch rows; rows trade places in the list as pulses
    run. A pulse of angle t on axis "a" (or "b") maps (a, b) (or (b, c)) to
    (ch*a + sh*b, ch*b - sh*a), with ch, sh = _cos_sin(t / 2). With angle
    noise on, pulse k runs at t * (1 + std * e_k), the normals e_k coming
    in Box-Muller pairs r * (cos, sin)(2 pi u'), with
    r = sqrt(-2 log(1 - u)), from column j of u: the
    normal_uniforms(len(pulses)) uniforms of column j's attempt. The
    (pulses x attempts) blocks, normals, radii, angles and tangent
    temporaries, are the first 3 * len(u) rows of the workspace ws. The
    angles are scaled by powers of two, which is exact: tan(pi u') and
    tan(t / 4) are the same doubles as tan(0.5 * (2 pi u')) and
    tan(0.5 * (0.5 * t))."""
    m = len(pulses)
    t = 0.25 * np.array([t for _, t in pulses])[:, None]  # the tangent's argument t / 4
    if std > 0.0:
        e, cos, d = ws[: 3 * len(u)].reshape(3, len(u), -1)
        r = d[::2]
        _cos_sin(np.multiply(math.pi, u[1::2], e[1::2]), e[::2], r)  # half of 2 pi u'
        np.sqrt(np.multiply(-2.0, np.log(np.subtract(1.0, u[::2], r), r), r), r)
        e[::2] *= r
        e[1::2] *= r
        e = e[:m]  # (m, n): pulse k's normal in every column
        t = np.multiply(t, np.add(1.0, np.multiply(std, e, e), e), e)
        ch, sh = _cos_sin(t, cos[:m], d[:m])
    else:
        ch, sh = _cos_sin(t, np.empty_like(t), np.empty_like(t))
    for k, (axis, _) in enumerate(pulses):
        i = axis != "a"  # the pulse rotates rows[i] and rows[i + 1]
        x, y, s, tmp = rows[i], rows[i + 1], rows[3], rows[4]
        np.multiply(ch[k], x, s)
        s += np.multiply(sh[k], y, tmp)
        np.multiply(sh[k], x, tmp)
        np.subtract(np.multiply(ch[k], y, x), tmp, y)
        rows[i], rows[3] = s, x


def _readout_rows(u, a, misassignment: tuple[float, float]):
    """True outcomes (True for |+1>) and assigned bits of one readout of
    the attempts whose READOUT_UNIFORMS readout uniforms are the columns of
    u and whose |+1> amplitudes are the row a, squared in place. u[0] below
    the |+1> population a^2 gives the |+1> outcome; u[2] then misassigns
    it with the Poisson tail probabilities `misassignment` =
    (P(assign 1 | true 0), P(assign 0 | true 1)) that
    misassignment_probabilities gives."""
    one = u[0] < np.multiply(a, a, a)
    return one, np.where(one, u[2] >= misassignment[1], u[2] < misassignment[0])


def _collapse_rows(u, one, rows, flip_prob: float):
    """Replace the states in rows = [a, b, c, s1, s2] (amplitude rows, then
    two scratch rows) by the post-measurement states of the readout whose
    uniforms are the columns of u and whose true outcomes are `one`: |+1>
    on that outcome, else (0, b, c) / sqrt(b^2 + c^2). A dark outcome with
    u[1] < flip_prob is a nuclear flip instead: |0> where
    u[1] < flip_prob / 2, else |-1>. Given the flip, u[1] / flip_prob is
    uniform on [0, 1), so the pick is fair."""
    a, b, c, rest, tmp = rows
    dark = ~one
    flip = dark & (u[1] < flip_prob)
    zero = flip & (u[1] < 0.5 * flip_prob)
    collapse = dark & ~flip
    np.multiply(b, b, rest)
    rest += np.multiply(c, c, tmp)
    np.sqrt(rest, rest)
    np.divide(b, rest, b, where=collapse)
    np.divide(c, rest, c, where=collapse)
    np.copyto(a, one)
    np.copyto(b, zero, where=~collapse)  # 1 on a flip to |0>, else 0
    np.copyto(c, flip & ~zero, where=~collapse)


def _run_rows(prog: _ShotProgram, noise: NoiseModel, eps, u, ws):
    """Assigned bits (b1, b2) of the attempts whose windows
    (prog.layout(noise)) are the columns of u, run as array steps over all
    of them. u[0] sets the prepared state: |+1> below 1 - init_error_prob, else |0> below
    1 - init_error_prob / 2, else |-1>. The pre-readout pulses, readout 1,
    the mid pulses and readout 2 follow, each on its own uniforms.

    The prepared states are real and every pulse is a real rotation, so
    amplitudes are held as real rows, one column per attempt. Every float
    step over the attempts runs in place in the workspace ws, one column
    per attempt: the rows a, b, c, two scratch rows, then the blocks of
    _noisy_apply_rows."""
    pre, first, mid, second, _ = prog.layout(noise)
    p = noise.init_error_prob
    plus = u[0] < 1.0 - p
    zero = ~plus & (u[0] < 1.0 - p / 2.0)
    ws[0], ws[1], ws[2] = plus, zero, ~(plus | zero)
    rows, ws = list(ws[:5]), ws[5:]
    std = noise.pulse_angle_error_std
    _noisy_apply_rows(prog.pre_pulses, std, u[pre:first], rows, ws)
    one, b1 = _readout_rows(u[first:mid], rows[0], eps)
    _collapse_rows(u[first:mid], one, rows, noise.nuclear_flip_prob)
    _noisy_apply_rows(prog.mid_pulses, std, u[mid:second], rows, ws)
    _, b2 = _readout_rows(u[second:], rows[0], eps)
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
    run together as array steps (_run_rows), one per pulse and readout, in
    a workspace of flat buffers that the call owns and drops on return.
    """
    noise = config.noise
    shots = config.shots_per_term
    p_charge = noise.charge_good_prob
    budget = config.attempt_budget()
    eps = misassignment_probabilities(noise)
    programs = shot_programs(config.pair_order)
    tables = np.zeros((len(programs), 4), dtype=np.int64)
    kept_total = 0
    discarded_total = 0
    # the call's workspace: flat buffers, each grown to the largest view asked of it
    drawn = taken = kernel = np.empty(0)
    for prog, table in zip(programs, tables):
        pre, first, mid, second, width = prog.layout(noise)
        # _run_rows' rows: five state rows, three per normal of the longer pulse string
        depth = 5 + 3 * max(first - pre, second - mid)
        rng = group_rng(config.seed, prog.group)
        kept = attempts = 0
        while kept < shots and attempts < budget:
            # aim at the shots still needed plus a margin of about four
            # standard deviations
            need = shots - kept
            aim = math.ceil((need + 4.0 * math.sqrt(need) + 8.0) / p_charge)
            windows = min(aim, DRAW_UNIFORMS // width, budget - attempts)
            if drawn.size < windows * width:
                drawn = np.empty(windows * width)
            u = rng.random(out=drawn[: windows * width].reshape(windows, width))
            good = np.flatnonzero(u[:, 1] < p_charge)[:need]
            n = len(good)
            kept += n
            # the group ends at its shots-th passing window, which is counted
            attempts += int(good[-1]) + 1 if kept == shots else windows
            if not n:
                continue
            if good[-1] >= n:  # a window failed the check: gather the passing ones
                if taken.size < n * width:
                    taken = np.empty(n * width)
                u = u.take(good, axis=0, out=taken[: n * width].reshape(n, width), mode="clip")
            if kernel.size < depth * n:
                del kernel  # the largest buffer: old and new together would set the peak
                kernel = np.empty(depth * n)
            b1, b2 = _run_rows(prog, noise, eps, u[:n].T, kernel[: depth * n].reshape(depth, n))
            table += np.bincount(2 * b1 + b2, minlength=4)
        if kept < shots:
            raise InsufficientData(
                f"group {prog.group}: only {kept} of {shots} shots kept "
                f"(charge_good_prob = {p_charge})"
            )
        kept_total += kept
        discarded_total += attempts - kept
    tables = tables.reshape(-1, 2, 2)
    successes = recorded_terms(programs, tables)
    counts = np.array([successes[name] for name in TERM_NAMES], dtype=float)
    means, errs, combined = estimate_stats(counts, shots)
    terms = TermSet.from_vector(means)
    plain = kcbs_value(terms)
    modified = modified_kcbs_value(terms)
    return ExperimentResult(
        terms=terms,
        stderrs=TermSet.from_vector(errs),
        successes=successes,
        tables=tables,
        shots_per_term=shots,
        kept_shots=kept_total,
        discarded_shots=discarded_total,
        kcbs_value=plain,
        inequality_value=modified,
        inequality_stderr=combined,
        violation_sigma=(modified - 2.0) / combined,
    )
