"""The batched sampler of the protocol: kcbsim.model's shot programs run as
float32 array steps over many kept shots at once, each on its own window
of its group's random stream, into the count tables of a run; a group's
discarded attempts are one negative-binomial draw after its last window.
The uniforms stay float64, so that advance(j * W) and every comparison with
a uniform are those of a float64 sampler; only the kernel's rows are float32.

Without angle noise (pulse_angle_error_std 0) a shot's state before each
readout is one of a few state classes: its prepared state before readout 1,
and that times its first outcome and flip before readout 2. Each program
then runs the kernel once, on one column per class, for the Born
probabilities of its classes (_born_tables), and every shot reads its
class's probability by per-column compares and table lookups
(_run_classes). Every float32 operation of the kernel is correctly rounded,
so a class's column and each of its shots compute the same bits: the
counts are those of the row kernel, bit for bit, at a fraction of its
cost."""

from __future__ import annotations

import functools
import math
from itertools import accumulate, groupby
from typing import NamedTuple

import numpy as np

from .model import ExperimentResult, RunConfig, misassignment_probabilities, shot_programs, table_estimates


def group_rng(seed: int, group: int) -> np.random.Generator:
    """The random stream of one shot group: the PCG64 of
    SeedSequence(seed, spawn_key=(group,)), advanced by 2^64.

    Kept shot j owns the window of uniforms [j * W, (j + 1) * W), W being
    the width of its shot program's layout (_program_steps); the group's
    discard draw starts at shots * W, after its last window.
    `Generator.random` takes exactly one 64-bit output per double, so
    `bit_generator.advance(j * W)` reaches any kept shot's window directly:
    results do not depend on the order in which shots or groups run."""
    seq = np.random.SeedSequence(seed, spawn_key=(group,))
    return np.random.Generator(np.random.PCG64(seq).advance(2**64))


#: Most bytes of one draw's workspace in run_protocol (2.25 MiB). A kept
#: shot's column takes 8 W bytes of float64 uniforms and 4 depth bytes of
#: float32 kernel rows (_program_steps), so a draw runs
#: min(shots, DRAW_BYTES // (8 W + 4 depth)) columns: 8548-13 107 on
#: paper-2015, 65 536 on ideal. Counts do not depend on it. It bounds the
#: workspace of a call, one flat buffer sized once for the largest draw of
#: the six groups, which the memory tests hold under 4 MiB.
DRAW_BYTES = 9 * 2**18


def normal_uniforms(n: int) -> int:
    """Uniforms that n Box-Muller normals consume: one pair per two."""
    return 2 * ((n + 1) // 2)


def _cos_sin(half, cos, d):
    """cos(x) and sin(x) from one tangent, in place: with half = x / 2 and
    tau = tan(half), cos = (1 - tau^2) / (1 + tau^2) and
    sin = 2 tau / (1 + tau^2). The sine overwrites half, the cosine goes to
    cos, and d is scratch of the same shape and dtype. numpy may run tan as
    a vector loop where cos and sin run scalar libm; where it does not, the
    route still halves the transcendental calls. In float64 the pair stays
    within about 1e-16 of libm's, and finite at the tangent's poles."""
    tau = np.tan(half, half)
    np.add(1.0, np.multiply(tau, tau, cos), d)
    np.divide(np.subtract(1.0, cos, cos), d, cos)
    return cos, np.divide(np.add(tau, tau, tau), d, tau)


def _steps(pulses, std: float):
    """The kernel's steps of a pulse string, built once per group and call:
    each run of same-axis neighbours, angles t_i, is one rotation of angle
    T = sum t_i run at T + std w e, w = sqrt(sum t_i^2), with one normal e.
    Rotations on one axis compose, and sum t_i (1 + std e_i) is normal with
    that mean and spread, so this is exact in distribution; exact_tables
    applies one channel per pulse, so the exact backend checks the merge
    independently. Returns (rows, x, y): step k rotates amplitude rows
    rows[k] and rows[k] + 1; x, y are (steps, 1) float32 columns, T / 4 and
    std w / 4 with angle noise on, else the fixed (cos, sin)(T / 2)."""
    runs = [(axis, [t for _, t in run]) for axis, run in groupby(pulses, lambda pulse: pulse[0])]
    xy = np.array([(0.25 * sum(ts), 0.25 * std * math.hypot(*ts)) for _, ts in runs], np.float32)
    x, y = xy.reshape(-1, 2).T[:, :, None]
    if std == 0.0:
        x, y = _cos_sin(x, y, np.empty_like(x))
    return tuple(axis != "a" for axis, _ in runs), x, y


@functools.lru_cache(maxsize=64)
def _program_steps(prog, std: float, on: tuple[bool, bool, bool]):
    """(layout, steps, depth) of a shot program at pulse_angle_error_std
    std and channels on = (init error, nuclear flip, misassignment), as
    run_protocol decides them, memoised on those flags alone, its arrays
    read-only. steps are _steps of its pre and mid pulses; without angle
    noise, their _born_tables instead, which _run_rows reads per column.
    A kept shot's window holds only the uniforms of the channels on, in
    order: init, the pre-step normals (with angle noise), readout 1 (Born,
    flip, assignment), the mid-step normals and readout 2 (Born,
    assignment: nothing collapses after it). The uniforms of a branch not
    taken are skipped, never reused, so that a kept shot's randomness is
    fixed by (seed, group, shot) alone. layout: the offsets of all but the
    first part, and the width W. depth: the float32 workspace rows a column
    takes, 5 without angle noise, of which the class path uses 3."""
    init, flip, assign = on
    steps = _steps(prog.pre_pulses, std), _steps(prog.mid_pulses, std)
    if std == 0.0:
        steps = _born_tables(steps, flip)
        arrays, normals = steps, (0, 0)
    else:
        arrays = [a for _, x, y in steps for a in (x, y)]
        normals = [normal_uniforms(len(first)) for first, _, _ in steps]
    for a in arrays:
        a.flags.writeable = False
    layout = tuple(accumulate((int(init), normals[0], 1 + flip + assign, normals[1], 1 + assign)))
    return layout, steps, 5 + 3 * max(normals)


def _noisy_apply_rows(steps, u, rows, ws):
    """Apply the steps of a pulse string (_steps) to many attempts at once,
    in place.

    rows = [a, b, c, s1, s2] holds the float32 amplitude rows, one column
    per state, then two scratch rows; rows trade places in the list as
    steps run. A step of angle T on axis "a" (or "b") maps (a, b) (or
    (b, c)) to (ch*a + sh*b, ch*b - sh*a), with ch, sh = _cos_sin(T / 4).
    With angle noise on, step k runs at T + std w e_k, the normals e_k
    coming in Box-Muller pairs r * (cos, sin)(2 pi u'), with
    r = sqrt(-2 log(1 - u)), from column j of u: the normal_uniforms(steps)
    float64 uniforms of column j's attempt, none without angle noise.
    1 - u and pi u' are rounded to float32 once; the rest runs in float32,
    its (steps x attempts) blocks in the first 3 * len(u) rows of the
    workspace ws."""
    first, ch, sh = steps
    if len(u):
        e, cos, d = ws[: 3 * len(u)].reshape(3, len(u), -1)
        r = d[::2]
        _cos_sin(np.multiply(math.pi, u[1::2], e[1::2]), e[::2], r)  # half of 2 pi u'
        np.sqrt(np.multiply(-2.0, np.log(np.subtract(1.0, u[::2], r), r), r), r)
        e[::2] *= r
        e[1::2] *= r
        m = len(first)
        e = e[:m]  # (m, n): step k's normal in every column
        # from T / 4 and std w / 4 to the tangent's argument (T + std w e) / 4
        ch, sh = _cos_sin(np.add(ch, np.multiply(sh, e, e), e), cos[:m], d[:m])
    for k, i in enumerate(first):  # step k rotates rows[i] and rows[i + 1]
        x, y, s, tmp = rows[i], rows[i + 1], rows[3], rows[4]
        np.multiply(ch[k], x, s)
        s += np.multiply(sh[k], y, tmp)
        np.multiply(sh[k], x, tmp)
        np.subtract(np.multiply(ch[k], y, x), tmp, y)
        rows[i], rows[3] = s, x


def _readout_rows(u, rows, misassignment: tuple[float, float] | None):
    """True outcomes (True for |+1>) and assigned bits of one readout of
    the attempts whose readout uniforms are the columns of u and whose
    states are the float32 rows = [a, b, c, s1, s2]. u[0] below the |+1>
    population relative to the norm, a^2 / ((b^2 + c^2) + a^2), computed
    in the scratch rows s1, s2, gives the |+1> outcome. In float32 the norm
    drifts by about 1e-7 a pulse, where leakage between levels stays near
    1e-15: so a population that is 1 exactly reads 1, not the 0.9999998 of
    a plain a^2. Both float32 effects sit far below the ~1e-4 resolution
    of the largest run allowed, MAX_ATTEMPTS attempts a group. The last
    uniform u[-1] then assigns the bit (_assigned)."""
    a, b, c, p, norm = rows
    np.multiply(b, b, norm)
    norm += np.multiply(c, c, p)
    norm += np.multiply(a, a, p)
    one = u[0] < np.divide(p, norm, p)
    return one, _assigned(one, u[-1], misassignment)


def _assigned(one, u, misassignment: tuple[float, float] | None):
    """The bits assigned to the true outcomes `one` (True for |+1>) from
    their assignment uniforms u: u below its outcome's Poisson tail
    probability in `misassignment` = (P(assign 1 | true 0),
    P(assign 0 | true 1)), as misassignment_probabilities gives them,
    misassigns it; off (None), the bit is the outcome."""
    if misassignment is None:
        return one
    # not np.where(one, ...): a select over three bool arrays runs numpy's
    # generic loop, about 5.7 ns a column, where & | ~ run 2-3x faster
    return (one & (u >= misassignment[1])) | (~one & (u < misassignment[0]))


def _collapse_rows(u, one, rows, flip_prob: float | None):
    """Replace the states in the amplitude rows a, b, c of rows by the
    post-measurement states of the readout whose uniforms are the columns
    of u and whose true outcomes are `one`: |+1> on that outcome, else the
    projection (0, b, c), left unnormalised because _readout_rows reads
    populations relative to the norm. With flips on, a dark outcome with
    u[1] < flip_prob is a nuclear flip instead: |0> where
    u[1] < flip_prob / 2, else |-1>. Given the flip, u[1] / flip_prob is
    uniform on [0, 1), so the pick is fair. Off (None), nothing flips."""
    a, b, c = rows[:3]
    kept = ~one  # the states left projected
    if flip_prob is not None:
        flip = kept & (u[1] < flip_prob)
        zero = flip & (u[1] < 0.5 * flip_prob)
        kept ^= flip
    np.copyto(a, one)
    # not np.copyto(..., where=): a masked copy runs numpy's slow generic
    # loop, up to about 4 ns a column. A replaced state still comes out an
    # exact basis vector, its zeros +0.0: x * 0 + 0.0 is +0.0 for any x
    b *= kept
    c *= kept
    if flip_prob is not None:
        b += zero  # 1 on a flip to |0>
        c += flip ^ zero


class _Born(NamedTuple):
    """The Born probabilities of a shot program without angle noise, one
    per state class, as _readout_rows computes them in float32. first[c]:
    readout 1 of prepared class c (0, 1, 2 for |+1>, |0>, |-1>).
    second[6 c + 3 o + d]: readout 2 after true outcome o of readout 1 (1
    for |+1>) and dark class d (0 kept, 1 flipped to |-1>, 2 flipped to
    |0>), which a |+1> outcome ignores."""

    first: np.ndarray
    second: np.ndarray


def _born_tables(steps, flips: bool) -> _Born:
    """_Born of the steps (_steps, no angle noise) of a program's pre and
    mid pulses, from the sampler's own _noisy_apply_rows, _readout_rows and
    _collapse_rows run on one column per class (c, o, d), 18 in all; never
    from exact_tables, which the sampler is checked against. A column's
    flip is decided at flip_prob 1 from flip uniform 1.0, 0.75 or 0.0 for
    d = 0, 1, 2: a flip leaves the same basis state at any flip_prob, and
    a kept state the same projection. With flips off (flips False) no
    column flips, and no run reads d = 1, 2."""
    c, o, d = np.indices((3, 2, 3)).reshape(3, -1)
    ws = np.zeros((5, len(c)), np.float32)
    ws[c, np.arange(len(c))] = 1.0  # the prepared basis state of class c
    rows, u = list(ws), np.array([np.zeros(len(c)), np.array([1.0, 0.75, 0.0])[d]])
    _noisy_apply_rows(steps[0], u[:0], rows, ws[5:])
    _readout_rows(u, rows, None)
    first = rows[3][::6].copy()  # _readout_rows leaves the Born probability in rows[3]
    _collapse_rows(u, o == 1, rows, 1.0 if flips else None)
    _noisy_apply_rows(steps[1], u[:0], rows, ws[5:])
    _readout_rows(u, rows, None)
    return _Born(first, rows[3].copy())


def _run_classes(layout, born, channels, u, ws):
    """_run_rows without angle noise: every column of a state class has
    the same state before each readout, so it reads its Born probability
    from the program's _Born tables instead of running the pulses. The
    classes come from the uniforms by the kernel's own decisions, and each
    readout is the kernel's compare with the same float32 probability:
    every float32 operation is correctly rounded, so a class's one column
    in _born_tables computes its members' bits exactly, and the assigned
    bits are the kernel's, bit for bit. The per-column scratch is ws's
    first three rows: the columns' int64 class keys, then their Born
    probabilities."""
    _, first, mid, second, _ = layout
    p, flip, tails = channels
    key, born_p = ws[:2].reshape(-1).view(np.int64), ws[2]
    if p is None:  # every column in class 0
        one = u[first] < born.first[0]
        np.multiply(one, 3, key)  # 6 c + 3 o
    else:  # class 0, 1, 2 below 1 - p, below 1 - p / 2, above
        np.greater_equal(u[0], 1.0 - p, key)
        key += u[0] >= 1.0 - p / 2.0
        one = u[first] < np.take(born.first, key, out=born_p)
        key *= 2
        key += one
        key *= 3  # 6 c + 3 o
    b1 = _assigned(one, u[mid - 1], tails)
    if flip is not None:  # + d
        key += u[first + 1] < flip
        key += u[first + 1] < 0.5 * flip
    one = u[second] < np.take(born.second, key, out=born_p)
    return b1, _assigned(one, u[-1], tails)


def _run_rows(layout, steps, channels, u, ws):
    """Assigned bits (b1, b2) of the attempts whose windows are the columns
    of u, run as array steps over all of them; steps are _steps of the
    program's pre and mid pulses (_program_steps), and its layout only
    slices u. channels = (init_error_prob, nuclear_flip_prob, misassignment
    tails) are the channels applied, each None where off. With init errors
    on, u[0] sets the prepared state: |+1> below 1 - init_error_prob, else
    |0> below 1 - init_error_prob / 2, else |-1>; off, every state is |+1>.
    The pre-readout pulses, readout 1 and its collapse, the mid pulses and
    readout 2 follow, each on its own uniforms.

    The prepared states are real and every pulse is a real rotation, so
    amplitudes are held as real rows, one column per attempt, in place in
    the float32 workspace ws: the rows a, b, c, two scratch rows, then the
    blocks of _noisy_apply_rows. Only the readouts normalise: a state
    after the first readout keeps the norm of its projection.

    Without angle noise the plan holds a program's _Born tables in place of
    its steps, and the same decisions run as per-column compares and table
    lookups (_run_classes), to the same bits."""
    if isinstance(steps, _Born):
        return _run_classes(layout, steps, channels, u, ws)
    pre, first, mid, second, _ = layout
    p, flip, tails = channels
    plus, below = (u[0] < 1.0 - p, u[0] < 1.0 - p / 2.0) if p is not None else (np.True_, np.True_)
    ws[0], ws[1], ws[2] = plus, below & ~plus, ~below
    rows, ws = list(ws[:5]), ws[5:]
    _noisy_apply_rows(steps[0], u[pre:first], rows, ws)
    one, b1 = _readout_rows(u[first:mid], rows, tails)
    _collapse_rows(u[first:mid], one, rows, flip)
    _noisy_apply_rows(steps[1], u[mid:second], rows, ws)
    _, b2 = _readout_rows(u[second:], rows, tails)
    return b1, b2


def run_protocol(config: RunConfig) -> ExperimentResult:
    """Run the full sequential-measurement protocol.

    Every group keeps shots_per_term shots, each running: initialize ->
    noisy preparation and setting pulses -> first readout -> noisy swap (or
    undo) pulses -> second readout, on its own window of the group's stream
    (see group_rng) that holds the uniforms of its channels that are on
    (_program_steps). The charge check does not depend on the state, so the
    group then draws its failed checks before the shots-th pass from the
    same stream at once, NB(shots, charge_good_prob) of them, and discards
    them (numpy samples NB as a Poisson-Gamma mixture, exact in
    distribution). RunConfig admits only runs that finish, so this raises
    nothing of its own. Results are independent of execution order and of
    how many windows are drawn at once; identical configurations reproduce
    identical counts. The windows of each draw run together as array steps
    (_run_rows), one per pulse step and readout, or, without angle noise,
    as per-column lookups of their state classes' Born probabilities, to
    the same counts bit for bit (_run_classes), in one flat workspace of at
    most DRAW_BYTES that the call owns and drops on return, so that glibc
    does not trim the heap and fault it back in between draws. The result
    is table_estimates of the count tables, as for the exact backend's
    expected counts.
    """
    noise = config.noise
    shots = config.shots_per_term
    # a channel is on at a probability of 2^-53 or more: Generator.random
    # draws multiples of 2^-53, so below that u < p could hold only at
    # u = 0.0, and off it never does, less than 2^-53 from the model's
    # rate. ideal's bright tail, 1.14e-30, is off
    eps = misassignment_probabilities(noise)
    init, flip = (q if q >= 2.0**-53 else None for q in (noise.init_error_prob, noise.nuclear_flip_prob))
    channels = init, flip, eps if max(eps) >= 2.0**-53 else None
    on = tuple(q is not None for q in channels)
    programs = shot_programs(config.pair_order)
    plans = [_program_steps(prog, noise.pulse_angle_error_std, on) for prog in programs]
    # the call's workspace: one flat buffer, sized once for the largest
    # draw of the six groups. A draw of n columns views its float64
    # uniforms in the first 8 n W bytes and its float32 kernel rows in the
    # next 4 n depth, so DRAW_BYTES bounds both together
    column_bytes = [8 * layout[-1] + 4 * depth for layout, _, depth in plans]
    draws = [min(shots, DRAW_BYTES // size) for size in column_bytes]
    workspace = np.empty(max(n * size for n, size in zip(draws, column_bytes)), np.uint8)
    tables = np.zeros((len(programs), 4), dtype=np.int64)
    discarded = 0
    for group, ((layout, steps, depth), per_draw, table) in enumerate(zip(plans, draws, tables)):
        rng = group_rng(config.seed, group)
        width = layout[-1]
        for start in range(0, shots, per_draw):
            n = min(per_draw, shots - start)
            u = rng.random(out=np.ndarray((n, width), np.float64, workspace))
            ws = np.ndarray((depth, n), np.float32, workspace, 8 * n * width)
            b1, b2 = _run_rows(layout, steps, channels, u.T, ws)
            # (0, 0), (0, 1), (1, 0), (1, 1) from three counts: no bincount
            # of 2 b1 + b2, whose integer arithmetic and histogram cost more
            ones, twos, both = np.count_nonzero(b1), np.count_nonzero(b2), np.count_nonzero(b1 & b2)
            table += (n - ones - twos + both, twos - both, ones - both, both)
        discarded += int(rng.negative_binomial(shots, noise.charge_good_prob))
    return table_estimates(programs, tables.reshape(-1, 2, 2), shots, discarded)
