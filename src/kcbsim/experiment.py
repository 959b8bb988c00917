"""The batched sampler of the protocol: kcbsim.model's shot programs run as
float32 array steps over many kept shots at once, each on its own window
of its group's random stream, into the count tables of a run; a group's
discarded attempts are one negative-binomial draw after its last window.
The windows run in draws (_draws): with angle noise, whole groups share a
draw while it fits DRAW_BYTES, and each step of the row kernel runs once a
draw over the columns of all its groups. A call with angle noise and
more than two draws fills its first draw's windows itself and each next
draw's on a one-worker executor while the row kernel runs in the calling
thread, at the other end of the call's workspace; every other call fills
each draw in turn, in the calling thread. The uniforms stay float64, so that
advance(j * W) and every comparison with a uniform are those of a float64
sampler; only the kernel's rows are float32."""

from __future__ import annotations

import contextlib
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate, groupby, pairwise
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
#: float32 kernel rows (_program_steps), depth being the deepest of its
#: draw's groups, so a group fits one draw up to DRAW_BYTES // (8 W + 4 depth)
#: columns: 8548-13 107 on paper-2015, 65 536 on ideal; a larger one is
#: split (_draws). With angle noise, whole groups share a draw while it
#: fits: paper-2015's six up to 1577 shots in either pair order, one a draw
#: at its preset 8000. Counts do not depend on it. It bounds the workspace of
#: a call, one flat buffer allocated with 63 bytes to spare for its 64-byte
#: line. Any other call than one that fills ahead holds one draw at a time,
#: at most DRAW_BYTES. A call that fills ahead (angle noise, more than two
#: draws) holds a draw and the next draw's windows at once, at opposite
#: ends of the buffer (run_protocol's fill), each of the three blocks in
#: whole lines: at most DRAW_BYTES + its largest draw's windows + 3 x 63,
#: 3.65 MiB on paper-2015 from 13 107 shots. The memory tests hold either
#: under 4 MiB.
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
    independently. Returns (first, x, y): step k rotates amplitude rows
    first[k] and first[k] + 1, 0 on axis "a" and 1 on "b"; x, y are
    (steps, 1) float32 columns, T / 4 and std w / 4."""
    runs = [(axis, [t for _, t in run]) for axis, run in groupby(pulses, lambda pulse: pulse[0])]
    xy = np.array([(0.25 * sum(ts), 0.25 * std * math.hypot(*ts)) for _, ts in runs], np.float32)
    x, y = xy.reshape(-1, 2).T[:, :, None]
    return tuple(int(axis != "a") for axis, _ in runs), x, y


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
        steps = _born_tables(steps)
        arrays, normals = steps, (0, 0)
    else:
        arrays = [a for _, x, y in steps for a in (x, y)]
        normals = [normal_uniforms(len(first)) for first, _, _ in steps]
    for a in arrays:
        a.flags.writeable = False
    layout = tuple(accumulate((int(init), normals[0], 1 + flip + assign, normals[1], 1 + assign)))
    return layout, steps, 5 + 3 * max(normals)


def _step_runs(strings):
    """For each step k of the pulse strings of a draw's segments (as
    _noisy_apply_rows takes them), the [row, lo, hi] of each maximal run of
    neighbouring segments whose k-th step is on one axis: columns lo:hi,
    from that axis' first amplitude row (_steps). Segments without a k-th
    step are in no run."""
    runs = []
    for lo, hi, (first, _, _), _ in strings:
        for k, i in enumerate(first):
            if k == len(runs):
                runs.append([])
            if runs[k] and runs[k][-1][0] == i and runs[k][-1][2] == lo:
                runs[k][-1][2] = hi
            else:
                runs[k].append([i, lo, hi])
    return runs


def _noisy_apply_rows(strings, rows, ws):
    """Apply pulse strings to the columns of the amplitude rows, in place:
    strings holds, segment by segment, (lo, hi, steps, u): the segment's
    columns lo:hi of the draw, the steps (_steps) of its string and the
    (normal uniforms x columns) block u of its normals.

    rows = [a, b, c, s1, s2] holds the float32 amplitude rows, one column
    per state, then two scratch rows. A step of angle T on axis "a" (or
    "b") maps (a, b) (or (b, c)) to (ch*a + sh*b, ch*b - sh*a), with
    ch, sh = _cos_sin(T / 4), in place, since a step may rotate only part
    of a row: t = sh*a, a = ch*a + sh*b, b = ch*b - t. Step k runs at
    T + std w e_k, the normals e_k coming in Box-Muller pairs
    r * (cos, sin)(2 pi u'), with r = sqrt(-2 log(1 - u)), from the
    segment's column j of u: the normal_uniforms(steps) float64 uniforms of
    column j's attempt. 1 - u and pi u' are rounded to float32 once; the
    rest runs in float32, its (steps x columns) blocks in the first rows of
    the workspace ws.

    Only what reads a segment's own rows runs per segment: filling the
    Box-Muller inputs (its cells beyond its own normals get u' = 0 and
    1 - u = 1, so tan and log read no leftover workspace) and adding its
    own step angles. The Box-Muller transform and the cosines and sines
    of the step angles run once over all columns. Step k runs once per
    maximal run of neighbouring segments whose k-th step is on one axis.
    A string without steps in any segment does nothing."""
    m = max(len(first) for _, _, (first, _, _), _ in strings)
    if m == 0:
        return
    h = (m + 1) // 2  # Box-Muller pairs
    e, cos, d = ws[: 6 * h].reshape(3, 2 * h, -1)
    r = d[::2]
    for lo, hi, _, u in strings:
        k = len(u) // 2  # the segment's own pairs
        np.multiply(math.pi, u[1::2], e[1 : 2 * k : 2, lo:hi])  # half of 2 pi u'
        np.subtract(1.0, u[::2], r[:k, lo:hi])
        if k < h:
            e[2 * k + 1 :: 2, lo:hi] = 0.0
            r[k:, lo:hi] = 1.0
    _cos_sin(e[1::2], e[::2], cos[::2])
    np.sqrt(np.multiply(-2.0, np.log(r, r), r), r)
    e[::2] *= r
    e[1::2] *= r
    # from T / 4 and std w / 4 to the tangent's argument (T + std w e) / 4
    for lo, hi, (first, x, y), _ in strings:
        own = e[: len(first), lo:hi]
        np.add(x, np.multiply(y, own, own), own)
    ch, sh = _cos_sin(e[:m], cos[:m], d[:m])
    t, s = rows[3], rows[4]
    for k, runs in enumerate(_step_runs(strings)):
        for i, lo, hi in runs:
            if hi - lo == len(t):  # whole rows, as in every draw of one group: no views to make
                x, y, c, sn, tk, sk = rows[i], rows[i + 1], ch[k], sh[k], t, s
            else:
                x, y, c, sn, tk, sk = rows[i][lo:hi], rows[i + 1][lo:hi], ch[k, lo:hi], sh[k, lo:hi], t[lo:hi], s[lo:hi]
            np.multiply(sn, x, tk)
            x *= c
            x += np.multiply(sn, y, sk)
            y *= c
            y -= tk


def _prepared(u, p: float):
    """The prepared states of the attempts whose init uniforms are u, as
    the masks (away, minus): |+1> below 1 - p, else |0> below 1 - p / 2,
    else |-1>. away marks |0> and |-1>, minus |-1> alone."""
    return u >= 1.0 - p, u >= 1.0 - p / 2.0


def _born_rows(rows):
    """The |+1> Born probabilities of the states in the float32 rows
    [a, b, c, s1, s2]: the |+1> population relative to the norm,
    a^2 / ((b^2 + c^2) + a^2), computed in the scratch rows and returned
    in s1. In float32 the norm drifts by about 1e-7 a pulse, where leakage
    between levels stays near 1e-15: so a population that is 1 exactly
    reads 1, not the 0.9999998 of a plain a^2. Both float32 effects sit far
    below the ~1e-4 resolution of the largest run allowed, MAX_ATTEMPTS
    attempts a group."""
    a, b, c, p, norm = rows
    np.multiply(b, b, norm)
    norm += np.multiply(c, c, p)
    norm += np.multiply(a, a, p)
    return np.divide(p, norm, p)


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


def _flips(u, flip_prob: float):
    """The flip masks (flip, zero) of the attempts whose flip uniforms are
    u: a dark outcome flips where u < flip_prob, to |0> where
    u < flip_prob / 2, else to |-1>. Given the flip, u / flip_prob is
    uniform on [0, 1), so the pick is fair. A bright outcome ignores both."""
    return u < flip_prob, u < 0.5 * flip_prob


def _collapse_rows(one, flips, rows):
    """Replace the states in the amplitude rows a, b, c of rows by the
    post-measurement states of a readout whose true outcomes are `one`:
    |+1> on that outcome, else the projection (0, b, c), left unnormalised
    because _born_rows reads populations relative to the norm. With flips
    on, a dark outcome whose flip mask (_flips) is set becomes |0> or |-1>
    instead; off (None), nothing flips."""
    a, b, c = rows[:3]
    kept = ~one  # the states left projected
    if flips is not None:
        flip = kept & flips[0]
        zero = flip & flips[1]
        kept ^= flip
    np.copyto(a, one)
    # not np.copyto(..., where=): a masked copy runs numpy's slow generic
    # loop, up to about 4 ns a column. A replaced state still comes out an
    # exact basis vector, its zeros +0.0: x * 0 + 0.0 is +0.0 for any x
    b *= kept
    c *= kept
    if flips is not None:
        b += zero  # 1 on a flip to |0>
        c += flip ^ zero


class _Born(NamedTuple):
    """The Born probabilities of a shot program without angle noise, one
    per state class, as _born_rows computes them in float32. first[c]:
    readout 1 of prepared class c (0, 1, 2 for |+1>, |0>, |-1>).
    second[6 c + 3 o + d]: readout 2 after true outcome o of readout 1 (1
    for |+1>) and dark class d (0 kept, 1 flipped to |-1>, 2 flipped to
    |0>), which a |+1> outcome ignores."""

    first: np.ndarray
    second: np.ndarray


def _born_tables(steps) -> _Born:
    """_Born of the steps (_steps at std 0) of a program's pre and mid
    pulses, from the sampler's own _noisy_apply_rows, _born_rows and
    _collapse_rows run on one column per class (c, o, d), 18 in all; never
    from exact_tables, which the sampler is checked against. Zero uniforms
    make every normal exactly 0, and the class masks (d > 0, d == 2) stand
    in for the flip masks: a flip leaves the same basis state whatever its
    uniform. A run without flips reads only d = 0."""
    c, o, d = np.indices((3, 2, 3)).reshape(3, -1)
    u = [np.zeros((normal_uniforms(len(first)), len(c))) for first, _, _ in steps]
    ws = np.zeros((5 + 3 * max(map(len, u)), len(c)), np.float32)
    ws[c, np.arange(len(c))] = 1.0  # the prepared basis state of class c
    rows = ws[:5]
    _noisy_apply_rows([(0, len(c), steps[0], u[0])], rows, ws[5:])
    first = _born_rows(rows)[::6].copy()
    _collapse_rows(o == 1, (d > 0, d == 2), rows)
    _noisy_apply_rows([(0, len(c), steps[1], u[1])], rows, ws[5:])
    with np.errstate(invalid="ignore"):  # 0 / 0: a dark class of norm 0
        second = _born_rows(rows)
    return _Born(first, np.nan_to_num(second, nan=0.0))


def _run_rows(spans, channels, ws):
    """Assigned bits [(b1, b2), ...] of the attempts of a draw, segment by
    segment: spans holds (lo, hi, layout, steps, u) of each group in the
    draw, lo:hi its columns of the float32 workspace ws as run_protocol
    lays them out, u's columns the windows of its attempts; a program's
    layout (_program_steps) only slices its u. channels = (init_error_prob,
    nuclear_flip_prob, misassignment tails) are the channels applied, each
    None where off. Every per-shot rule runs here once, on each segment's
    own uniforms: the prepared state (_prepared; |+1> with init errors
    off), readout 1's compare u < P with its Born probability P and its
    assignment (_assigned), a dark outcome's flip (_flips), then readout
    2's compare and assignment. The two paths below differ only in where
    each P comes from.

    With angle noise, steps are _steps of the program's pre and mid pulses,
    run as array steps over all the draw's columns (_noisy_apply_rows). The
    prepared states are real and every pulse is a real rotation, so
    amplitudes are held as real rows, one column per attempt, in place in
    ws: the rows a, b, c, two scratch rows, then the blocks of
    _noisy_apply_rows. P is _born_rows after the pulses, and _collapse_rows
    sets the states that readout 1 and the flips leave; both run once over
    all the columns. Only the readouts normalise: a state after the first
    readout keeps the norm of its projection.

    Without angle noise (the class path), a draw is one segment, and a
    column's state before each readout is one of a few state classes: its
    prepared state c before readout 1, and (c, its outcome o, its dark
    class d) before readout 2. steps are then the program's _Born tables,
    and P is the entry of the column's class, looked up by the int64 key
    6 c + 3 o + d in ws's first two rows into its third. Every float32
    operation of the kernel is correctly rounded, so a class's one column
    in _born_tables computes each member's P bit for bit: the counts are
    the row kernel's, at a fraction of its cost."""
    p, flip, tails = channels
    if classes := isinstance(spans[0][3], _Born):
        ((_, _, _, tables, u),) = spans  # one segment a draw
        key, born = ws[:2].reshape(-1).view(np.int64), ws[2]
        if p is None:  # every column in class 0
            born1 = [tables.first[0]]
        else:
            np.add(*_prepared(u[0], p), key, dtype=np.int64)  # c
            born1 = [np.take(tables.first, key, out=born)]
    else:
        rows = ws[:5]
        for lo, hi, _, _, u in spans:
            away, minus = _prepared(u[0], p) if p is not None else (np.False_, np.False_)
            rows[0][lo:hi], rows[1][lo:hi], rows[2][lo:hi] = ~away, away ^ minus, minus
        _noisy_apply_rows([(lo, hi, steps[0], u[layout[0] : layout[1]]) for lo, hi, layout, steps, u in spans],
                          rows, ws[5:])
        born = _born_rows(rows)
        born1 = [born[lo:hi] for lo, hi, _, _, _ in spans]
    ones, b1, flips = [], [], []
    for (_, _, (_, first, mid, _, _), _, u), p1 in zip(spans, born1):
        ones.append(u[first] < p1)
        b1.append(_assigned(ones[-1], u[mid - 1], tails))
        flips.append(_flips(u[first + 1], flip) if flip is not None else None)
    if classes:
        if p is None:
            np.multiply(ones[0], 3, key)  # 6 c + 3 o
        else:
            key *= 2
            key += ones[0]
            key *= 3
        if flip is not None:  # + d
            key += flips[0][0]
            key += flips[0][1]
        born2 = [np.take(tables.second, key, out=born)]
    else:
        _collapse_rows(_joined(ones), None if flip is None else tuple(map(_joined, zip(*flips))), rows)
        _noisy_apply_rows([(lo, hi, steps[1], u[layout[2] : layout[3]]) for lo, hi, layout, steps, u in spans],
                          rows, ws[5:])
        born = _born_rows(rows)
        born2 = [born[lo:hi] for lo, hi, _, _, _ in spans]
    return [(bits, _assigned(u[layout[3]] < p2, u[-1], tails))
            for (_, _, layout, _, u), bits, p2 in zip(spans, b1, born2)]


def _joined(parts):
    """The per-segment arrays parts as one array over the draw's columns:
    a draw of one segment copies nothing."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Draw(NamedTuple):
    """One draw of run_protocol: its (group, columns) segments in column
    order, the depth of its kernel rows (its deepest group's,
    _program_steps), its columns, and the bytes of its float64 windows,
    8 W a column."""

    segments: list
    depth: int
    columns: int
    windows: int

    @property
    def rows(self) -> int:
        """The bytes of the draw's float32 kernel rows."""
        return 4 * self.depth * self.columns

    @property
    def nbytes(self) -> int:
        """The draw's workspace: its windows, then its kernel rows."""
        return self.windows + self.rows


def _draws(plans, shots: int, shared: bool) -> list[_Draw]:
    """The draws of a call, in order, from the groups' plans
    (_program_steps). A group that fits DRAW_BYTES whole joins the last
    draw while that stays within DRAW_BYTES (shared: the row kernel, which
    runs each step once a draw) or takes a draw of its own (the class path).
    Sharing draws, the class path ran ideal 7 % faster at 300 shots and 3 %
    at 3000, but 5 % slower at its 10 000 (0.82 to 0.86 ms a call, slower
    in 33 of 40 alternated rounds, on a Xeon with 2 MiB of L2 cache a
    core): there the six groups fill one 2.16 MB draw, which no longer fits
    in L2. A group that does not fit takes as many draws as it needs, each
    as many columns as fit, the last the rest."""
    draws = []
    for group, (layout, _, depth) in enumerate(plans):
        window = 8 * layout[-1]
        per_draw = min(shots, DRAW_BYTES // (window + 4 * depth))
        if per_draw < shots:
            draws += [_Draw([(group, n)], depth, n, window * n)
                      for n in (min(per_draw, shots - start) for start in range(0, shots, per_draw))]
            continue
        if shared and draws:
            last = draws[-1]
            joined = _Draw([*last.segments, (group, shots)], max(last.depth, depth), last.columns + shots,
                           last.windows + window * shots)
            if joined.nbytes <= DRAW_BYTES:
                draws[-1] = joined
                continue
        draws.append(_Draw([(group, shots)], depth, shots, window * shots))
    return draws


def _lines(nbytes: int) -> int:
    """nbytes rounded up to whole 64-byte lines."""
    return -(-nbytes // 64) * 64


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
    identical counts. The windows run in the draws of _draws: each group's
    block of windows comes from its own stream into its own part of the
    draw, and the draw's groups run together (_run_rows), in one flat
    workspace that the call owns and drops on return, so that glibc does
    not trim the heap and fault it back in between draws. A call with
    angle noise and more than two draws fills its first draw itself and
    each next one on a one-worker ThreadPoolExecutor while the row kernel
    runs, and its workspace holds two draws' windows at once, at opposite
    ends, with the kernel rows of the draw being run (fill). The worker
    alone touches the streams from its first fill to the last, and it is
    joined before the discards are drawn and before the call returns or
    raises. Every other call fills its draws in turn, and its workspace
    holds one draw, at most DRAW_BYTES. The result is table_estimates of
    the count tables, as for the exact backend's expected counts.
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
    draws = _draws(plans, shots, noise.pulse_angle_error_std > 0.0)
    # with two draws the thread would overlap one fill, which paid less
    # than its start and the kernel's reads of windows filled on the other
    # core: paper-2015 at 1578 and 3000 shots ran x0.89-0.99
    ahead = noise.pulse_angle_error_std > 0.0 and len(draws) > 2
    # the call's workspace: one flat buffer, sized once for its largest
    # draw, and when filling ahead for the largest draw's blocks and the
    # next draw's windows, in whole lines (fill). It starts on a 64-byte
    # line: malloc aligns to 16 bytes only, so the offset would follow the
    # heap's history; on an AVX-512 host the row kernel ran 10-20 % slower
    # off the line
    if ahead:  # the last draw has no next draw's windows beside it
        size = max(_lines(draw.windows) + _lines(draw.rows) + _lines(next_.windows)
                   for draw, next_ in pairwise([*draws, _Draw([], 0, 0, 0)]))
    else:
        size = max(draw.nbytes for draw in draws)
    workspace = np.empty(size + 63, np.uint8)
    workspace = workspace[-workspace.ctypes.data % 64 :][:size]
    rngs = [group_rng(config.seed, group) for group in range(len(plans))]

    def fill(i):
        """Fill draw i's windows from the groups' streams and return the
        (spans, ws) that _run_rows takes. Segment by segment, a draw's
        windows lie side by side in one block, and its kernel rows ws in
        another. Filling ahead, each block takes whole 64-byte lines and the
        draws alternate between the two ends of the workspace: an even draw
        from the bottom, its windows then its rows, an odd one from the top,
        its windows last, its rows just below them. Otherwise every draw
        starts at the bottom, its rows right after its windows."""
        draw = draws[i]
        if not ahead:
            start, rows = 0, draw.windows
        elif i % 2:
            start = len(workspace) - _lines(draw.windows)
            rows = start - _lines(draw.rows)
        else:
            start, rows = 0, _lines(draw.windows)
        spans, lo, at = [], 0, start
        for group, n in draw.segments:
            layout, steps, _ = plans[group]
            u = rngs[group].random(out=np.ndarray((n, layout[-1]), np.float64, workspace, at))
            spans.append((lo, lo + n, layout, steps, u.T))
            lo, at = lo + n, at + u.nbytes
        return spans, np.ndarray((draw.depth, draw.columns), np.float32, workspace, rows)

    tables = np.zeros((len(programs), 4), dtype=np.int64)
    # i is the next draw. The worker fills it only while the kernel runs
    # this one, whose blocks the draw after next reuses
    with ThreadPoolExecutor(1, "kcbsim-fill") if ahead else contextlib.nullcontext() as pool:
        spans, ws = fill(0)
        for i, draw in enumerate(draws, 1):
            if ahead and i < len(draws):
                following = pool.submit(fill, i)
                if i == len(draws) - 1:
                    # the worker exits during the last kernel: joined after
                    # it, its exit cost ~80 us a call on a 2-core VM
                    pool.shutdown(wait=False)
            for (group, n), (b1, b2) in zip(draw.segments, _run_rows(spans, channels, ws)):
                # (0, 0), (0, 1), (1, 0), (1, 1) from three counts: no bincount
                # of 2 b1 + b2, whose integer arithmetic and histogram cost more
                ones, twos, both = np.count_nonzero(b1), np.count_nonzero(b2), np.count_nonzero(b1 & b2)
                tables[group] += (n - ones - twos + both, twos - both, ones - both, both)
            if i < len(draws):
                spans, ws = following.result() if ahead else fill(i)
    # every group's discards, after its last window in its stream
    discarded = sum(int(rng.negative_binomial(shots, noise.charge_good_prob)) for rng in rngs)
    return table_estimates(programs, tables.reshape(-1, 2, 2), shots, discarded)
