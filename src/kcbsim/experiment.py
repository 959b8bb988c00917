"""The batched sampler of the protocol: kcbsim.model's shot programs run as
float32 array steps over many attempts at once, each attempt on its own
window of its group's random stream, into the count tables of a run."""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import InsufficientData
from .model import ExperimentResult, NoiseModel, RunConfig, misassignment_probabilities
from .model import estimate_stats, shot_programs, table_estimates  # noqa: F401 (perfbench traces estimate_stats)


def group_rng(seed: int, group: int) -> np.random.Generator:
    """The random stream of one shot group, derived from (seed, group).

    Attempt i of the group owns the window of uniforms
    [i * W, (i + 1) * W) of this stream, W being the width of its shot
    program's layout (_program_steps).
    `Generator.random` takes exactly one 64-bit output per double, so
    `bit_generator.advance(i * W)` reaches any attempt's window directly:
    results do not depend on the order in which attempts or groups run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(group,)))


#: Uniforms one readout consumes: Born, nuclear flip, assignment.
READOUT_UNIFORMS = 3
#: Most uniforms one draw of run_protocol holds (256 KiB of float64), and so
#: the most columns of one array step: 1489-4096 windows of 8-22 uniforms.
#: Counts do not depend on it. It bounds the workspace of a call (the draw,
#: its passing windows and the kernel's float32 rows, each grown to the
#: largest a draw asks for), which the memory tests hold under 4 MiB.
DRAW_UNIFORMS = 2**15


def normal_uniforms(n: int) -> int:
    """Uniforms that n Box-Muller normals consume: one pair per two."""
    return 2 * ((n + 1) // 2)


def _cos_sin(half, cos, d):
    """cos(x) and sin(x) from one tangent, in place: with half = x / 2 and
    tau = tan(half), cos = (1 - tau^2) / (1 + tau^2) and
    sin = 2 tau / (1 + tau^2). The sine overwrites half, the cosine goes to
    cos, and d is scratch of the same shape and dtype. numpy may run tan as
    a vector loop where cos and sin run scalar libm; in float64 the pair
    stays within about 1e-16 of libm's, and finite at the tangent's poles."""
    tau = np.tan(half, half)
    np.add(1.0, np.multiply(tau, tau, cos), d)
    np.divide(np.subtract(1.0, cos, cos), d, cos)
    return cos, np.divide(np.add(tau, tau, tau), d, tau)


def _runs(pulses):
    """The runs of same-axis neighbours of a pulse string: (axis, angles)."""
    runs = []
    for axis, t in pulses:
        if runs and runs[-1][0] == axis:
            runs[-1][1].append(t)
        else:
            runs.append((axis, [t]))
    return runs


def _steps(pulses, std: float):
    """The kernel's steps of a pulse string, built once per group and call:
    each run of same-axis neighbours, angles t_i, is one rotation of angle
    T = sum t_i run at T + std w e, w = sqrt(sum t_i^2), with one normal e.
    Rotations on one axis compose, and sum t_i (1 + std e_i) is normal with
    that mean and spread, so this is exact in distribution. Returns
    (rows, x, y): step k rotates amplitude rows rows[k] and rows[k] + 1;
    x, y are (steps, 1) float32 columns, T / 4 and std w / 4 with angle
    noise on, else the fixed (cos, sin)(T / 2)."""
    runs = _runs(pulses)
    xy = np.array([(0.25 * sum(ts), 0.25 * std * math.hypot(*ts)) for _, ts in runs], np.float32)
    x, y = xy.reshape(-1, 2).T[:, :, None]
    if std == 0.0:
        x, y = _cos_sin(x, y, np.empty_like(x))
    return [axis != "a" for axis, _ in runs], x, y


def _program_steps(prog, noise):
    """(layout, steps, depth) of a shot program, once per group and call.
    steps are _steps of its pre and mid pulses. An attempt's window holds
    init and charge, the pre-step normals (none without angle noise),
    readout 1, the mid-step normals and readout 2, a branch not taken
    skipping its uniforms; layout: the offsets of all but the first two and
    the width W. depth: the workspace rows _run_rows uses."""
    std = noise.pulse_angle_error_std
    steps = _steps(prog.pre_pulses, std), _steps(prog.mid_pulses, std)
    normals = [normal_uniforms(len(first)) if std > 0.0 else 0 for first, _, _ in steps]
    layout = tuple(accumulate((2, normals[0], READOUT_UNIFORMS, normals[1], READOUT_UNIFORMS)))
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


def _readout_rows(u, rows, misassignment: tuple[float, float]):
    """True outcomes (True for |+1>) and assigned bits of one readout of
    the attempts whose READOUT_UNIFORMS readout uniforms are the columns of
    u and whose states are the float32 rows = [a, b, c, s1, s2]. u[0] below
    the |+1> population relative to the norm, a^2 / ((b^2 + c^2) + a^2),
    computed in the scratch rows s1, s2, gives the |+1> outcome. In float32
    the norm drifts by about 1e-7 a pulse, where leakage between levels
    stays near 1e-15: so a population that is 1 exactly reads 1, not the
    0.9999998 of a plain a^2. u[2] then misassigns the outcome with the
    Poisson tail probabilities `misassignment` =
    (P(assign 1 | true 0), P(assign 0 | true 1)) that
    misassignment_probabilities gives."""
    a, b, c, p, norm = rows
    np.multiply(b, b, norm)
    norm += np.multiply(c, c, p)
    norm += np.multiply(a, a, p)
    one = u[0] < np.divide(p, norm, p)
    return one, np.where(one, u[2] >= misassignment[1], u[2] < misassignment[0])


def _collapse_rows(u, one, rows, flip_prob: float):
    """Replace the states in the amplitude rows a, b, c of rows by the
    post-measurement states of the readout whose uniforms are the columns
    of u and whose true outcomes are `one`: |+1> on that outcome, else the
    projection (0, b, c), left unnormalised because _readout_rows reads
    populations relative to the norm. A dark outcome with u[1] < flip_prob
    is a nuclear flip instead: |0> where u[1] < flip_prob / 2, else |-1>.
    Given the flip, u[1] / flip_prob is uniform on [0, 1), so the pick is
    fair."""
    a, b, c = rows[:3]
    flip = ~one & (u[1] < flip_prob)
    zero = flip & (u[1] < 0.5 * flip_prob)
    replaced = one | flip  # the states not left projected
    np.copyto(a, one)
    np.copyto(b, zero, where=replaced)  # 1 on a flip to |0>, else 0
    np.copyto(c, flip & ~zero, where=replaced)


def _run_rows(layout, steps, noise: NoiseModel, eps, u, ws):
    """Assigned bits (b1, b2) of the attempts whose windows (a program's
    layout) are the columns of u, run as array steps over all of them;
    steps are _steps of its pre and mid pulses. u[0] sets the prepared
    state: |+1> below 1 - init_error_prob, else |0> below
    1 - init_error_prob / 2, else |-1>. The pre-readout pulses, readout 1
    and its collapse, the mid pulses and readout 2 follow, each on its own
    uniforms.

    The prepared states are real and every pulse is a real rotation, so
    amplitudes are held as real rows, one column per attempt, in place in
    the float32 workspace ws: the rows a, b, c, two scratch rows, then the
    blocks of _noisy_apply_rows. Only the readouts normalise: a state
    after the first readout keeps the norm of its projection."""
    pre, first, mid, second, _ = layout
    p = noise.init_error_prob
    plus = u[0] < 1.0 - p
    zero = ~plus & (u[0] < 1.0 - p / 2.0)
    ws[0], ws[1], ws[2] = plus, zero, ~(plus | zero)
    rows, ws = list(ws[:5]), ws[5:]
    _noisy_apply_rows(steps[0], u[pre:first], rows, ws)
    one, b1 = _readout_rows(u[first:mid], rows, eps)
    _collapse_rows(u[first:mid], one, rows, noise.nuclear_flip_prob)
    _noisy_apply_rows(steps[1], u[mid:second], rows, ws)
    _, b2 = _readout_rows(u[second:], rows, eps)
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
    run together as array steps (_run_rows), one per pulse step and
    readout, in a workspace of flat buffers that the call owns and drops on
    return. The result is table_estimates of the count tables, as for the
    exact backend's expected counts.
    """
    noise = config.noise
    shots = config.shots_per_term
    p_charge = noise.charge_good_prob
    budget = config.attempt_budget()
    eps = misassignment_probabilities(noise)
    programs = shot_programs(config.pair_order)
    tables = np.zeros((len(programs), 4), dtype=np.int64)
    discarded = 0
    # the call's workspace: flat buffers, each grown to the largest view asked of it
    drawn = taken = kernel = np.empty(0)
    for prog, table in zip(programs, tables):
        layout, steps, depth = _program_steps(prog, noise)
        width = layout[-1]
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
                kernel = np.empty(depth * n, np.float32)
            ws = kernel[: depth * n].reshape(depth, n)
            b1, b2 = _run_rows(layout, steps, noise, eps, u[:n].T, ws)
            table += np.bincount(2 * b1 + b2, minlength=4)
        if kept < shots:
            raise InsufficientData(
                f"group {prog.group}: only {kept} of {shots} shots kept "
                f"(charge_good_prob = {p_charge})"
            )
        discarded += attempts - kept
    return table_estimates(programs, tables.reshape(-1, 2, 2), shots, discarded)
