"""Workload process of the kcbsim benchmark.

It is started by run.py in a fresh interpreter with the checkout's `src`
on PYTHONPATH, so import time and peak RSS belong to one workload. It
drives kcbsim only through its public entry points (`config.load_preset`,
`config.build_run_config`, `experiment.run_protocol`, and the CLI as a
subprocess) and prints one JSON object of raw per-operation samples as
its last line of output. Modes:

    bench_child.py --workload NAME --seed N --seconds S --trace 0|1
    bench_child.py --traced-cli COMMAND      # one traced CLI run

Every operation's output is checked; a check never pins a count, because
the random streams are allowed to change.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    shots: int  # kept shots per term of one run_protocol call; 0 for CLI


# Why each workload exists:
# - mc-paper: every noise channel on at the shipped shot count, so the
#   pulse, readout and charge-check kernels do most of the work.
# - mc-ideal: noise off, so per-shot stream derivation dominates; the
#   only workload with an exact answer (sqrt 5).
# - sweep-small: calibration-shaped short calls, so per-call fixed cost
#   (shot programs, measurement plans, statistics) weighs most.
# - cold-cli: fresh `exact` / `validate` processes, import-bound; no
#   Monte Carlo, so a sampler change should not move it.
WORKLOADS = {
    "mc-paper": Workload("mc-paper", "paper-2015", 8000),
    "mc-ideal": Workload("mc-ideal", "ideal", 10000),
    "sweep-small": Workload("sweep-small", "paper-2015", 300),
    "cold-cli": Workload("cold-cli", "ideal", 0),
}

# The calibration grid of tools/calibrate_paper_preset.py, frozen here so
# that later edits to the tool do not change this workload. Its fixed
# noise parameters equal those of the paper-2015 preset.
SWEEP_GRID = dict(
    lambda_bright=(10.0, 10.5, 11.0),
    lambda_dark=(1.35, 1.45, 1.55),
    init_error_prob=(0.015, 0.020, 0.025),
)
SWEEP_SEEDS = 6

# Public functions wrapped in the traced run, as `module.function` of kcbsim.
TRACED = (
    "config.load_preset",
    "config.build_run_config",
    "qutrit.compose",
    "pentagram.build_pulse_quintuplet",
    "pentagram.build_psi0",
    "kcbs.measurement_plans",
    "kcbs.exact_terms",
    "kcbs.nchv_bound",
    "experiment.run_protocol",
    "experiment.shot_programs",
    "experiment.shot_rng",
    "experiment.initialize",
    "experiment.charge_check",
    "experiment.noisy_apply",
    "experiment.single_shot_readout",
    "experiment.estimate_stats",
    "cli.main",
)
IMPORT_SPANS = ("import.kcbsim", "import.numpy")

# Hosts shared with other tenants run this process up to 2x slower for
# seconds to minutes at a time. Every timed operation is therefore
# followed by a speed probe, and its time is reported at reference speed:
# scaled by `reference / probe` (probe: the mean of the probes before and
# after it), the reference being the probe's time on an uncontended core of
# the 2-core Xeon VM the benchmark was defined on. In-process work is
# probed with a mix of small numpy calls, process start-up with a bare
# interpreter start; each slows about as much as the work it stands for.
PROBE_LOOPS = 40
REF_PROBE_S = 6.0e-4
REF_PROCESS_S = 1.1e-2

# Criterion 7 of the acceptance suite: per-run stderr window and the
# window of the across-seed mean of the modified value.
PAPER_STDERR = (0.012, 0.018)
PAPER_MEAN = (2.097, 2.137)
# The across-seed mean of a run covers only a handful of seeds, so the
# mean window is tested against the mean's own sampling error: a run fails
# when the window lies more than this many standard errors of the mean away.
PAPER_MEAN_Z = 3.5


def speed_probe() -> float:
    """Best of three timings of a fixed mix of interpreter work and small
    numpy calls, in seconds."""
    import numpy as np

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(PROBE_LOOPS):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(1, i)))
            z = np.array([rng.random(), rng.normal(0.0, 0.1), 1j])
            complex(z[2])
        best = min(best, time.perf_counter() - t0)
    return best / REF_PROBE_S


def process_probe() -> float:
    """Best of two start-ups of a bare interpreter, relative to reference."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        best = min(best, time.perf_counter() - t0)
    return best / REF_PROCESS_S


def probed_loop(seconds: float, probe, step) -> list[dict]:
    """Call `step` (which returns a sample with its "wall" time) until
    `seconds` have passed, at least once; each sample gets "slowdown", the
    mean of the probes taken before and after it."""
    samples = []
    last = probe()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        sample = step()
        before, last = last, probe()
        sample["slowdown"] = (before + last) / 2
        samples.append(sample)
    return samples


def import_kcbsim(tracer=None):
    """Import numpy and kcbsim, as spans when a tracer is given."""
    if tracer is None:
        import kcbsim.cli  # noqa: F401  (imports every module)
    else:
        with tracer.span("import.kcbsim"):
            with tracer.span("import.numpy"):
                import numpy  # noqa: F401
            import kcbsim.cli  # noqa: F401
    import kcbsim

    src = Path(kcbsim.__file__).resolve().parents[1]
    if src != HERE.parent / "src":
        raise SystemExit(f"kcbsim imported from {src}, not from this checkout's src")
    return kcbsim


def mc_configs(workload: Workload, data: dict, seed: int, shots: int):
    """Endless stream of RunConfigs for a Monte Carlo workload; all seeds
    come from the benchmark seed."""
    from kcbsim import config

    rng = random.Random(f"{workload.name}/{seed}")
    orders = ("forward", "reverse")
    if workload.name == "sweep-small":
        keys = sorted(SWEEP_GRID)
        seeds = [rng.getrandbits(63) for _ in range(SWEEP_SEEDS)]
        combos = list(itertools.product(itertools.product(*(SWEEP_GRID[k] for k in keys)), seeds, orders))
        while True:
            rng.shuffle(combos)
            for values, run_seed, order in combos:
                doc = dict(data, noise={**data["noise"], **dict(zip(keys, values))})
                yield config.build_run_config(doc, seed=run_seed, shots=shots, pair_order=order)
    for i in itertools.count():
        order = orders[i % 2] if workload.name == "mc-paper" else None
        yield config.build_run_config(data, seed=rng.getrandbits(63), shots=shots, pair_order=order)


def check_mc(workload: Workload, result, shots: int) -> list[str]:
    problems = []
    terms = result.terms.as_dict()
    if not all(0.0 <= v <= 1.0 for v in terms.values()):
        problems.append(f"a term lies outside [0, 1]: {terms}")
    if result.kept_shots != 6 * shots:
        problems.append(f"kept_shots {result.kept_shots} != 6 x {shots}")
    value, err = result.inequality_value, result.inequality_stderr
    if workload.name == "mc-ideal" and not abs(value - SQRT5) < 5 * err:
        problems.append(f"value {value} not within 5 stderr ({err}) of sqrt(5)")
    if workload.name == "mc-paper" and not PAPER_STDERR[0] <= err <= PAPER_STDERR[1]:
        problems.append(f"stderr {err} outside {PAPER_STDERR}")
    return problems


def check_paper_mean(values: list[float]) -> list[str]:
    if len(values) < 2:
        return []
    mean = statistics.mean(values)
    slack = PAPER_MEAN_Z * statistics.stdev(values) / math.sqrt(len(values))
    if PAPER_MEAN[0] - slack <= mean <= PAPER_MEAN[1] + slack:
        return []
    return [f"across-seed mean {mean} of {len(values)} runs outside {PAPER_MEAN} (+-{slack})"]


def run_mc(workload, configs, seconds, tracer, problems):
    from kcbsim import experiment

    def step():
        cfg = next(configs)
        op = tracer.begin("bench.op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = experiment.run_protocol(cfg)
        except Exception as exc:  # an operation that raises counts as failed
            result, bad = None, [f"{type(exc).__name__}: {exc}"]
        sample = {"wall": time.perf_counter() - t0, "kind": cfg.pair_order}
        if tracer:
            tracer.end(op)
        if result is not None:
            bad = check_mc(workload, result, cfg.shots_per_term)
            sample.update(
                attempts=result.kept_shots + result.discarded_shots,
                kept=result.kept_shots,
                value=result.inequality_value,
                stderr=result.inequality_stderr,
            )
        problems.extend(bad)
        sample["ok"] = not bad
        return sample

    return probed_loop(seconds, speed_probe, step)


def spawn(argv, timeout=None):
    """Run a Python process to completion, killing it after `timeout`
    seconds; return (exit code, stdout, wall seconds, peak RSS in KiB), the
    RSS being that of this process alone."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill) if timeout else None
    if timer:
        timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    if timer:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


def check_cli(command: str, code: int, out: str) -> list[str]:
    if code != 0:
        return [f"kcbsim {command} exited with {code}"]
    try:
        record = json.loads(out)
    except ValueError:
        return [f"kcbsim {command} printed no JSON"]
    if command == "exact" and not abs(record.get("modified_kcbs_value", 0.0) - SQRT5) < 1e-9:
        return [f"exact modified value {record.get('modified_kcbs_value')} is not sqrt(5)"]
    if command == "validate" and record.get("status") != "ok":
        return [f"validate status {record.get('status')!r}"]
    return []


def run_cli(seconds, tracer, problems):
    commands = itertools.cycle(("exact", "validate"))

    def step():
        command = next(commands)
        if tracer is None:
            code, out, wall, rss = spawn(["-m", "kcbsim", command])
            sample = {"wall": wall, "kind": command, "rss_kb": rss}
        else:
            op = tracer.begin("bench.op")
            code, out, wall, rss = spawn([str(HERE / "bench_child.py"), "--traced-cli", command])
            tracer.end(op)
            try:
                record = json.loads(out.splitlines()[-1])
            except (IndexError, ValueError):
                record = {"code": code, "stdout": ""}
            else:
                tracer.merge(record["spans"], parent=op)
            code, out = record["code"], record["stdout"]
            sample = {"wall": wall, "kind": command, "rss_kb": rss, "main_s": record.get("main_s", 0.0)}
        bad = check_cli(command, code, out)
        problems.extend(bad)
        sample["ok"] = not bad
        return sample

    return probed_loop(seconds, process_probe, step)


def run_phase(workload, data, seed, shots, seconds, tracer, problems):
    if workload.name == "cold-cli":
        return run_cli(seconds, tracer, problems)
    configs = mc_configs(workload, data, seed, shots)
    return run_mc(workload, configs, seconds, tracer, problems)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, shots: int | None = None) -> dict:
    """Measure one workload in this process: an untraced phase, and with
    `trace` a traced phase of the same length after it."""
    tracer = Tracer() if trace else None
    cli = workload.name == "cold-cli"  # its imports are traced in each CLI process
    kcbsim = import_kcbsim(None if cli else tracer)
    import numpy

    shots = shots or workload.shots
    data = kcbsim.config.load_preset(workload.preset)
    problems: list[str] = []
    out = {
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__, "nproc": os.cpu_count()},
        "absent": [],
    }
    # lazy set-up and bytecode caches are filled before any timing
    if cli:
        spawn(["-m", "kcbsim", "exact"])
    else:
        warm = kcbsim.config.build_run_config(data, seed=seed, shots=20)
        kcbsim.experiment.run_protocol(warm)
    phase_s = seconds / 2 if trace else seconds
    out["plain"] = run_phase(workload, data, seed, shots, phase_s, None, problems)
    if trace:
        out["absent"] = tracer.install(TRACED)
        try:
            if not cli:
                data = kcbsim.config.load_preset(workload.preset)
            out["traced"] = run_phase(workload, data, seed, shots, phase_s, tracer, problems)
        finally:
            tracer.uninstall()
        out["spans"] = tracer.summary()
        os.makedirs(HERE / "out", exist_ok=True)
        tracer.save(HERE / "out" / f"spans-{workload.name}.npz")
    if workload.name == "mc-paper":
        values = [s["value"] for s in out["plain"] + out.get("traced", []) if "value" in s]
        problems.extend(check_paper_mean(values))
    out["problems"] = problems[:20]
    out["run_ok"] = not problems
    return out


def traced_cli(command: str) -> dict:
    """One traced CLI run in this fresh process: import spans, then
    `cli.main` with its callees wrapped."""
    tracer = Tracer()
    kcbsim = import_kcbsim(tracer)
    tracer.install(TRACED)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = kcbsim.cli.main([command])
    finally:
        tracer.uninstall()
    spans = tracer.export()
    main_s = sum(e - s for n, s, e in zip(spans["names"], spans["starts"], spans["ends"]) if n == "cli.main")
    return {"code": code, "stdout": buf.getvalue(), "spans": spans, "main_s": main_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced-cli", metavar="COMMAND")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shots", type=int, default=None)
    args = parser.parse_args(argv)
    if args.traced_cli:
        print(json.dumps(traced_cli(args.traced_cli)))
    else:
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.shots)
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
