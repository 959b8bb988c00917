#!/usr/bin/env python3
"""kcbsim benchmark: Monte Carlo throughput, calibration-sweep overhead and
cold-start latency, end to end or traced per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-module metrics of a traced run. The last line of output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the details (environment, sample counts, tail percentile,
fail_ratio, absent trace names, problems found by the output checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_child import IMPORT_SPANS, TRACED, WORKLOADS, process_probe, spawn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 160.0
# A fresh process up to its first operation: import, preset load, config build.
SETUP_CODE = (
    "import sys, kcbsim.config as c\n"
    "c.build_run_config(c.load_preset(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)


class BenchError(Exception):
    pass


def setup_seconds(preset: str) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, preset], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe for preset {preset!r} failed")
    return elapsed


def at_ref(sample: dict) -> float:
    """Wall time of one timed sample, scaled to reference speed."""
    return sample["wall"] / sample["slowdown"]


def typical(samples: list, value) -> float:
    """Median of `value(sample)` per kind of operation (pair order or CLI
    command), averaged over the kinds, so that the mix of kinds in a run
    does not move it: a reverse-order call costs about 18 % more than a
    forward one, and a run holds only a handful of calls."""
    kinds: dict = {}
    for s in samples:
        kinds.setdefault(s["kind"], []).append(value(s))
    return statistics.mean(statistics.median(v) for v in kinds.values())


def tail(samples: list) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile with
    ten samples beyond it, i.e. the eleventh largest time. Below twenty
    samples no percentile above the median has ten beyond it, so the tail
    is unresolved and reads as the typical time."""
    n = len(samples)
    if n < 20:
        return 50.0, typical(samples, at_ref), n // 2
    return 100.0 * (n - 10) / n, sorted(map(at_ref, samples))[n - 11], 10


def end_to_end(out: dict, setups: list, child_rss_kb: int) -> tuple[dict, dict]:
    ops = out["plain"]
    p50 = typical(ops, at_ref)
    pct, tail_s, beyond = tail(ops)
    mc = [s for s in ops if "attempts" in s]
    if mc:
        attempts = typical(mc, lambda s: s["attempts"] / at_ref(s))
        kept = typical(mc, lambda s: s["kept"] / at_ref(s))
        to_accuracy = typical(mc, lambda s: at_ref(s) * (s["stderr"] / 0.01) ** 2)
        rss_kb = child_rss_kb
    else:
        # cold-cli: an attempt is one CLI process, kept when its output
        # checks out; the exact backend reaches any accuracy in one call
        ok_share = sum(s["ok"] for s in ops) / len(ops)
        attempts = 1.0 / p50
        kept = attempts * ok_share
        to_accuracy = p50
        rss_kb = max(s["rss_kb"] for s in ops)
    metrics = {
        "setup_s": (statistics.median(map(at_ref, setups)), "s"),
        "attempts_per_s": (attempts, "1/s"),
        "kept_per_s": (kept, "1/s"),
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_s, "s"),
        "time_to_stderr_0.01_s": (to_accuracy, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {
        "op_s.tail": {"percentile": pct, "samples": len(ops), "samples_beyond": beyond},
        "slowdown": statistics.median(s["slowdown"] for s in ops),
        "wall_clock": {
            "setup_s": statistics.median(s["wall"] for s in setups),
            "op_s.p50": statistics.median(s["wall"] for s in ops),
        },
    }
    return metrics, detail


def per_layer(out: dict) -> dict:
    plain, traced = out["plain"], out["traced"]
    spans = out["spans"]
    metrics = {}
    for name in IMPORT_SPANS + TRACED:
        s = spans.get(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        calls = s["calls"]
        metrics[f"{name}_s"] = (s["total_s"] / calls if calls else 0.0, "s")
        metrics[f"{name}.self_s"] = (s["self_s"] / calls if calls else 0.0, "s")
        metrics[f"{name}.calls"] = (calls / len(traced), "calls/op")
    mc = [s for s in plain + traced if "attempts" in s]
    if mc:
        kept = sum(s["kept"] for s in mc) / sum(s["attempts"] for s in mc)
        plain_mc = [s for s in plain if "attempts" in s]
        us = 1e6 * sum(at_ref(s) for s in plain_mc) / sum(s["attempts"] for s in plain_mc)
        process = 0.0
    else:
        kept = us = 0.0
        process = statistics.mean(s["wall"] - s["main_s"] for s in traced)
    metrics["experiment.keep_ratio"] = (kept, "ratio")
    metrics["experiment.us_per_attempt"] = (us, "us")
    metrics["cli.process_overhead_s"] = (process, "s")
    metrics["trace.overhead"] = (typical(traced, at_ref) / typical(plain, at_ref) - 1.0, "ratio")
    return metrics


def environment(child_env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {**child_env, "commit": commit, "source_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            shots: int | None = None, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload; return its result record and details."""
    spec = WORKLOADS[workload]
    setup_seconds(spec.preset)  # fills the bytecode cache; not counted
    setups = []
    if not trace:
        last = process_probe()
        for _ in range(setup_runs):
            wall = setup_seconds(spec.preset)
            before, last = last, process_probe()
            setups.append({"wall": wall, "slowdown": (before + last) / 2})
    argv = [str(HERE / "bench_child.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if shots:
        argv += ["--shots", str(shots)]
    code, stdout, _, rss_kb = spawn(argv, timeout=CHILD_TIMEOUT_S)
    try:
        out = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        out = None
    if code != 0 or out is None:
        raise BenchError(f"workload process for {workload} exited with {code}")
    ops = out["plain"] + out.get("traced", [])
    failed = sum(not s["ok"] for s in ops)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(out["env"]),
        "setup_runs": setup_runs,
        "ops": {"plain": len(out["plain"]), "traced": len(out.get("traced", []))},
        "fail_ratio": failed / len(ops),
        "absent": out["absent"],
        "problems": out["problems"],
    }
    if trace:
        metrics = per_layer(out)
    else:
        metrics, extra = end_to_end(out, setups, rss_kb)
        detail.update(extra)
    return {
        "correct": out["run_ok"] and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kcbsim" / "__init__.py").is_file():
        print(f"error: no kcbsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, res in results.items():
        print(json.dumps(res["detail"]))
        if not args.trace:
            print(f"{w:12s} {'fail_ratio':24s} {res['detail']['fail_ratio']:.6g} ratio")
        for name, m in res["metrics"].items():
            print(f"{w:12s} {name:24s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": m for w, res in results.items() for k, m in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
