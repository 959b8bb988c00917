"""Smoke test of the benchmark itself at tiny sizes: every metric named in
BENCHMARK.json is emitted with its unit, and a run still completes when the
per-shot helpers of kcbsim.experiment are gone from its namespace."""

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_child  # noqa: E402
import run as bench_run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_SHOT_HELPERS = ("shot_rng", "initialize", "charge_check", "noisy_apply", "single_shot_readout")


def assert_metrics(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    res = bench_run.measure(workload, seed=1, seconds=0.2, trace=bool(trace), shots=30, setup_runs=1)
    assert res["attempted"] >= 1
    assert_metrics(res["metrics"], SPEC["per_layer"] if trace else SPEC["end_to_end"])
    if workload != "mc-paper":  # its stderr window only holds at the shipped shot count
        assert res["correct"], res["detail"]["problems"]


def test_run_completes_without_per_shot_helpers(monkeypatch):
    import kcbsim
    from kcbsim import experiment

    # run_protocol keeps private references; the public names disappear
    private = dict(vars(experiment))
    run_protocol = types.FunctionType(experiment.run_protocol.__code__, private, "run_protocol")
    monkeypatch.setattr(experiment, "run_protocol", run_protocol)
    for name in PER_SHOT_HELPERS:
        for module in (experiment, kcbsim):
            monkeypatch.delattr(module, name, raising=False)

    out = bench_child.run_workload(bench_child.WORKLOADS["mc-ideal"], seed=2, seconds=0.2, trace=True, shots=30)
    assert out["run_ok"], out["problems"]
    assert {f"experiment.{n}" for n in PER_SHOT_HELPERS} <= set(out["absent"])
    assert_metrics(
        {k: {"value": v, "unit": u} for k, (v, u) in bench_run.per_layer(out).items()},
        SPEC["per_layer"],
    )
    metrics, _ = bench_run.end_to_end(out, [{"wall": 0.1, "slowdown": 1.0}], 1024)
    assert_metrics({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, SPEC["end_to_end"])
