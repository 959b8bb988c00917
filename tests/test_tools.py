"""Smoke tests of the calibration tool behind the paper-2015 preset, and
of the count digest tool."""

import ast
import itertools
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from kcbsim.config import load_preset

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "calibrate_paper_preset.py"
GRID = runpy.run_path(str(TOOL))["GRID"]
DIGEST = ROOT / "tools" / "count_digest.py"


def run_tool(*args, tool=TOOL, **env) -> list[str]:
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    return proc.stdout.splitlines()


def test_scan_covers_the_grid_and_prints_the_preset_block():
    lines = run_tool("--shots", "200")
    scanned = [ast.literal_eval(line[: line.index("}") + 1]) for line in lines if line.startswith("{")]
    keys = sorted(GRID)
    expected = [dict(zip(keys, combo)) for combo in itertools.product(*(GRID[k] for k in keys))]
    assert len(expected) == 27 and scanned == expected
    assert "=== top candidates ===" in lines
    block = lines[lines.index("=== preset noise block (best candidate) ===") + 1:]
    preset = load_preset("paper-2015")["noise"]
    assert [line.split(":")[0].strip() for line in block] == list(preset)
    for line in block:
        key, value = (part.strip() for part in line.split(":"))
        if key not in GRID:  # every value off the grid is the preset's
            assert value == str(preset[key])


def test_scan_ranks_the_shipped_preset_exactly():
    lines = run_tool()
    preset = load_preset("paper-2015")["noise"]
    shipped = {k: preset[k] for k in sorted(GRID)}
    row = next(line for line in lines
               if line.startswith("{") and ast.literal_eval(line[: line.index("}") + 1]) == shipped)
    assert "value=2.1147" in row
    assert [line for line in lines if line.startswith("shipped preset")] == [
        "shipped preset: rank 2 of 27, score=0.0027"
    ]


def test_seeds_is_a_usage_error():
    with pytest.raises(subprocess.CalledProcessError) as err:
        run_tool("--seeds", "1")
    assert err.value.returncode == 2 and "--seeds" in err.value.stderr


@pytest.mark.parametrize("shots", ["1", "0", "-5"])
def test_shots_below_two_is_a_usage_error(shots):
    with pytest.raises(subprocess.CalledProcessError) as err:
        run_tool("--shots", shots)
    assert err.value.returncode == 2 and "--shots must be at least 2" in err.value.stderr


@pytest.mark.parametrize("shots", ["200000000", "95000000"])
def test_verify_shots_that_run_config_refuses_are_a_usage_error(shots):
    # above MAX_ATTEMPTS kept shots, or 1.06e8 attempts at the preset's
    # charge_good_prob 0.9: refused before any seed runs
    with pytest.raises(subprocess.CalledProcessError) as err:
        run_tool("--verify", "--shots", shots)
    assert err.value.returncode == 2 and f"--shots {shots}: " in err.value.stderr
    assert "Traceback" not in err.value.stderr and err.value.stdout == ""


def test_verify_runs_ten_seeds():
    lines = run_tool("--verify", "--shots", "500")
    rows = [line.split() for line in lines[1:] if line.strip() and line.split()[0].isdigit()]
    assert [int(r[0]) for r in rows] == list(range(1, 11))
    for _, value, stderr, sigma in rows:
        assert 1.5 < float(value) < 2.5 and 0 < float(stderr) < 0.2
    assert any(line.startswith("mean value") for line in lines)


def test_count_digest_does_not_depend_on_the_hash_seed():
    # the digest of this process, whose hash seed is random, printed again
    # by a fresh process at PYTHONHASHSEED 0: no seed comes from hash().
    # 235 runs: 7 gate models x 2 orders x 3 seeds x 2 sizes, ideal at
    # 100 000 shots and 150 random models
    value, count = runpy.run_path(str(DIGEST))["digest"]()
    assert count == 235 and len(value) == 64
    assert run_tool(tool=DIGEST, PYTHONHASHSEED="0") == [f"{value}  {count} runs"]
