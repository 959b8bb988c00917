"""The README holds the user's contract, and these tests hold it to the code:
its options, presets, schema block, record fields and API names, and its
Python example, which runs as printed."""

import argparse
import importlib
import io
import json
import math
import re
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest
import yaml

import kcbsim
from kcbsim.cli import build_parser, main
from kcbsim.config import available_presets, load_preset
from kcbsim.errors import ConfigError
from kcbsim.model import LAMBDA_MAX, MAX_ATTEMPTS, MIN_SHOTS, ExperimentResult, RunConfig
from kcbsim.spectrum import NvParameters

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text()
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
#: The inline code spans of the prose, fenced blocks left out.
SPANS = re.findall(r"`([^`]+)`", FENCED.sub("", TEXT))
FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def fenced(lang: str) -> list[str]:
    return [body for tag, body in FENCED.findall(TEXT) if tag == lang]


def section(title: str) -> str:
    return TEXT.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def parser_options() -> set[str]:
    """Every option string of the kcbsim parser and its subcommands, less help."""
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *subparsers.choices.values()]
    return {opt for p in parsers for a in p._actions for opt in a.option_strings} - {"-h", "--help"}


#: A span that runs a tool script documents that script's options.
TOOL = re.compile(r"python (tools/\S+\.py)")


def documented_flags() -> set[str]:
    """The --flags of the README's code spans, less those of tool spans."""
    return {flag for span in SPANS if not TOOL.match(span) for flag in FLAG.findall(span)}


def test_python_example_runs():
    (block,) = fenced("python")
    names = {}
    exec(compile(block, str(README), "exec"), names)
    result, expected = names["result"], names["expected"]
    assert isinstance(result, ExperimentResult) and isinstance(expected, ExperimentResult)
    assert abs(result.inequality_value - expected.inequality_value) < 5 * expected.inequality_stderr


def test_schema_block_is_the_paper_preset():
    (block,) = fenced("yaml")
    assert yaml.safe_load(block) == load_preset("paper-2015")


def test_every_option_is_documented():
    assert parser_options() <= documented_flags()


def test_every_documented_flag_exists():
    assert documented_flags() <= parser_options()


def test_every_documented_tool_flag_exists():
    for span in SPANS:
        tool = TOOL.match(span)
        if tool:
            source = (ROOT / tool[1]).read_text()
            assert all(f'add_argument("{flag}"' in source for flag in FLAG.findall(span)), span


def test_determinism_says_what_holds():
    # the same counts on the same numpy build and dispatch targets; on
    # another host numpy's transcendental loops may round differently. The
    # thread that fills draws ahead changes no count
    text = " ".join(section("Determinism").split())
    for fact in ("in any process that runs the same numpy build on the same CPU dispatch targets",
                 "on another host rare single shots can move between cells", "about one shot in 2·10⁷",
                 "may use one extra thread, joined before it returns, and the counts do not depend on it"):
        assert fact in text, fact


def test_every_tool_is_in_the_layout():
    (block,) = (body for _, body in FENCED.findall(section("Layout")))
    for tool in sorted((ROOT / "tools").glob("*.py")):
        assert re.search(rf"^  {re.escape(tool.name)} ", block, re.M), tool.name


def test_every_preset_is_named():
    for name in available_presets():
        assert name in SPANS, name


def api_lists() -> dict[str, list[str]]:
    """Module name -> the names its bullet of the "Python API" section lists."""
    bullets = re.split(r"\n(?=- )", section("Python API"))
    lists = {}
    for bullet in bullets:
        m = re.match(r"- `([\w.]+)`: (.*)", bullet, re.S)
        if m:
            lists[m[1]] = re.findall(r"`([^`]+)`", m[2].split("\n\n")[0])
    return lists


def test_api_names_resolve():
    lists = api_lists()
    assert set(lists) == {"kcbsim", "kcbsim.config", "kcbsim.model", "kcbsim.experiment"}
    for module, names in lists.items():
        mod = importlib.import_module(module)
        for name in names:
            assert name.isidentifier() and hasattr(mod, name), f"{module}.{name}"


def test_every_top_level_export_is_listed():
    exports = {n for n in kcbsim.__all__ if not isinstance(getattr(kcbsim, n), types.ModuleType)}
    assert exports <= set(api_lists()["kcbsim"])


def test_names_no_private_identifier():
    assert re.findall(r"(?<!\w)_\w+", TEXT) == []


def record_keys(value, skip=frozenset({"terms", "stderrs", "successes", "config"})) -> set[str]:
    """The keys of a record, nested ones included, less those under
    `skip`, whose keys are term names or schema fields."""
    if isinstance(value, list):
        return set().union(*map(record_keys, value))
    if not isinstance(value, dict):
        return set()
    nested = (record_keys(v) for k, v in value.items() if k not in skip)
    return set(value).union(*nested)


@pytest.mark.parametrize("argv", [["exact"], ["validate"], ["spectrum"], ["simulate", "--shots", "20"]])
def test_every_record_field_is_documented(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    assert record_keys(json.loads(buf.getvalue())) <= set(SPANS)


def test_documented_defaults_and_limits():
    def power(x: float) -> str:
        k = round(math.log10(x))
        assert 10.0**k == x
        return f"1e{k}"

    run, nv = RunConfig(), NvParameters()
    facts = [
        f"`seed: {run.seed}`",
        f"`shots_per_term: {run.shots_per_term}`",
        f"`pair_order: {run.pair_order}`",
        f"integer in [{MIN_SHOTS}, {power(MAX_ATTEMPTS)}]",
        f"above {power(MAX_ATTEMPTS)};",
        f"mean outside [0, {power(LAMBDA_MAX)}]",
        f"default {nv.quadrupole_mhz:g})",
        f"default {nv.gyromagnetic_khz_per_gauss:g})",
        f"default {nv.field_gauss:g},",
    ]
    for fact in facts:
        assert fact in TEXT, fact
    RunConfig(seed=2**64 - 1)  # "an unsigned 64-bit integer"
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=2**64)
