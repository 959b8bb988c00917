"""The README's Python example runs as printed."""

import re
from pathlib import Path

from kcbsim.model import ExperimentResult

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    result, expected = names["result"], names["expected"]
    assert isinstance(result, ExperimentResult) and isinstance(expected, ExperimentResult)
    assert abs(result.inequality_value - expected.inequality_value) < 5 * expected.inequality_stderr
