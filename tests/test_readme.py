"""The README's library quick start runs and agrees with simulation."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

_LINE = re.compile(r"aep (\S+), sim (\S+) \+- (\S+)$")


def test_quick_start_aep_within_simulation_interval():
    text = README.read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    results = [_LINE.search(line) for line in out.getvalue().splitlines()]
    assert len(results) == 2 and all(results), out.getvalue()
    for match in results:
        pe, ser, ci = map(float, match.groups())
        assert abs(pe - ser) <= ci, match.string
