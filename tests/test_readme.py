"""The README's library quickstart runs and prints the deficit it states."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_the_stated_deficit():
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = float(re.search(r"print\(report\.deficit\)\s*# ~ ([0-9.e+-]+)", block).group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = float(out.getvalue().split()[-1])
    assert stated / 10.0 <= printed <= 10.0 * stated, (printed, stated)
