"""Line coverage of ``src/ggflow`` by Tier-1 and the demos, stdlib only.

    python3 tools/linecov.py

Installs a ``sys.settrace`` line tracer that records only frames whose code
lives in ``src/ggflow``, then runs Tier-1 in this process (``pytest.main``)
and each script in ``demos/`` as ``__main__``.  A line counts as executable
when some code object of its module maps an instruction to it
(``co_lines``).  Prints, per file, the executable lines that never ran and
their count.  Tracing makes Tier-1 several times slower, so this is run by
hand and is not part of Tier-1.
"""

import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "ggflow") + os.sep


def executable_lines(path):
    """Line numbers that some code object compiled from path starts."""
    lines, stack = set(), [compile(Path(path).read_text(), path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out, lines = [], sorted(lines)
    for k, line in enumerate(lines):
        if k and line == lines[k - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main():
    hit = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            print(f"demo {demo.name}", flush=True)
            sys.argv = [str(demo)]
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted((ROOT / "src" / "ggflow").glob("*.py")):
        missed = executable_lines(str(path)) - hit.get(str(path), set())
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} missed"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total} missed")


if __name__ == "__main__":
    main()
