#!/usr/bin/env python3
"""Line census of the test suite: the lines of ``src/`` that no test runs.

    python3 scripts/linecov.py [pytest arguments]

Run it from the repository root. It runs pytest in this process (by default
on ``tests``, quietly) with a ``sys.settrace`` hook that traces only frames
of files under ``src/``, then prints each executable line that never ran as
``path:line: text`` and a summary line. A module's executable lines are
those that ``co_lines()`` names in its compiled code objects. A line run
only in a subprocess, such as a CLI test's, counts as not run. Tracing makes
the suite two to three times slower, which is why this is a script and not a
test. The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from path."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        executable = executable_lines(path)
        never = sorted(executable - ran.get(str(path), set()))
        total, missed = total + len(executable), missed + len(never)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{total - missed} of {total} executable lines ran; {missed} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
