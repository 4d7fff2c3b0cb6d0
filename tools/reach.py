"""List every executable line of ``src/refineloop`` that the tests never run.

Run it from anywhere, on demand; it is not a test, and it takes about
twice as long as the suite it traces::

    python3 tools/reach.py                         # the tier-1 suite
    python3 tools/reach.py tests/test_logs.py -q   # any pytest arguments, paths from the checkout root

It runs pytest in this process with a plugin that sets a ``sys.settrace``
hook (and ``threading.settrace``, for the bootstrap's threads) before the
package is first imported, and records each line run in a file under
``src/refineloop``. A file's executable lines are the line starts of the
code objects it compiles to. Each one that never ran is printed as
``path:line: source``, then the totals; the exit status is pytest's.
Code run only in a child process (``python -m refineloop``) is not seen.
Standard library and pytest only.
"""

import dis
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "refineloop"
_TIER_1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The line starts of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # a module's code starts at line 0
        todo.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


class Reach:
    """The plugin: traces from construction, and reports the unreached lines after the tests' summary."""

    def __init__(self):
        self.ran: dict[str, set[int]] = {str(path): set() for path in SRC.rglob("*.py")}
        sys.settrace(self._call)
        threading.settrace(self._call)

    def _call(self, frame, event, arg):
        lines = self.ran.get(frame.f_code.co_filename)
        if lines is None:  # not a package file: no line events for this frame
            return None
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line

        return line

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        write, total, missed = terminalreporter.write_line, 0, 0
        write("")
        for name in sorted(self.ran):
            path = Path(name)
            lines = executable_lines(path)
            source = path.read_text(encoding="utf-8").splitlines()
            total += len(lines)
            for line in sorted(lines - self.ran[name]):
                missed += 1
                write(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        write(f"reach: {total - missed} of {total} executable lines in src/refineloop ran; {missed} did not")


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # pyproject.toml's pytest settings, and test paths, from the checkout root
    return pytest.main(argv or _TIER_1, plugins=[Reach()])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
