"""List the statements of ``src/spiderbp`` that the test suite never runs.

    python3 tests/run_trace.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on ``tests/``, quietly) under a
``sys.settrace`` line tracer that follows only the code of
``src/spiderbp``, then prints each statement that never ran as
``file:line``, by file and line, and one summary line. A statement is a
line on which some code object compiled from the file starts a line
(``dis.findlinestarts``): a function's body lines and its ``def`` line,
which runs at import, but not a docstring. Only this process is traced:
tests that run the package in a subprocess (the demos and README blocks
of ``tests/test_demos.py``, which may call the CLI) add nothing, so what
only they run is listed as never run. It uses the standard library only and is not part of the test
suite; tracing makes the run several times slower. It exits with pytest's
exit code.
"""

from __future__ import annotations

import dis
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spiderbp"


def statements(path):
    """The line numbers that start a statement in the file at ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _offset, line in dis.findlinestarts(code) if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def traced(pytest_args):
    """(pytest's exit code, {file name: lines run}) of one in-process run."""
    package, ran = str(PACKAGE), {}

    def local(frame, _event, _arg):
        ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):  # trace the package's frames only
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(package) else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.argv = ["pytest", *pytest_args]
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        runpy.run_module("pytest", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv):
    code, ran = traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statements(path)
        never = sorted(lines - ran.get(str(path), set()))
        total, missed = total + len(lines), missed + len(never)
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"trace: {missed} of {total} statements in src/spiderbp never ran (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
