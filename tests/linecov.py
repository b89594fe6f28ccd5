"""Report the lines of ``src/factkit/*.py`` that the tier-1 suite never runs.

Standard library only: ``sys.settrace`` and ``threading.settrace`` record
every line executed in a factkit source file while pytest runs the suite in
this process; each file's executable lines come from its compiled code
objects. Run from the repository root::

    PYTHONPATH=src python tests/linecov.py [pytest arguments] [test paths]

Without a test path it runs all of ``tests/``; given paths, only those, so
``tests/linecov.py tests/test_acceptance.py`` lists the lines that the other
tests alone reach. It prints ``path:line`` for every executable line no test
reached, then a count, and exits with pytest's status. Tests that start a
child process (``subprocess``, ``multiprocessing``) are not traced: lines
that only a child runs, such as every line a demo runs (``test_demos.py``
runs each demo as a script in its own process), are listed as not run.
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "factkit").glob("*.py"))
# a function's prologue carries its ``def`` line but raises no line event
PROLOGUE = {"RESUME", "MAKE_CELL", "COPY_FREE_VARS", "NOP", "CACHE"}


def executable_lines(path: Path) -> set[int]:
    """Lines that hold an instruction of the module or of any code object nested in it."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        for instruction in dis.get_instructions(code):
            if instruction.opname not in PROLOGUE and instruction.positions.lineno:
                lines.add(instruction.positions.lineno)
        pending += [const for const in code.co_consts if hasattr(const, "co_code")]
    return lines


def main(argv: list[str]) -> int:
    watched = {str(path) for path in SOURCES}
    seen: dict[str, set[int]] = {name: set() for name in watched}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in watched else None

    if not any(Path(arg.split("::")[0]).exists() for arg in argv if not arg.startswith("-")):
        argv = [*argv, str(ROOT / "tests")]
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in SOURCES:
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - seen[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
