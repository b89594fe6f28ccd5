"""Peak memory growth of one ``factkit`` command, run in a fresh interpreter.

The child imports ``factkit.cli``, reads its resident set size (``VmRSS``),
runs ``main(argv)`` and then reads its high-water mark (``VmHWM``), both from
``/proc/self/status``, so this works on Linux only (see ``HAS_PROC``).
``ru_maxrss`` would not do: of ``RUSAGE_SELF`` as much as of
``RUSAGE_CHILDREN``, it starts from the forking test process's own resident
size.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import factkit

HAS_PROC = os.path.exists("/proc/self/status")

_PROBE = """
import sys
from factkit.cli import main

def kib(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field))

before = kib("VmRSS:")
code = main(sys.argv[1:])
print(code, before, kib("VmHWM:"))
"""


def run_probed(*argv) -> tuple[int, int]:
    """``factkit <argv>`` in a child process: its exit code and its peak RSS growth in bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(factkit.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    code, before, after = map(int, result.stdout.split()[-3:])
    return code, (after - before) * 1024
