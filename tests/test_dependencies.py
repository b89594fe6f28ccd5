"""The package imports only the standard library, itself, and its declared dependencies.

A static check over the source: at run time numpy imports optional packages
of its own whenever they are installed, so ``sys.modules`` would not tell.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factkit"


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def _imported(tree: ast.Module):
    """(line, top-level module name) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    assert _declared() == {"numpy"}
    allowed = set(sys.stdlib_module_names) | {"factkit"} | _declared()
    stray = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _imported(ast.parse(path.read_text(encoding="utf-8")))
        if name not in allowed
    ]
    assert not stray, f"imports outside the stdlib and pyproject.toml dependencies: {stray}"
