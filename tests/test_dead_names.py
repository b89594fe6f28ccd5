"""No dead code at module level: every top-level name in ``src/factkit`` has a user.

A function, class or assigned name defined at the top of a package module
must appear somewhere other than its own definition: in the package, the
tests, the demos or the benchmark. A name nothing mentions is code that
nothing calls, and it goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factkit"
SEARCHED = ("src", "tests", "demos", "perfbench")
EXCLUDED = ROOT / "perfbench" / ".work"  # benchmark scratch output


def _defined_names(tree: ast.Module):
    """(name, first line, last line) of each top-level def, class and assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def test_every_top_level_name_is_used():
    sources = {
        path: path.read_text(encoding="utf-8")
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        if EXCLUDED not in path.parents
    }
    words = {path: _words(text) for path, text in sources.items()}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(w for path, w in words.items() if path != module))
        lines = sources[module].splitlines()
        for name, first, last in _defined_names(ast.parse(sources[module])):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = _words("\n".join(lines[: first - 1] + lines[last:]))
            if name not in elsewhere and name not in outside:
                unused.append(f"{module.name}: {name}")
    assert not unused, f"top-level names that nothing uses: {unused}"
