"""No dead code: every top-level name, method and property in ``src/factkit`` has a user.

A function, class or assigned name defined at the top of a package module,
and a method or property defined in one of its classes, must appear
somewhere other than its own definition, in one of the callers that
``test_dead_options.CALLERS`` names: the package, the demos, the benchmark
or the acceptance contract. The other tests do not count: a name only they
mention is code that nothing runs. Nor does the package's ``__init__.py``:
a re-export alone keeps no name alive. A name no caller mentions goes.
"""

import ast
import functools
import re
from pathlib import Path

from test_dead_options import FUNCTIONS, PACKAGE, caller_paths

REEXPORTS = PACKAGE / "__init__.py"  # naming a name there is no use of it


def _top_level_names(tree: ast.Module):
    """(name, first line, last line) of each top-level def, class and assignment target."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def _class_members(tree: ast.Module):
    """(name, first line, last line) of each method and property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS):
                    yield member.name, member.lineno, member.end_lineno


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


@functools.cache
def _sources() -> tuple[dict[Path, str], dict[Path, set[str]]]:
    """Each caller file's text and its words."""
    sources = {path: path.read_text(encoding="utf-8") for path in caller_paths()}
    return sources, {path: _words(text) for path, text in sources.items()}


def _unused(defined) -> list[str]:
    """``module: name`` for each name ``defined`` yields that no other caller mentions."""
    sources, words = _sources()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(
            *(w for path, w in words.items() if path not in (module, REEXPORTS))
        )
        lines = sources[module].splitlines()
        for name, first, last in defined(ast.parse(sources[module])):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = _words("\n".join(lines[: first - 1] + lines[last:]))
            if name not in elsewhere and name not in outside:
                unused.append(f"{module.name}: {name}")
    return unused


def test_every_top_level_name_is_used():
    unused = _unused(_top_level_names)
    assert not unused, f"top-level names that only their definition or the tests use: {unused}"


def test_every_method_and_property_is_used():
    unused = _unused(_class_members)
    assert not unused, f"methods and properties that only their definition or the tests use: {unused}"


def test_class_members_are_methods_and_properties_not_fields_or_nested_defs():
    tree = ast.parse(
        "class A:\n"
        "    field: int = 0\n"
        "    @property\n"
        "    def width(self):\n"
        "        def inner():\n"
        "            pass\n"
        "    def __len__(self):\n"
        "        pass\n"
        "    async def fetch(self):\n"
        "        pass\n"
        "def free():\n"
        "    pass\n"
    )
    assert [name for name, _, _ in _class_members(tree)] == ["width", "__len__", "fetch"]
