"""No dead options: every parameter default in ``src/factkit`` is overridden by a real caller.

A parameter with a default is an option. It earns its place only if some call
in the package, the benchmark, the demos or the acceptance contract
(``tests/test_acceptance.py``) passes it: by keyword, by enough positional
arguments, or through ``*`` or ``**``. The other tests do not count, since a
test that alone sets an option tests a behaviour that nothing runs. Calls
are matched by the called name, so a method is matched by any ``.name(...)``
call, and a class's ``__init__`` by a call of the class.
``tests/test_dead_names.py`` counts a name's uses in the same ``CALLERS``.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factkit"
CALLERS = ("src", "demos", "perfbench", "tests/test_acceptance.py")
EXCLUDED = ROOT / "perfbench" / ".work"  # the benchmark's generated inputs and outputs
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _options(tree: ast.Module):
    """(function name, parameter name, positional index or None) per parameter with a default.

    The index counts the arguments a call writes, so a method's ``self`` or
    ``cls`` is not counted; it is None for a keyword-only parameter. An
    ``__init__`` is named after its class.
    """

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, FUNCTIONS):
                yield from parameters(child, owner)
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    def parameters(func, owner):
        args = func.args
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
        )
        skip = 1 if owner is not None and not static else 0
        name = owner.name if owner is not None and func.name == "__init__" else func.name
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional):
            if index >= first_default:
                yield name, arg.arg, index - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None

    yield from visit(tree, None)


def _called_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _shape(call: ast.Call) -> tuple[int, bool, frozenset, bool]:
    """(positional count, has ``*``, keyword names, has ``**``) of one call."""
    starred = [isinstance(a, ast.Starred) for a in call.args]
    keywords = frozenset(k.arg for k in call.keywords if k.arg is not None)
    return starred.count(False), any(starred), keywords, len(keywords) < len(call.keywords)


def caller_paths() -> list[Path]:
    """The Python files that ``CALLERS`` names, the benchmark's scratch output aside."""
    paths = []
    for top in CALLERS:
        where = ROOT / top
        paths += [where] if where.is_file() else sorted(where.rglob("*.py"))
    return [path for path in paths if EXCLUDED not in path.parents]


@functools.cache
def _calls() -> dict[str, list[tuple[int, bool, frozenset, bool]]]:
    """The shape of each call in the callers' files, per called name."""
    calls: dict = {}
    for path in caller_paths():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (name := _called_name(node)) is not None:
                calls.setdefault(name, []).append(_shape(node))
    return calls


def _passed(parameter: str, index, call) -> bool:
    positional, star, keywords, double = call
    if index is not None and (star or index < positional):
        return True
    return double or parameter in keywords


def _dead_options(module: Path) -> list[str]:
    calls = _calls()
    return [
        f"{module.name}: {function}({parameter})"
        for function, parameter, index in _options(ast.parse(module.read_text(encoding="utf-8")))
        if not any(_passed(parameter, index, call) for call in calls.get(function, []))
    ]


def test_every_option_has_a_caller_outside_the_tests():
    dead = [option for module in sorted(PACKAGE.glob("*.py")) for option in _dead_options(module)]
    assert not dead, f"parameter defaults that only tests override: {dead}"


def test_options_skip_self_and_name_init_after_its_class():
    tree = ast.parse(
        "def free(a, b=1, *, c=2, d):\n"
        "    def inner(e=3):\n"
        "        pass\n"
        "class A:\n"
        "    def __init__(self, f=4):\n"
        "        pass\n"
        "    def method(self, g=5):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def static(h=6):\n"
        "        pass\n"
    )
    assert list(_options(tree)) == [
        ("free", "b", 1), ("free", "c", None), ("inner", "e", 0),
        ("A", "f", 0), ("method", "g", 0), ("static", "h", 0),
    ]


def _call(source: str) -> ast.Call:
    return ast.parse(source).body[0].value


def test_a_call_passes_by_position_keyword_or_star():
    call = _call("obj.f(1, 2, c=3)")
    assert _called_name(call) == "f"
    assert _passed("b", 1, _shape(call)) and _passed("c", None, _shape(call))
    assert not _passed("x", 2, _shape(call))
    assert _passed("x", 5, _shape(_call("f(*args)")))
    assert not _passed("x", None, _shape(_call("f(*args)")))
    assert _passed("x", None, _shape(_call("f(**kwargs)")))
