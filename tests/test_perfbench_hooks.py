"""The benchmark's traced run wraps factkit functions by module and name.

``perfbench/tracing.py`` lists them in ``WRAPPED``; a refactor that renames
or moves one would leave that span silently empty. This test only reads the
list, it runs no benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_function_resolves_in_factkit(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for span, module_name, attribute in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{span}: {module_name}.{attribute}"
