"""The benchmark's hooks into factkit: traced functions and command configs.

``perfbench/tracing.py`` lists the functions its traced run wraps in
``WRAPPED``; a refactor that renames or moves one would leave that span
silently empty. ``perfbench/workloads.py`` writes a config per command,
which ``load_config`` must accept. These tests read perfbench and write its
inputs, they run no benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from factkit import cli

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


def test_every_benchmark_config_passes_load_config(monkeypatch, tmp_path):
    # the benchmark's commands write their own configs; a stricter settings
    # table must not make them fail
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    for command in (workloads.Train, workloads.Baseline, workloads.Sample, workloads.Analyze):
        work = tmp_path / command.name
        work.mkdir()
        argv = command().setup(1, work, work).argv
        args = cli.build_parser().parse_args(argv)
        assert args.config is not None, command.name
        config = cli.load_config(args.config, vars(args))
        assert config["seeds"] == [1], command.name
