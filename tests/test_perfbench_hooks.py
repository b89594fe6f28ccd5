"""The benchmark's hooks into factkit: traced functions and command configs.

``perfbench/tracing.py`` lists the functions its traced run wraps in
``WRAPPED``; a refactor that renames or moves one would leave that span
silently empty, and one that stops calling a wrapped function would leave
its span without calls. ``perfbench/workloads.py`` writes a config per
command, which ``load_config`` must accept. These tests read perfbench and
write its inputs, or run its commands on small inputs; they time nothing.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from factkit import cli
from factkit.dataio import write_facts
from factkit.embeddings import save_embeddings
from factkit.taxonomy import DIMENSIONS

from synth import synthetic_dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture()
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(TRACING.parent))
    return importlib.import_module("workloads")


def test_every_wrapped_function_resolves_in_factkit(tracing):
    assert tracing.WRAPPED
    for span, module_name, attribute in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{span}: {module_name}.{attribute}"


def test_every_benchmark_config_passes_load_config(workloads, tmp_path):
    # the benchmark's commands write their own configs; a stricter settings
    # table must not make them fail
    for command in (workloads.Train, workloads.Baseline, workloads.Sample, workloads.Analyze):
        work = tmp_path / command.name
        work.mkdir()
        argv = command().setup(1, work, work).argv
        args = cli.build_parser().parse_args(argv)
        assert args.config is not None, command.name
        config = cli.load_config(args.config, vars(args))
        assert config["seeds"] == [1], command.name


def test_every_workload_span_records_a_call(tracing, workloads, tmp_path):
    facts, emb = synthetic_dataset(n_facts=120, invalid_count=36)
    for fact in facts:  # words the baseline's TF-IDF keeps
        fact.text = " ".join(f"{d.value}_{fact.labels.get(d)}" for d in DIMENSIONS)
    facts_path, emb_path, config = tmp_path / "facts.jsonl", tmp_path / "facts.emb", tmp_path / "c.json"
    write_facts(facts_path, facts)
    save_embeddings(emb_path, emb)
    config.write_text(json.dumps({"seeds": [1], "train": {"max_epochs": 2, "batch_size": 32}}))
    inputs = ["--facts", facts_path, "--embeddings", emb_path]
    commands = [
        (workloads.Train, ["train", *inputs, "--out-dir", tmp_path / "train"]),
        (workloads.Baseline, ["baseline", "--facts", facts_path, "--out-dir", tmp_path / "base"]),
        (workloads.Analyze, ["analyze", "--models", tmp_path / "train" / "model-seed1.ckpt",
                             "--corpus", facts_path, "--embeddings", emb_path,
                             "--train-facts", facts_path, "--out", tmp_path / "dist.txt"]),
        (workloads.Sample, ["sample", *inputs, "--k", "5", "--out", tmp_path / "s.jsonl"]),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command, argv in commands:
            code, _ = tracer.command(cli.main, [str(a) for a in ["--config", config, *argv]])
            assert code == 0, command.name
            calls = tracing.calls(tracer.spans, tracer.run)
            missing = [name for name in command.span_names if not calls.get(name)]
            assert not missing, f"{command.name} called no {missing}"
    finally:
        tracer.uninstall()
