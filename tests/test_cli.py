import dataclasses
import errno
import hashlib
import inspect
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import factkit
from factkit import cli
from factkit.baseline import logreg_train, tfidf_fit, tfidf_transform, train_baseline
from factkit.cli import DEFAULT_CONFIG, SETTINGS, load_config, main
from factkit.dataio import SplitSpec, read_facts, read_split, write_facts
from factkit.embeddings import (
    FORMAT_VERSION,
    MAGIC,
    EmbeddingMatrix,
    fetch_embeddings,
    load_embeddings,
    save_embeddings,
)
from factkit.metrics import evaluate_labelsets
from factkit.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    canonical_label_space,
    load_model,
    new_model,
    predict,
    save_model,
    targets_from_facts,
)
from factkit.taxonomy import DIMENSIONS, FactRecord, LabelSet

from embed_server import MockEmbedServer, raw_reply
from rss_probe import HAS_PROC, run_probed
from synth import synthetic_dataset

FAST_CONFIG = {
    "seeds": [42, 123],
    "train": {
        "learning_rate": 0.01,
        "batch_size": 32,
        "max_epochs": 10,
        "patience": 10,
        "hidden": None,
        "dropout": 0.1,
        "weight_decay": 0.0,
    },
    "baseline": {"l2": 1e-4},
}


@pytest.fixture()
def workspace(tmp_path):
    facts, emb = synthetic_dataset(n_facts=200, invalid_count=60)
    facts_path = tmp_path / "facts.jsonl"
    write_facts(facts_path, facts)
    emb_path = tmp_path / "facts.emb"
    save_embeddings(emb_path, emb)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG))
    return tmp_path, facts_path, emb_path, config_path


def run(*argv):
    return main([str(a) for a in argv])


def test_cli_import_leaves_scipy_sparse_unloaded():
    # importing the command line must not pay scipy.sparse's import time and RSS
    env = dict(os.environ, PYTHONPATH=str(Path(factkit.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, factkit.cli; print('scipy.sparse' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.split() == ["False"]


def test_cli_import_leaves_the_http_stack_unloaded():
    # only embed-fetch talks HTTP; every other command must not pay for ssl and urllib
    env = dict(os.environ, PYTHONPATH=str(Path(factkit.__file__).resolve().parents[1]))
    script = ("import sys, factkit.cli\n"
              "print([m for m in ('ssl', 'http.client', 'urllib.request') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", script],
                            env=env, capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.split() == ["[]"]


def test_sample_and_analyze_leave_scipy_sparse_unloaded(workspace):
    tmp_path, facts_path, emb_path, config_path = workspace
    model_path = tmp_path / "model.ckpt"
    save_model(model_path, new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2))
    commands = [
        ["--config", config_path, "sample", "--facts", facts_path, "--embeddings", emb_path,
         "--out", tmp_path / "sampled.jsonl", "--k", "5"],
        ["analyze", "--models", model_path, "--corpus", facts_path, "--embeddings", emb_path,
         "--out", tmp_path / "distribution.txt"],
    ]
    script = (
        "import json, sys\n"
        "from factkit.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'scipy.sparse' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(factkit.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps([[str(a) for a in argv] for argv in commands])],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0], False]


def test_baseline_sample_and_analyze_load_no_scipy(tmp_path):
    # the whole package runs on numpy alone, so no command pays scipy's import time and RSS
    facts_path, emb_path, config_path = token_signal_workspace(tmp_path)
    model_path = tmp_path / "model.ckpt"
    save_model(model_path, new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2))
    commands = [
        ["--config", config_path, "baseline", "--facts", facts_path, "--out-dir", tmp_path / "base"],
        ["--config", config_path, "sample", "--facts", facts_path, "--embeddings", emb_path,
         "--out", tmp_path / "sampled.jsonl", "--k", "5"],
        ["analyze", "--models", model_path, "--corpus", facts_path, "--embeddings", emb_path,
         "--out", tmp_path / "distribution.txt"],
    ]
    script = (
        "import json, sys\n"
        "from factkit.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(factkit.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps([[str(a) for a in argv] for argv in commands])],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0, 0], []]


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("frobnicate")
    assert excinfo.value.code == 2


def test_canon_writes_facts_and_exclusions(tmp_path):
    raw_path = tmp_path / "raw.jsonl"
    rows = [
        {
            "id": "r1",
            "text": "I love pizza.",
            "source": "MSC",
            "annotation": {
                "main_category": "Preferences",
                "time": "Present",
                "referent": "Self",
                "duration": ["Long-term"],
                "context_sufficient": "Yes",
                "broken": "No",
                "broken_reason": "None",
                "followup": "None",
            },
        },
        {
            "id": "r2",
            "text": "The weather is nice.",
            "source": "MSC",
            "annotation": {"broken": "Yes", "broken_reason": "No fact"},
        },
        {
            "id": "r3",
            "text": "I jog, long ago and now.",
            "source": "MSC",
            "annotation": {
                "main_category": "Routine activities",
                "time": "Present",
                "referent": "Self",
                "duration": ["Short-term", "Long-term"],
                "context_sufficient": "Yes",
                "broken": "No",
                "broken_reason": "None",
                "followup": "None",
            },
        },
    ]
    raw_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "facts.jsonl"
    assert run("canon", "--raw", raw_path, "--out", out) == 0
    facts = read_facts(out)
    assert len(facts) == 3
    assert facts[0].labels.main_category == "Preferences"
    assert facts[1].labels.invalidity_reason == "No Fact"
    assert facts[2].excluded and facts[2].exclusion_reason == "dual-duration"
    exclusions = (tmp_path / "facts.jsonl.exclusions.jsonl").read_text().splitlines()
    assert json.loads(exclusions[0])["id"] == "r3"
    manifest = json.loads((tmp_path / "facts.jsonl.manifest.json").read_text())
    assert manifest["command"] == "canon"
    assert str(raw_path) in manifest["inputs"]


@pytest.mark.parametrize(
    "annotation, value",
    [
        ({"main_category": "Sports"}, "'Sports'"),
        ({"main_category": 5}, "5"),
        ({"duration": [5]}, "5"),
    ],
    ids=["unknown-string", "number", "number-in-list"],
)
def test_canon_bad_enum_exit_code(tmp_path, capsys, annotation, value):
    raw_path = tmp_path / "raw.jsonl"
    raw_path.write_text(json.dumps({"id": "r1", "text": "x", "annotation": annotation}) + "\n")
    code = run("canon", "--raw", raw_path, "--out", tmp_path / "facts.jsonl")
    assert code == 4
    field = next(iter(annotation))
    assert capsys.readouterr().err == (
        f"error: ParseError: line 1: unknown value {value} for field {field!r}\n"
    )


def test_canon_parse_errors_name_the_line(tmp_path, capsys):
    raw_path = tmp_path / "raw.jsonl"
    good = json.dumps({"id": "r1", "text": "x", "annotation": {}})
    cases = [
        (good + "\n\n{not json\n", "error: ParseError: line 3: invalid JSON: "),
        (good + "\n" + json.dumps({"id": "r2", "text": "y"}) + "\n",
         "error: ParseError: line 2: missing 'annotation' object"),
        ("5\n", "error: ParseError: line 1: missing 'annotation' object"),
        (json.dumps({"id": "r1", "text": 5, "annotation": {"broken": "Yes", "broken_reason": "No fact"}})
         + "\n", "error: ParseError: line 1: fact 'r1' text must be a string"),
        (good + "\n" + json.dumps({"id": "r2", "text": "y", "annotation": {"duration": 5}}) + "\n",
         "error: ParseError: line 2: 'duration' must be a list, not 5"),
        (json.dumps({"id": "r1", "text": "x", "annotation": {"duration": "Long-term"}}) + "\n",
         "error: ParseError: line 1: 'duration' must be a list, not 'Long-term'"),
        (json.dumps({"id": "r1", "text": "x", "annotation": {"duration": ""}}) + "\n",
         "error: ParseError: line 1: 'duration' must be a list, not ''"),
        (json.dumps({"id": "r1", "text": "x", "annotation": {"categories": "Hobbies"}}) + "\n",
         "error: ParseError: line 1: 'categories' must be a list, not 'Hobbies'"),
        (json.dumps({"id": "r1", "text": "x", "source": "Reddit", "annotation": {}}) + "\n",
         "error: ParseError: line 1: unknown value 'Reddit' for field 'source'"),
        (good + "\n" + json.dumps({"id": "r2", "text": "y", "annotation": {"main_category": "Sports"}})
         + "\n", "error: ParseError: line 2: unknown value 'Sports' for field 'main_category'\n"),
        (json.dumps({"id": "r1", "text": "x", "excluded": 1, "annotation": {}}) + "\n",
         "error: ParseError: line 1: 'excluded' must be true or false, not 1"),
        (good + "\n" + "[" * 100_000 + "\n",
         "error: ParseError: line 2: invalid JSON: maximum recursion depth exceeded"),
        ('{"id": "r1", "text": ' + "1" * 5000 + "}\n",
         "error: ParseError: line 1: invalid JSON: Exceeds the limit (4300 digits)"),
    ]
    for content, message in cases:
        raw_path.write_text(content)
        assert run("canon", "--raw", raw_path, "--out", tmp_path / "facts.jsonl") == 4
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "facts.jsonl").exists()
    facts_path = tmp_path / "typed.jsonl"
    labels = LabelSet.invalid("No Fact").as_dict()
    fact_cases = [
        ({"id": "a", "text": 5}, "error: ParseError: line 1: fact 'a' text must be a string"),
        ({"id": "a", "text": "x", "excluded": "false"},
         "error: ParseError: line 1: 'excluded' must be true or false, not 'false'"),
        ({"id": "a", "text": "x", "labels": labels, "context": 5},
         "error: ParseError: line 1: fact 'a' context must be a string or null"),
        ({"id": "a", "text": "x", "labels": labels, "exclusion_reason": ["x"]},
         "error: ParseError: line 1: fact 'a' exclusion_reason must be a string or null"),
        ({"id": "a,b", "text": "x", "labels": labels},
         "error: ParseError: line 1: fact id 'a,b' contains a comma or line break"),
        ("5", "error: ParseError: line 1: record is not a JSON object"),
        ({"text": "x", "labels": labels}, "error: ParseError: line 1: missing field 'id'"),
        ("[" * 100_000, "error: ParseError: line 1: invalid JSON: maximum recursion depth exceeded"),
        ('{"id": "a", "text": ' + "1" * 5000 + "}",
         "error: ParseError: line 1: invalid JSON: Exceeds the limit (4300 digits)"),
    ]
    for record, message in fact_cases:
        facts_path.write_text((record if isinstance(record, str) else json.dumps(record)) + "\n")
        assert run("split", "--facts", facts_path, "--out", tmp_path / "split.txt") == 4
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "split.txt").exists()


@pytest.mark.parametrize("command", ["split", "canon", "agree", "eval"])
def test_undecodable_line_is_parse_error(workspace, capsys, command):
    """A byte that is not UTF-8 on line 2 of a JSON-lines or split file names that line."""
    tmp_path, facts_path, emb_path, _ = workspace
    bad = tmp_path / "bad.txt"
    first = facts_path.read_bytes().split(b"\n", 1)[0]
    bad.write_bytes((b"seed=1 train=7/10 val=1/10 test=1/5" if command == "eval" else first)
                    + b"\n\xff\n\n\n")
    model_path = tmp_path / "model.ckpt"
    dim = load_embeddings(emb_path).dim
    save_model(model_path, new_model(dim, canonical_label_space(), hidden=2))
    argv = {
        "split": ["split", "--facts", bad, "--out", tmp_path / "split.txt"],
        "canon": ["canon", "--raw", bad, "--out", tmp_path / "canon.jsonl"],
        "agree": ["agree", "--labels", facts_path, bad, "--out", tmp_path / "agree.txt"],
        "eval": ["eval", "--model", model_path, "--facts", facts_path, "--embeddings", emb_path,
                 "--split", bad, "--out", tmp_path / "eval.txt"],
    }[command]
    assert run(*argv) == 4
    assert capsys.readouterr().err.startswith(
        "error: ParseError: line 2: not UTF-8 at byte 0: invalid start byte"
    )


@pytest.mark.parametrize(
    "defect, message",
    [
        ("nan-row", "embedding rows contain non-finite values"),
        ("id-not-utf8", "id 199 is not UTF-8: invalid start byte"),
    ],
    ids=["nan-row", "id-not-utf8"],
)
def test_bad_embedding_content_exit_code(workspace, capsys, defect, message):
    tmp_path, facts_path, emb_path, _ = workspace
    data = bytearray(emb_path.read_bytes())
    if defect == "nan-row":
        data[16:20] = struct.pack("<f", float("nan"))  # the first value, after the header
    else:
        data[-1] = 0xFF  # the last byte of the last id
    bad = tmp_path / "bad.emb"
    bad.write_bytes(data)
    code = run("sample", "--facts", facts_path, "--embeddings", bad, "--out", tmp_path / "s.jsonl")
    assert code == 5
    assert capsys.readouterr().err.startswith(f"error: BadMagic: {bad}: {message}")


def test_load_config_never_aliases_defaults(tmp_path):
    before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"seeds": [1]}))
    for path in (None, str(partial)):
        config = load_config(path)
        config["train"]["max_epochs"] = 99
        config["split"]["train"] = "1/2"
        config["seeds"].append(7)
    assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before


def _default(func, name):
    return inspect.signature(func).parameters[name].default


_TRAIN_FIELDS = {field.name: field.default for field in dataclasses.fields(TrainConfig)}
_SPLIT_FIELDS = {field.name: field.default for field in dataclasses.fields(SplitSpec)}


@pytest.mark.parametrize(
    "name, library",
    [
        *[(f"train.{key}", _TRAIN_FIELDS[key])
          for key in ("learning_rate", "batch_size", "max_epochs", "patience", "weight_decay")],
        ("train.hidden", _default(new_model, "hidden")),
        ("train.dropout", _default(new_model, "dropout_rate")),
        *[(f"split.{key}", _SPLIT_FIELDS[f"{key}_frac"]) for key in ("train", "val", "test")],
        ("baseline.l2", _default(logreg_train, "l2")),
        ("baseline.l2", _default(train_baseline, "l2")),
        ("embedding.timeout", _default(fetch_embeddings, "timeout")),
        ("embedding.retries", _default(fetch_embeddings, "retries")),
    ],
)
def test_settings_defaults_match_library_defaults(name, library):
    # each recipe default is written twice, so the CLI and the library cannot drift apart
    default, kind, _ = SETTINGS[name]
    assert (Fraction(default) if kind is Fraction else default) == library


def test_split_command(workspace):
    tmp_path, facts_path, _, config_path = workspace
    out = tmp_path / "split.txt"
    assert run("--config", config_path, "split", "--facts", facts_path, "--out", out, "--seed", "42") == 0
    assignment, spec = read_split(out)
    assert spec.seed == 42
    total = len(assignment.train) + len(assignment.val) + len(assignment.test)
    assert total == 200
    assert abs(len(assignment.train) - 0.7 * total) <= 10  # strata rounding


def test_sample_command(workspace):
    tmp_path, facts_path, emb_path, config_path = workspace
    out = tmp_path / "sampled.jsonl"
    code = run(
        "sample",
        "--facts", facts_path,
        "--embeddings", emb_path,
        "--out", out,
        "--k", "10",
        "--cap", "3",
        "--seed", "1",
    )
    assert code == 0
    sampled = read_facts(out)
    assert 10 <= len(sampled) <= 30
    source_ids = {f.id for f in read_facts(facts_path)}
    assert all(f.id in source_ids for f in sampled)


def test_sample_output_golden(tmp_path):
    """Pins k-means++ seeding, Lloyd's stopping rule (tolerance and iteration cap)
    and the capped draw: on these points a tolerance of 1e-2 or a cap of 3
    iterations changes the sampled facts."""
    facts, emb = synthetic_dataset(n_facts=1000, invalid_count=250, noise=1.0)
    write_facts(tmp_path / "facts.jsonl", facts)
    save_embeddings(tmp_path / "facts.emb", emb)
    out = tmp_path / "sampled.jsonl"
    assert run(
        "sample", "--facts", tmp_path / "facts.jsonl", "--embeddings", tmp_path / "facts.emb",
        "--out", out, "--k", "10", "--cap", "3", "--seed", "1",
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "844f1af8f4d7bc959013e5bc887e52dd8bc6a73b871806fa78f4ab108328daba"
    )


def test_embed_fetch_command(workspace, monkeypatch):
    tmp_path, facts_path, _, _ = workspace
    out = tmp_path / "fetched.emb"
    monkeypatch.setenv("FACTKIT_EMBED_TOKEN", "s3cret")
    with MockEmbedServer(mode="hash", dim=5) as server:
        code = run(
            "embed-fetch",
            "--facts", facts_path,
            "--endpoint", server.url,
            "--out", out,
            "--batch-size", "16",
        )
    assert code == 0
    matrix = load_embeddings(out)
    assert matrix.dim == 5
    assert len(matrix) == 200
    assert matrix.row_ids[0] == "s0000"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "cebf465e4c8fd3626f4cc45cac0de3a0df600277ce89ceea8400320c6726ae93"
    )
    assert len(server.headers_seen) == 13  # 200 facts in batches of 16
    for headers in server.headers_seen:
        assert headers["Authorization"] == "Bearer s3cret"
        assert headers["Content-Type"] == "application/json"


@pytest.mark.parametrize(
    "reply, message",
    [
        (raw_reply("404 Not Found", b"<html>\n<h1>Not Found</h1>\n</html>\n"),
         "ProtocolError: endpoint returned status 404: <html>\\n<h1>Not Found</h1>\\n</html>\\n"),
        (b"garbage\r\n", "TransportError: POST "),
    ],
    ids=["404-html", "bad-status-line"],
)
def test_embed_fetch_error_is_one_line(workspace, capsys, reply, message):
    tmp_path, facts_path, _, _ = workspace
    config_path = tmp_path / "no-retry.json"
    config_path.write_text(json.dumps({"embedding": {"retries": 0}}))
    with MockEmbedServer(mode="raw", payload=reply) as server:
        code = run(
            "--config", config_path,
            "embed-fetch",
            "--facts", facts_path,
            "--endpoint", server.url,
            "--out", tmp_path / "fetched.emb",
        )
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "\r" not in err


def test_train_on_zero_width_embeddings_exit_code(workspace, capsys):
    tmp_path, facts_path, _, config_path = workspace
    ids = [fact.id.encode() for fact in read_facts(facts_path)]
    bad = tmp_path / "zero.emb"
    bad.write_bytes(struct.pack("<4I", MAGIC, FORMAT_VERSION, len(ids), 0)
                    + b"".join(struct.pack("<I", len(i)) + i for i in ids))
    out_dir = tmp_path / "run"
    code = run("--config", config_path, "train", "--facts", facts_path, "--embeddings", bad,
               "--out-dir", out_dir)
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: DimensionMismatch: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("**/*.ckpt"))


def test_embed_fetch_empty_facts_exit_code(tmp_path, capsys):
    facts_path = tmp_path / "facts.jsonl"
    facts_path.write_text("")
    # never contacted: an empty input fails before the first request
    code = run("embed-fetch", "--facts", facts_path, "--endpoint", "http://127.0.0.1:9/embed",
               "--out", tmp_path / "e.emb")
    assert code == 4
    assert capsys.readouterr().err == "error: EmptyInput: no texts to embed\n"


def test_train_eval_predict_analyze_pipeline(workspace):
    tmp_path, facts_path, emb_path, config_path = workspace
    out_dir = tmp_path / "run"
    code = run(
        "--config", config_path,
        "train",
        "--facts", facts_path,
        "--embeddings", emb_path,
        "--out-dir", out_dir,
    )
    assert code == 0
    assert (out_dir / "model-seed42.ckpt").exists()
    assert (out_dir / "model-seed123.ckpt").exists()
    metrics_text = (out_dir / "metrics.txt").read_text()
    assert "overall_macro_f1.mean=" in metrics_text
    mean = float(
        [l for l in metrics_text.splitlines() if l.startswith("overall_macro_f1.mean=")][0]
        .split("=")[1]
    )
    assert mean > 0.9

    # eval one checkpoint on its split's test ids
    report_path = tmp_path / "eval.txt"
    code = run(
        "eval",
        "--model", out_dir / "model-seed42.ckpt",
        "--facts", facts_path,
        "--embeddings", emb_path,
        "--split", out_dir / "split-seed42.txt",
        "--out", report_path,
    )
    assert code == 0
    assert "overall_macro_f1.mean=" in report_path.read_text()

    # predict the corpus
    pred_path = tmp_path / "pred.jsonl"
    code = run(
        "predict",
        "--model", out_dir / "model-seed42.ckpt",
        "--embeddings", emb_path,
        "--out", pred_path,
    )
    assert code == 0
    lines = [json.loads(l) for l in pred_path.read_text().splitlines()]
    assert len(lines) == 200
    assert set(lines[0]["labels"]) == {d.value for d in DIMENSIONS}
    assert all(0.0 <= c <= 1.0 for c in lines[0]["confidence"].values())

    # analyze with both checkpoints and the leakage audit against train facts
    report = tmp_path / "distribution.txt"
    code = run(
        "analyze",
        "--models", out_dir / "model-seed42.ckpt", out_dir / "model-seed123.ckpt",
        "--corpus", facts_path,
        "--embeddings", emb_path,
        "--train-facts", facts_path,
        "--out", report,
    )
    assert code == 0
    text = report.read_text()
    assert "overlap_fraction=1.0000" in text
    assert "fully overlaps" in text


def test_train_rerun_is_byte_identical(workspace):
    tmp_path, facts_path, emb_path, config_path = workspace
    first = tmp_path / "runA"
    second = tmp_path / "runB"
    for out_dir in (first, second):
        code = run(
            "--config", config_path,
            "train",
            "--facts", facts_path,
            "--embeddings", emb_path,
            "--out-dir", out_dir,
            "--seeds", "42",
        )
        assert code == 0
    assert (first / "model-seed42.ckpt").read_bytes() == (
        second / "model-seed42.ckpt"
    ).read_bytes()
    assert (first / "metrics.txt").read_bytes() == (second / "metrics.txt").read_bytes()
    assert (first / "split-seed42.txt").read_bytes() == (
        second / "split-seed42.txt"
    ).read_bytes()


@pytest.mark.skipif(not HAS_PROC, reason="needs Linux /proc")
def test_train_memory_holds_three_parameter_vectors_and_one_gradient_block(tmp_path):
    # at d = hidden = 1024 theta is ~59 MB, so the vectors training keeps dominate:
    # parameters and two AdamW moments; a head's gradient goes out in 2 MiB W1 blocks and
    # a small tail, and the best epoch waits in an unlinked temporary file, read back
    # into the parameters themselves
    facts, emb = synthetic_dataset(n_facts=120, invalid_count=40)
    noise = np.random.default_rng(0).normal(0.0, 0.02, size=(len(facts), 1024 - emb.dim))
    write_facts(tmp_path / "facts.jsonl", facts)
    save_embeddings(tmp_path / "facts.emb", EmbeddingMatrix(np.hstack([emb.rows, noise]), emb.row_ids))
    config = dict(FAST_CONFIG, seeds=[1], train=dict(FAST_CONFIG["train"], max_epochs=3))
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, growth_bytes = run_probed(
        "--config", tmp_path / "config.json", "train", "--facts", tmp_path / "facts.jsonl",
        "--embeddings", tmp_path / "facts.emb", "--out-dir", tmp_path / "out",
    )
    assert code == 0
    theta_bytes = load_model(tmp_path / "out" / "model-seed1.ckpt").theta.nbytes
    assert growth_bytes < 3.32 * theta_bytes, f"peak growth {growth_bytes / theta_bytes:.2f} x theta"


def test_train_without_room_for_its_snapshot_writes_no_model(workspace, capsys, monkeypatch):
    tmp_path, facts_path, emb_path, config_path = workspace

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", full_disk)
    out_dir = tmp_path / "run"
    code = run("--config", config_path, "train", "--facts", facts_path, "--embeddings", emb_path,
               "--out-dir", out_dir)
    assert code == 4
    assert capsys.readouterr().err == "error: OSError: [Errno 28] No space left on device\n"
    assert not list(out_dir.glob("model-seed*.ckpt")) and not (out_dir / "metrics.txt").exists()


@pytest.mark.parametrize("field", ["id", "text"])
@pytest.mark.parametrize("command", ["split", "train", "canon", "embed-fetch"])
def test_lone_surrogate_is_parse_error(workspace, capsys, command, field):
    tmp_path, facts_path, emb_path, config_path = workspace
    first, rest = facts_path.read_text().split("\n", 1)
    record = json.loads(first)
    if command == "canon":  # a raw record, which canon would otherwise accept
        record = {"id": "r1", "text": "x", "annotation": {"broken": "Yes", "broken_reason": "No fact"}}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**record, field: "\ud800"}) + "\n" + rest)
    argv = {
        "split": ["split", "--facts", bad, "--out", tmp_path / "split.txt"],
        "train": ["--config", config_path, "train", "--facts", bad, "--embeddings", emb_path,
                  "--out-dir", tmp_path / "run"],
        "canon": ["canon", "--raw", bad, "--out", tmp_path / "canon.jsonl"],
        # never contacted: the facts fail before the first request
        "embed-fetch": ["embed-fetch", "--facts", bad, "--endpoint", "http://127.0.0.1:9/embed",
                        "--out", tmp_path / "e.emb"],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert run(*argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: line 1: a string holds a lone surrogate")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.skipif(not HAS_PROC, reason="needs Linux /proc")
def test_sample_memory_frees_the_loaded_rows_before_kmeans(tmp_path):
    # 16,000 rows of d = 1024 in ten planted clusters, so Lloyd converges in a few
    # iterations. K-Means holds a float64 copy of the normalized rows (two float32
    # sizes); holding the loaded rows and l2_normalize's float64 copy as well
    # cost one float32 size more.
    n, d, k = 16_000, 1024, 10
    rng = np.random.default_rng(0)
    rows = (rng.normal(size=(k, d))[np.arange(n) % k] + rng.normal(0.0, 0.1, (n, d))).astype(np.float32)
    facts = [FactRecord(id=f"f{i}", text="t") for i in range(n)]
    write_facts(tmp_path / "facts.jsonl", facts)
    save_embeddings(tmp_path / "facts.emb", EmbeddingMatrix(rows, tuple(f.id for f in facts)))
    code, growth_bytes = run_probed(
        "sample", "--facts", tmp_path / "facts.jsonl", "--embeddings", tmp_path / "facts.emb",
        "--out", tmp_path / "sampled.jsonl", "--k", k, "--seed", "1",
    )
    assert code == 0
    assert growth_bytes < 5.4 * rows.nbytes, f"peak growth {growth_bytes / rows.nbytes:.2f} x rows"


def test_train_with_inverse_frequency_weighting(workspace):
    tmp_path, facts_path, emb_path, _ = workspace
    config = json.loads(json.dumps(FAST_CONFIG))
    config["train"]["label_weighting"] = "inverse-frequency"
    config["seeds"] = [42]
    config_path = tmp_path / "weighted.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "weighted-run"
    code = run(
        "--config", config_path,
        "train",
        "--facts", facts_path,
        "--embeddings", emb_path,
        "--out-dir", out_dir,
    )
    assert code == 0
    model = load_model(out_dir / "model-seed42.ckpt")
    assert model.label_weights is not None
    # rare labels carry larger weights than frequent ones
    followup = list(model.category_names).index("followup")
    weights = model.label_weights[followup]
    assert weights[0] > weights[2]  # "Yes" rarer than "None"


def token_signal_workspace(tmp_path):
    """Facts whose texts carry one token per label, which TF-IDF can learn."""
    facts, emb = synthetic_dataset(n_facts=120, invalid_count=36)
    for fact in facts:
        tokens = [f"{d.value}_{fact.labels.get(d).replace(' ', '')}" for d in DIMENSIONS]
        fact.text = " ".join(tokens)
    facts_path = tmp_path / "facts.jsonl"
    write_facts(facts_path, facts)
    emb_path = tmp_path / "facts.emb"
    save_embeddings(emb_path, emb)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG))
    return facts_path, emb_path, config_path


def test_baseline_command(tmp_path):
    facts_path, _, config_path = token_signal_workspace(tmp_path)
    out_dir = tmp_path / "base"
    code = run(
        "--config", config_path,
        "baseline",
        "--facts", facts_path,
        "--out-dir", out_dir,
        "--seeds", "42", "123",
    )
    assert code == 0
    text = (out_dir / "baseline-metrics.txt").read_text()
    mean = float(
        [l for l in text.splitlines() if l.startswith("overall_macro_f1.mean=")][0].split("=")[1]
    )
    assert mean > 0.8


def golden_baseline_workspace(tmp_path):
    """The token-signal facts, rewritten so TF-IDF's recipe shows in the scores.

    The label tokens are thinned so the scores stay below 100%, odd facts spell
    "e" as "é", and the first word repeats up to twice."""
    facts_path, _, config_path = token_signal_workspace(tmp_path)
    facts = read_facts(facts_path)
    for i, fact in enumerate(facts):
        words = [w for c, w in enumerate(fact.text.split()) if (i * 7 + c * 3) % 5 >= 2] or ["empty"]
        text = " ".join([words[0]] * (i % 3) + words)
        fact.text = text.replace("e", "é") if i % 2 else text
    write_facts(facts_path, facts)
    return facts, facts_path, config_path


def test_tfidf_arrays_golden(tmp_path):
    """Pins every TF-IDF value bitwise: the CSR values, column indices and row pointers.

    Entries are hashed in (row, column) order, so the order a CSR form keeps
    within a row does not matter."""
    facts, _, _ = golden_baseline_workspace(tmp_path)
    texts = [fact.text for fact in facts] + ["unseen words only"]
    matrix = tfidf_transform(tfidf_fit(texts), texts)
    indptr = np.asarray(matrix.indptr, dtype="<i8")
    order = np.lexsort((matrix.indices, np.repeat(np.arange(len(texts)), np.diff(indptr))))
    digest = hashlib.sha256()
    for array in (np.asarray(matrix.data, "<f8")[order], np.asarray(matrix.indices, "<i8")[order], indptr):
        digest.update(array.tobytes())
    assert matrix.shape == (len(texts), 107) and matrix.nnz == 2084
    assert digest.hexdigest() == "61076dfbaded09a9af4bcd7ba9e806be841a2629a915b8746f4e1b12cb432b71"


def test_baseline_report_golden(tmp_path):
    """Pins the TF-IDF recipe: NFKD accent folding and 1 + ln(count) term frequency."""
    _, facts_path, config_path = golden_baseline_workspace(tmp_path)
    out_dir = tmp_path / "base"
    assert run(
        "--config", config_path, "baseline", "--facts", facts_path, "--out-dir", out_dir,
        "--seeds", "42", "123",
    ) == 0
    report = (out_dir / "baseline-metrics.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "36ea65f7abee040010fc528318f3d9a958dcea0756f1bf1763b35c0cd42ec23f"
    )


def test_train_and_baseline_write_identical_splits(tmp_path):
    facts_path, emb_path, config_path = token_signal_workspace(tmp_path)
    seeds = ("42", "123")
    code = run(
        "--config", config_path,
        "train",
        "--facts", facts_path,
        "--embeddings", emb_path,
        "--out-dir", tmp_path / "train",
        "--seeds", *seeds,
    )
    assert code == 0
    code = run(
        "--config", config_path,
        "baseline",
        "--facts", facts_path,
        "--out-dir", tmp_path / "base",
        "--seeds", *seeds,
    )
    assert code == 0
    for seed in seeds:
        name = f"split-seed{seed}.txt"
        assert (tmp_path / "train" / name).read_bytes() == (tmp_path / "base" / name).read_bytes()


def test_agree_command(tmp_path):
    facts, _ = synthetic_dataset(n_facts=40, invalid_count=12)
    rater_a = tmp_path / "a.jsonl"
    write_facts(rater_a, facts)
    # second rater: copy with a few flipped validity labels
    flipped = []
    for i, fact in enumerate(facts):
        labels = fact.labels
        if i % 10 == 0:
            labels = LabelSet.invalid("Opinion") if labels.validity == "Valid" else labels
        flipped.append(
            FactRecord(id=fact.id, text=fact.text, labels=labels)
        )
    rater_b = tmp_path / "b.jsonl"
    write_facts(rater_b, flipped)
    out = tmp_path / "agreement.txt"
    code = run("agree", "--labels", rater_a, rater_b, "--out", out)
    assert code == 0
    text = out.read_text()
    assert "main_category" in text
    assert "average" in text
    assert "aligned units: 40" in text


# Captured from the Counter-based statistics the count matrix replaced.
AGREE_GOLDEN = {
    2: """\
raters: 2, aligned units: 60

dimension             %agree   cohen  fleiss   alpha  interpretation       N
main_category          75.0%   0.705   0.705   0.708  Substantial         60
time                   98.3%   0.976   0.976   0.976  Almost Perfect      60
referent               76.7%   0.565   0.542   0.546  Moderate            60
duration               76.7%   0.565   0.542   0.546  Moderate            60
validity               96.7%   0.921   0.921   0.921  Almost Perfect      60
invalidity_reason      96.7%   0.932   0.932   0.933  Almost Perfect      60
followup               90.0%   0.694   0.690   0.692  Substantial         60
average                87.1%   0.766   0.758   0.760  Substantial          -
""",
    3: """\
raters: 3, aligned units: 59

dimension             %agree   cohen  fleiss   alpha  interpretation       N
main_category          70.1%       -   0.648   0.650  Substantial         59
time                   95.5%       -   0.936   0.936  Almost Perfect      59
referent               73.4%       -   0.528   0.530  Moderate            59
duration               73.4%       -   0.528   0.530  Moderate            59
validity               92.1%       -   0.805   0.806  Almost Perfect      59
invalidity_reason      92.1%       -   0.831   0.832  Almost Perfect      59
followup               88.1%       -   0.636   0.638  Substantial         59
average                83.5%       -   0.702   0.703  Substantial          -
""",
}


def rater_files(tmp_path, n_raters):
    """Rater 0 copies the synthetic labels; rater k swaps in a neighbour's
    labels on every (2 + k)-th fact, and rater 2 leaves one fact unlabeled."""
    facts, _ = synthetic_dataset(n_facts=60, invalid_count=18)
    paths = []
    for k in range(n_raters):
        rated = []
        for i, fact in enumerate(facts):
            labels = fact.labels
            if k and i % (2 + k) == 0:
                labels = facts[(i + 5 * k) % len(facts)].labels
            if k == 2 and i == 7:
                labels = None
            rated.append(FactRecord(id=fact.id, text=fact.text, labels=labels))
        paths.append(tmp_path / f"rater{k}.jsonl")
        write_facts(paths[-1], rated)
    return paths


@pytest.mark.parametrize("n_raters", [2, 3])
def test_agree_report_golden(tmp_path, n_raters):
    out = tmp_path / "agreement.txt"
    assert run("agree", "--labels", *rater_files(tmp_path, n_raters), "--out", out) == 0
    assert out.read_text() == AGREE_GOLDEN[n_raters]


def test_agree_needs_two_files(tmp_path):
    facts, _ = synthetic_dataset(n_facts=10, invalid_count=3)
    path = tmp_path / "a.jsonl"
    write_facts(path, facts)
    code = run("agree", "--labels", path, "--out", tmp_path / "x.txt")
    assert code == 3


def test_missing_embedding_file_exit_code(workspace):
    tmp_path, facts_path, _, _ = workspace
    bad = tmp_path / "bad.emb"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    code = run(
        "sample",
        "--facts", facts_path,
        "--embeddings", bad,
        "--out", tmp_path / "s.jsonl",
    )
    assert code == 5


@pytest.mark.parametrize(
    "mode, payload, message",
    [
        ("payload", [[1.0, float("nan")], [0.0, 1.0]], "embeddings contain non-finite values"),
        ("payload", [["x", 1.0], [0.0, 1.0]], "embeddings are not a numeric matrix: "),
        ("payload", [[1.0, 2.0], [3.0]], "embeddings are not a numeric matrix: "),
        ("body", [[0.5, 1.0]], "reply is not a JSON object: [[0.5, 1.0]]"),
        ("body", {"dim": 0, "embeddings": [[], []]}, "embeddings have no columns"),
        ("body", {"dim": True, "embeddings": [[0.5], [1.0]]}, "declared dim True is not a JSON integer"),
        ("body", {"dim": 1.0, "embeddings": [[0.5], [1.0]]}, "declared dim 1.0 is not a JSON integer"),
        ("payload", [[True, 1.0], [0.0, 1.0]], "embeddings are not a numeric matrix: rows hold bool"),
        ("payload", [["0.5", 1.0], [0.0, 1.0]], "embeddings are not a numeric matrix: rows hold str"),
        ("payload", [[10**400, 1.0], [0.0, 1.0]],
         "embeddings are not a numeric matrix: int too large to convert to float"),
        ("raw", raw_reply("200 OK", b"[" * 100_000),
         "non-JSON body: maximum recursion depth exceeded"),
        ("body", {"dim": 2, "embeddings": [[0.5, 1.0]]}, "expected 2 embeddings, got [[0.5, 1.0]]"),
        ("body", {"dim": 3, "embeddings": [[0.5, 1.0], [0.0, 1.0]]},
         "declared dim 3 does not match payload"),
    ],
    ids=[
        "nan", "string", "ragged", "not-object", "zero-width",
        "dim-true", "dim-float", "boolean-row", "numeric-string-row", "huge-int-row",
        "deep-nesting", "fewer-rows", "dim-not-row-width",
    ],
)
def test_embed_fetch_bad_reply_is_protocol_error(workspace, capsys, mode, payload, message):
    tmp_path, facts_path, _, _ = workspace
    out = tmp_path / "fetched.emb"
    with MockEmbedServer(mode=mode, dim=2, payload=payload) as server:
        code = run(
            "embed-fetch",
            "--facts", facts_path,
            "--endpoint", server.url,
            "--out", out,
            "--batch-size", "2",
        )
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith(f"error: ProtocolError: endpoint returned status 200: {message}")
    assert err.count("\n") == 1 and not out.exists()


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = run("split", "--facts", tmp_path / "nope.jsonl", "--out", tmp_path / "split.txt")
    assert code == 4
    assert capsys.readouterr().err.startswith("error: FileNotFoundError: [Errno 2] ")


def test_missing_checkpoint_is_data_error_before_any_output(workspace, capsys):
    tmp_path, facts_path, emb_path, _ = workspace
    model_path = tmp_path / "model.ckpt"
    save_model(model_path, new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2))
    missing = tmp_path / "nope.ckpt"
    report = tmp_path / "distribution.txt"
    code = run("analyze", "--models", model_path, missing, "--corpus", facts_path,
               "--embeddings", emb_path, "--out", report)
    assert code == 4
    assert capsys.readouterr().err.startswith(
        f"error: FileNotFoundError: [Errno 2] No such file or directory: '{missing}'"
    )
    assert not report.exists()


@pytest.mark.parametrize(
    "case", ["analyze-wide-first", "analyze-wide-second", "agree-no-shared-id", "eval-not-embedded"]
)
def test_inputs_that_do_not_line_up_exit_code(workspace, capsys, case):
    """Files that each read cleanly but do not fit together end in one line."""
    tmp_path, facts_path, emb_path, _ = workspace
    matrix = load_embeddings(emb_path)
    narrow, wide = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(narrow, new_model(matrix.dim, canonical_label_space(), hidden=2))
    save_model(wide, new_model(matrix.dim + 1, canonical_label_space(), hidden=2))
    facts = read_facts(facts_path)
    renamed = tmp_path / "renamed.jsonl"  # the same facts under ids the embeddings lack
    write_facts(renamed, [dataclasses.replace(fact, id=f"x{fact.id}") for fact in facts])
    out = tmp_path / "out.txt"
    corpus = ["--corpus", facts_path, "--embeddings", emb_path, "--out", out]
    too_wide = f"DimensionMismatch: expected (*, {matrix.dim + 1}) inputs, got {matrix.rows.shape}"
    argv, code, message = {
        "analyze-wide-first": (["analyze", "--models", wide, narrow, *corpus], 5, too_wide),
        "analyze-wide-second": (["analyze", "--models", narrow, wide, *corpus], 5, too_wide),
        "agree-no-shared-id": (["agree", "--labels", facts_path, renamed, "--out", out], 9,
                               "NoComparableUnits: no fact id is labeled in every file"),
        "eval-not-embedded": (["eval", "--model", narrow, "--facts", renamed,
                               "--embeddings", emb_path, "--out", out], 5,
                              f"DimensionMismatch: id 'x{facts[0].id}' not in embedding matrix"),
    }[case]
    assert run(*argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_canon_in_place_records_the_input_digest_before_the_run(tmp_path):
    raw_path = tmp_path / "raw.jsonl"
    row = {"id": "r1", "text": "I jog.", "annotation": {"broken": "Yes", "broken_reason": "No fact"}}
    raw_path.write_text(json.dumps(row) + "\n")
    before = _sha256_of(raw_path)
    assert run("canon", "--raw", raw_path, "--out", raw_path) == 0
    assert _sha256_of(raw_path) != before  # the output replaced the input
    manifest = json.loads((tmp_path / "raw.jsonl.manifest.json").read_text())
    assert manifest["inputs"] == {str(raw_path): before}


def test_analyze_manifest_digests_every_input(workspace):
    tmp_path, facts_path, emb_path, _ = workspace
    dim = load_embeddings(emb_path).dim
    models = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for seed, path in enumerate(models):
        save_model(path, new_model(dim, canonical_label_space(), hidden=2, seed=seed))
    report = tmp_path / "distribution.txt"
    code = run("analyze", "--models", *models, "--corpus", facts_path,
               "--embeddings", emb_path, "--out", report)
    assert code == 0
    manifest = json.loads((tmp_path / "distribution.txt.manifest.json").read_text())
    assert manifest["inputs"] == {
        str(path): _sha256_of(path) for path in (*models, facts_path, emb_path)
    }


def test_malformed_checkpoint_header_exit_code(workspace, capsys):
    tmp_path, _, emb_path, _ = workspace
    bad = tmp_path / "bad.ckpt"
    blob = b'{"dim": 5, "hidden": 2'
    bad.write_bytes(struct.pack("<3I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)) + blob)
    code = run("predict", "--model", bad, "--embeddings", emb_path, "--out", tmp_path / "p.jsonl")
    assert code == 5
    assert capsys.readouterr().err.startswith("error: BadMagic: ")


def _label_weights_negative(header):
    for category in header["categories"]:
        category["label_weights"] = [-1.0] * len(category["labels"])


# headers that new_model could not have built, each one field away from a saved checkpoint
REFUSED_HEADER_EDITS = {
    "dropout-string": lambda h: h.update(dropout_rate="x"),
    "dropout-above-one": lambda h: h.update(dropout_rate=5.0),
    "weight-negative": lambda h: h["categories"][0].update(weight=-1.0),
    "weight-nan": lambda h: h["categories"][0].update(weight=math.nan),
    "one-label": lambda h: h["categories"][0].update(labels=h["categories"][0]["labels"][:1]),
    "label-weights-negative": _label_weights_negative,
    "name-int": lambda h: h["categories"][0].update(name=7),  # not SchemaMismatch, exit 9
    "repeated-label": lambda h: h["categories"][0]["labels"].__setitem__(
        1, h["categories"][0]["labels"][0]),  # not SchemaMismatch either
    "repeated-name": lambda h: h["categories"][1].update(name=h["categories"][0]["name"]),
}


@pytest.mark.parametrize("edit", REFUSED_HEADER_EDITS.values(), ids=REFUSED_HEADER_EDITS.keys())
def test_refused_checkpoint_header_exit_code(workspace, capsys, edit):
    tmp_path, _, emb_path, _ = workspace
    path = tmp_path / "model.ckpt"
    save_model(path, new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2))
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + blob_len])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + blob_len :])
    out = tmp_path / "p.jsonl"
    code = run("predict", "--model", path, "--embeddings", emb_path, "--out", out)
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: BadMagic: ") and err.count("\n") == 1
    assert "malformed checkpoint header" in err
    assert not out.exists()


def test_non_finite_checkpoint_exit_code(workspace, capsys):
    tmp_path, _, emb_path, _ = workspace
    model = new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2)
    model.theta[7] = np.nan
    save_model(tmp_path / "nan.ckpt", model)
    out = tmp_path / "p.jsonl"
    code = run("predict", "--model", tmp_path / "nan.ckpt", "--embeddings", emb_path, "--out", out)
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: BadMagic: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_training_exit_code(workspace, capsys):
    tmp_path, facts_path, emb_path, _ = workspace
    config_path = tmp_path / "overflow.json"
    train = {**FAST_CONFIG["train"], "learning_rate": 1e308}
    config_path.write_text(json.dumps({**FAST_CONFIG, "train": train}))
    out_dir = tmp_path / "run"
    code = run("--config", config_path, "train", "--facts", facts_path, "--embeddings", emb_path,
               "--out-dir", out_dir)
    assert code == 8
    assert capsys.readouterr().err == "error: NonFiniteLoss: epoch 1, batch at 32: loss=nan\n"


@pytest.mark.parametrize(
    "config, code, stderr",
    [
        ({**FAST_CONFIG, "train": {**FAST_CONFIG["train"], "learning_rate": 1e308}}, 8,
         "error: NonFiniteLoss: epoch 1, batch at 32: loss=nan\n"),
        # one batch an epoch: the validation pass overflows in epochs 1 and 2, the loss in 3
        ({"train": {"weight_decay": 1e300, "batch_size": 256}}, 8,
         "error: NonFiniteLoss: epoch 3, batch at 0: loss=nan\n"),
        ({"train": {"weight_decay": 1e300, "batch_size": 256, "max_epochs": 2}}, 0, ""),
    ],
    ids=["learning-rate", "weight-decay", "weight-decay-two-epochs"],
)
def test_overflowing_training_prints_one_line_in_a_child_process(workspace, config, code, stderr):
    tmp_path, facts_path, emb_path, _ = workspace
    config_path = tmp_path / "overflow.json"
    config_path.write_text(json.dumps(config))
    argv = ["--config", config_path, "train", "--facts", facts_path, "--embeddings", emb_path,
            "--out-dir", tmp_path / "run"]
    env = dict(os.environ, PYTHONPATH=str(Path(factkit.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-m", "factkit.cli", *map(str, argv)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == code
    assert result.stderr == stderr


def test_eval_without_split_scores_every_trainable_fact(workspace, capsys):
    tmp_path, facts_path, emb_path, _ = workspace
    model_path = tmp_path / "model.ckpt"
    save_model(model_path, new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2))
    out = tmp_path / "eval.txt"
    code = run("eval", "--model", model_path, "--facts", facts_path, "--embeddings", emb_path,
               "--out", out)
    assert code == 0
    trainable = [f for f in read_facts(facts_path) if f.labels is not None and not f.excluded]
    assert f"over {len(trainable)} facts" in capsys.readouterr().out
    predictions, _ = predict(
        load_model(model_path), load_embeddings(emb_path).select([f.id for f in trainable])
    )
    gold = targets_from_facts(trainable, canonical_label_space())
    report = evaluate_labelsets(gold, predictions)
    assert out.read_text() == cli._aggregate_and_render([report])


@pytest.mark.parametrize(
    "header, repeat, message",
    [
        ("seed=1 train=11/10 val=-1/5 test=1/10", None, "line 1: bad split header: "),
        ("seed=1 train=1/0 val=1/10 test=1/5", None, "line 1: bad split header: "),
        ("seed=1 train=7/10 val=1/10 test=1/5", "test", "line 4: split id {!r} is listed twice"),
        ("seed=1 train=7/10 val=1/10 test=1/5", "train", "line 4: split id {!r} is listed twice"),
        ("seed=1 train:7/10 val=1/10 test=1/5", None, "line 1: malformed header token 'train:7/10'"),
        ("seed=18446744073709551616 train=7/10 val=1/10 test=1/5", None,
         "line 1: bad split header: seed 18446744073709551616 is not in [0, 2**64)"),
        ("sead=4 seed=1 train=7/10 val=1/10 test=1/5", None, "line 1: malformed header token 'sead=4'"),
        ("seed=1 seed=5 train=7/10 val=1/10 test=1/5", None, "line 1: malformed header token 'seed=5'"),
    ],
    ids=["fraction-negative", "fraction-zero-denominator", "id-twice-in-test", "id-in-train-and-test",
         "token-without-equals", "seed-2**64", "unknown-key", "repeated-key"],
)
def test_eval_bad_split_header_exit_code(workspace, capsys, header, repeat, message):
    tmp_path, facts_path, emb_path, _ = workspace
    ids = [fact.id for fact in read_facts(facts_path) if not fact.excluded]
    train, test = ids[:-10], ids[-10:]
    if repeat:  # the last test id once more, on the line that ``repeat`` names
        (test if repeat == "test" else train).append(test[-1])
    split_path = tmp_path / "split.txt"
    split_path.write_text(f"{header}\n{','.join(train)}\n\n{','.join(test)}\n")
    model_path = tmp_path / "model.ckpt"
    save_model(model_path, new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2))
    code = run(
        "eval", "--model", model_path, "--facts", facts_path, "--embeddings", emb_path,
        "--split", split_path, "--out", tmp_path / "eval.txt",
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {message.format(ids[-1])}") and err.count("\n") == 1


def test_eval_split_with_a_fifth_line_exit_code(workspace, capsys):
    tmp_path, facts_path, emb_path, _ = workspace
    ids = [fact.id for fact in read_facts(facts_path) if not fact.excluded]
    # a line break inside the train line: read as four id lines, its val ids would land in test
    split_path = tmp_path / "split.txt"
    split_path.write_text(
        f"seed=1 train=7/10 val=1/10 test=1/5\n{','.join(ids[:50])}\n{','.join(ids[50:-10])}\n"
        f"\n{','.join(ids[-10:])}\n"
    )
    model_path = tmp_path / "model.ckpt"
    save_model(model_path, new_model(load_embeddings(emb_path).dim, canonical_label_space(), hidden=2))
    out = tmp_path / "eval.txt"
    code = run("eval", "--model", model_path, "--facts", facts_path, "--embeddings", emb_path,
               "--split", split_path, "--out", out)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: line 5: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "content, command",
    [
        pytest.param("{not json", "split", id="not-json"),
        pytest.param(b'{"seeds": [1], "x": "\xff"}', "split", id="not-utf8"),
        pytest.param('{"seeds": 5}', "split", id="seeds-not-list"),
        pytest.param('{"seeds": ["a"]}', "baseline", id="seed-not-int"),
        pytest.param('{"split": []}', "split", id="split-not-object"),
        pytest.param('{"baseline": {"l2": "x"}}', "baseline", id="l2-not-number"),
        pytest.param('{"train": {"dropout": "x"}}', "train", id="dropout-not-number"),
        pytest.param('{"train": {"dropout": 1.5}}', "train", id="dropout-above-one"),
        pytest.param('{"train": {"hidden": "x"}}', "train", id="hidden-not-int"),
        pytest.param('{"train": {"hidden": [1]}}', "train", id="hidden-list"),
        pytest.param('{"train": {"hidden": 0}}', "train", id="hidden-zero"),
        pytest.param('{"sampling": {"k": "x"}}', "sample", id="k-not-int"),
        pytest.param('{"sampling": {"k": 0}}', "sample", id="k-zero"),
        pytest.param('{"sampling": {"cap": "x"}}', "sample", id="cap-not-int"),
        pytest.param('{"embedding": {"batch_size": "x"}}', "embed-fetch", id="batch-not-int"),
        pytest.param('{"embedding": {"timeout": "x"}}', "embed-fetch", id="timeout-not-number"),
        pytest.param('{"baseline": {"l2": NaN}}', "baseline", id="l2-nan"),
        pytest.param('{"baseline": {"l2": Infinity}}', "baseline", id="l2-infinity"),
        pytest.param('{"baseline": {"l2": -1}}', "baseline", id="l2-negative"),
        pytest.param('{"train": {"learning_rate": NaN}}', "train", id="learning-rate-nan"),
        pytest.param('{"train": {"weight_decay": Infinity}}', "train", id="weight-decay-infinity"),
        pytest.param('{"embedding": {"timeout": Infinity}}', "embed-fetch", id="timeout-infinity"),
        pytest.param('{"sampling": {"k": 2.9}}', "sample", id="k-float"),
        pytest.param('{"sampling": {"cap": true}}', "sample", id="cap-bool"),
        pytest.param('{"train": {"max_epochs": true}}', "train", id="max-epochs-bool"),
        pytest.param('{"train": {"batch_size": 2.7}}', "train", id="train-batch-float"),
        pytest.param('{"embedding": {"batch_size": 2.7}}', "embed-fetch", id="embed-batch-float"),
        pytest.param('{"seeds": [-3]}', "sample", id="seed-negative"),
        pytest.param(
            '{"split": {"train": "11/10", "val": "-1/5", "test": "1/10"}}',
            "split",
            id="split-fraction-negative",
        ),
        pytest.param("[1, 2]", "split", id="root-not-object"),
        pytest.param(
            '{"split": {"train": "1/2", "val": "1/4", "test": "1/5"}}', "split", id="split-sum"
        ),
        pytest.param("[" * 100_000, "split", id="deep-nesting"),
        pytest.param(
            '{"train": {"learning_rate": 1%s}}' % ("0" * 400), "train", id="learning-rate-huge-int"
        ),
        pytest.param('{"seeds": [1%s]}' % ("0" * 400), "baseline", id="seed-huge-int"),
        pytest.param('{"seeds": [18446744073709551616]}', "split", id="seed-2**64"),
        pytest.param('{"train": {"hidden": 1%s}}' % ("0" * 400), "train", id="hidden-huge-int"),
        pytest.param('{"train": {"hidden": 1099511627776}}', "train", id="hidden-2**40"),
        pytest.param('{"embedding": {"timeout": 1e10}}', "embed-fetch", id="timeout-1e10"),
    ],
)
def test_config_error_exit_code(workspace, tmp_path, capsys, content, command):
    _, facts_path, emb_path, _ = workspace
    bad_config = tmp_path / "bad.json"
    bad_config.write_bytes(content if isinstance(content, bytes) else content.encode())
    rest = {
        "split": ["--out", tmp_path / "s.txt"],
        "baseline": ["--out-dir", tmp_path / "b"],
        "train": ["--embeddings", emb_path, "--out-dir", tmp_path / "t", "--seeds", "1"],
        "sample": ["--embeddings", emb_path, "--out", tmp_path / "s.jsonl"],
        # never contacted: the settings are checked before the first request
        "embed-fetch": ["--endpoint", "http://127.0.0.1:9/embed", "--out", tmp_path / "e.emb"],
    }[command]
    code = run("--config", bad_config, command, "--facts", facts_path, *rest)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
    assert not any(path.exists() for path in rest if isinstance(path, Path) and path != emb_path)


@pytest.mark.parametrize(
    "command, seeds, config",
    [
        pytest.param("train", ["--seeds", 1, 1], {}, id="train"),
        pytest.param("baseline", ["--seeds", 1, 1], {}, id="baseline"),
        pytest.param("sample", ["--seed", -1], {}, id="sample-negative"),
        pytest.param("train", [], {"seeds": [-3]}, id="train-negative-config"),
    ],
)
def test_repeated_seed_flag_is_config_error(workspace, capsys, command, seeds, config):
    tmp_path, facts_path, emb_path, _ = workspace
    config_path = tmp_path / "seeds.json"
    config_path.write_text(json.dumps(config))
    embeddings = ["--embeddings", emb_path] if command != "baseline" else []
    out = ["--out", tmp_path / "run"] if command == "sample" else ["--out-dir", tmp_path / "run"]
    code = run("--config", config_path, command, "--facts", facts_path, *embeddings, *out, *seeds)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ConfigError: ")
    assert not (tmp_path / "run").exists()
