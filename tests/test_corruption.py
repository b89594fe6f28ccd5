"""Corrupt input files end in one ``error:`` line and their declared exit code.

Small embedding, checkpoint, split and facts files are truncated at every
offset and have each byte flipped in turn. ``eval``, ``predict`` and
``sample`` read each variant in-process: every run returns 0, or returns the
exit code that the printed error's class declares with exactly one
``error: <Category>: ...`` line on stderr. None raises. A checkpoint is read
by ``predict`` alone: ``eval`` loads it the same way, and its 1.5 kB (mostly
the label-space header) would double the sweep's time.
"""

import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factkit
from factkit import cli, errors
from factkit.cli import main
from factkit.dataio import SplitAssignment, SplitSpec, write_split
from factkit.embeddings import EmbeddingMatrix, save_embeddings
from factkit.model import canonical_label_space, new_model, save_model

IDS = ("a", "b", "c")
LABELS = [
    {"main_category": "Preferences", "time": "Present", "referent": "Self",
     "duration": "Long-term", "validity": "Valid", "invalidity_reason": "None",
     "followup": "None"},
    {"main_category": "None", "time": "None", "referent": "None", "duration": "None",
     "validity": "Invalid", "invalidity_reason": "Opinion", "followup": "None"},
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    rows = np.random.default_rng(0).normal(size=(len(IDS), 1))
    save_embeddings(root / "facts.emb", EmbeddingMatrix(rows, IDS))
    save_model(root / "model.ckpt", new_model(1, canonical_label_space(), hidden=1, seed=1))
    assignment = SplitAssignment(train=("a",), val=("b",), test=("c",))
    write_split(root / "split.txt", assignment, SplitSpec(seed=1))
    facts = [{"id": i, "text": "t", "labels": LABELS[n % 2]} for n, i in enumerate(IDS)]
    (root / "facts.jsonl").write_text(
        "".join(json.dumps(f, separators=(",", ":")) + "\n" for f in facts), encoding="utf-8"
    )
    return root


def _commands(root):
    """argv of each command, by the input files it reads."""
    emb, model, split, facts = (root / n for n in ("facts.emb", "model.ckpt", "split.txt", "facts.jsonl"))
    evaluate = ["eval", "--model", model, "--facts", facts, "--embeddings", emb, "--split", split,
                "--out", root / "out" / "eval.txt"]
    predict = ["predict", "--model", model, "--embeddings", emb, "--out", root / "out" / "p.jsonl"]
    sample = ["sample", "--facts", facts, "--embeddings", emb, "--out", root / "out" / "s.jsonl",
              "--k", "2", "--seed", "1"]
    return {
        "facts.emb": [evaluate, predict, sample],
        "model.ckpt": [predict],
        "split.txt": [evaluate],
        "facts.jsonl": [evaluate, sample],
    }


def _variants(data: bytes):
    for end in range(len(data)):
        yield f"truncated at {end}", data[:end]
    for at in range(len(data)):
        yield f"byte {at} flipped", data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


def _declared_exit_code(category: str):
    """The exit code that ``main`` declares for an error class, by its name."""
    error_class = getattr(errors, category, None) or getattr(builtins, category, None)
    if isinstance(error_class, type) and issubclass(error_class, errors.FactkitError):
        return error_class.exit_code
    if isinstance(error_class, type) and issubclass(error_class, OSError):
        return 4
    return None


@pytest.mark.parametrize("name", ["facts.emb", "model.ckpt", "split.txt", "facts.jsonl"])
def test_every_truncation_and_flipped_byte_ends_in_a_declared_exit(files, capsys, monkeypatch, name):
    parser = cli.build_parser()  # built once: building it per run would take most of the time
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    (files / "out").mkdir(exist_ok=True)
    commands = _commands(files)[name]
    for argv in commands:  # the intact files run clean
        assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
    path = files / name
    intact = path.read_bytes()
    escapes = []
    try:
        for variant, data in _variants(intact):
            path.write_bytes(data)
            for argv in commands:
                try:
                    code = main([str(a) for a in argv])
                except Exception as exc:  # a traceback, not one error line
                    escapes.append(f"{variant}: {argv[0]} raised {exc!r}")
                    continue
                err = capsys.readouterr().err
                if code == 0 and err == "":
                    continue
                category = err[len("error: "):].split(":", 1)[0]
                if not (err.startswith("error: ") and err.count("\n") == 1
                        and code == _declared_exit_code(category)):
                    escapes.append(f"{variant}: {argv[0]} exited {code} with {err!r}")
    finally:
        path.write_bytes(intact)
    assert not escapes, f"{len(escapes)} escapes, first: {escapes[:3]}"


def test_corrupt_checkpoint_header_length_allocates_nothing(files, tmp_path):
    # byte 11 is the high byte of the header length: flipped, it declares 4 GiB
    data = bytearray((files / "model.ckpt").read_bytes())
    data[11] ^= 0xFF
    (tmp_path / "model.ckpt").write_bytes(bytes(data))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from factkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["predict", "--model", tmp_path / "model.ckpt", "--embeddings", files / "facts.emb",
            "--out", tmp_path / "p.jsonl"]
    env = dict(os.environ, PYTHONPATH=str(Path(factkit.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 5
    assert result.stderr.startswith("error: TruncatedFile: ") and result.stderr.count("\n") == 1
