"""A seeded mutation fuzzer over factkit's input files, run in-process through ``cli.main``.

Standard library only, beside numpy and factkit themselves: every case draws
from its own ``random.Random`` seeded with the run's seed and the case
number, so a case replays on its own. ``make_workspace`` writes one small
valid input of each kind: facts, a second rater's labels, raw annotations,
a config, a split file and a checkpoint, plus one embedding endpoint's reply
to ``embed-fetch``. Each case mutates one of them, in
the spirit of grammar-based fuzzing (Godefroid, Kiezun and Levin,
"Grammar-based Whitebox Fuzzing", PLDI 2008), one to three times (the
config once, so that no case sets both ``max_epochs`` and ``patience`` to
2**64):

- a JSON tree (a facts or raw record, the config, the checkpoint header, the
  ``{"dim": d, "embeddings": [...]}`` reply that ``tests/embed_server.py``'s
  ``body`` mode serves for the one batch, with ``embedding.retries`` 0):
  drop a key or item, add one, or swap in a value from ``VALUES``, or
  replace the whole tree with one;
- a JSON-lines file: also drop, repeat, blank or cut a line;
- a split file: drop, repeat or add a header token, or an id, move an id
  to another line, or break or add a line.

The case then runs one command that reads the mutated file, with stdout and
stderr captured and warnings recorded. The invariant is exit 0 with nothing
on stderr, or exactly one ``error: <Category>: ...`` line and the exit code
that ``<Category>`` declares (4 for an ``OSError``). Anything else, a raised
exception included, is an escape. A mutated checkpoint that a command
accepts must also load as the model its header states: the header that
``save_model`` writes for the loaded model must equal the mutated header
over the keys both hold, where numbers compare by value but a boolean or a
string never equals a number. A difference, such as a ``"weight": true``
read as 1.0, is a silent coercion and an escape too.

``tests/test_fuzz.py`` runs a fixed seed and case count in tier-1. A
longer run is ungated; from the repository root::

    PYTHONPATH=src python tests/fuzz.py --seed 7 --seconds 600

It prints each escape (case number, argv, mutations, stderr) and a count,
and exits 1 if there was an escape. ``--case N`` replays case N alone.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import copy
import io
import itertools
import json
import math
import random
import re
import shutil
import struct
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from factkit import cli, errors
from factkit.dataio import SplitSpec, fact_to_obj, stratified_split, write_facts, write_split
from factkit.embeddings import save_embeddings
from factkit.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    canonical_label_space,
    load_model,
    new_model,
    save_model,
)

from canon_fixtures import GOLDEN_CASES, VALID_BASE
from embed_server import MockEmbedServer
from synth import synthetic_dataset

DEEP = "\x00deep\x00"  # serialized as DEEP_JSON, an array nested deeper than json.loads allows
DEEP_JSON = "[" * 100_000 + "]" * 100_000
VALUES = [None, True, False, 0, -1, 2**64, 1e308, math.nan, "", "a,b", "\n", "\ud800", [], {}, DEEP]
HEADER_KEYS = ["seed", "train", "val", "test", "sead", ""]
HEADER_VALUES = ["1", "0", "-1", "7/10", "1/0", "-1/5", "nan", "1e308", "", "a,b", str(2**64),
                 "\ud800"]
CONFIG = {
    "seeds": [1],
    "train": {"max_epochs": 2, "patience": 1, "batch_size": 16, "hidden": 4},
    "sampling": {"k": 3, "cap": 2},
    "baseline": {"l2": 1e-3},
    "embedding": {"batch_size": 64, "retries": 0},  # one request per fetch, never retried
}

# each input kind, and the commands that read it, as (command, the flag given the mutated file)
READERS = {
    "facts": [("split", "--facts"), ("train", "--facts"), ("baseline", "--facts"),
              ("sample", "--facts"), ("eval", "--facts"), ("analyze", "--corpus"),
              ("analyze", "--train-facts"), ("agree", "--labels")],
    "labels": [("agree", "--labels")],
    "raw": [("canon", "--raw")],
    "config": [(command, "--config") for command in (
        "split", "train", "baseline", "sample", "agree", "eval", "canon", "predict", "analyze")],
    "split": [("eval", "--split")],
    "checkpoint": [("predict", "--model"), ("eval", "--model"), ("analyze", "--models")],
    "reply": [("embed-fetch", "--endpoint")],
}


class Text(str):
    """A JSON-lines line already serialized, say cut short; written as it is."""


@dataclass
class Workspace:
    root: Path
    paths: dict  # kind -> its valid file; "emb" and "train-facts" are never mutated
    documents: dict  # kind -> the valid document that cases mutate
    theta: bytes  # the checkpoint's parameter block, after its header
    server: MockEmbedServer  # serves the mutated "reply" document


def make_workspace(root: Path, server: MockEmbedServer) -> Workspace:
    """Valid inputs of every kind under ``root``, each small enough to run in milliseconds.

    The valid endpoint reply is a document too; ``server``, in ``body`` mode,
    serves each case's mutation of it.
    """
    paths = {kind: root / name for kind, name in [
        ("facts", "facts.jsonl"), ("labels", "labels.jsonl"), ("raw", "raw.jsonl"),
        ("config", "config.json"), ("split", "split.txt"), ("checkpoint", "model.ckpt"),
        ("emb", "facts.emb"), ("train-facts", "facts.jsonl"),
    ]}
    facts, emb = synthetic_dataset(n_facts=40, invalid_count=12)
    # texts from the labels, so the baseline's TF-IDF keeps some terms
    facts = [replace(f, text=" ".join(f.labels.as_dict().values())) for f in facts]
    write_facts(paths["facts"], facts)
    second = [replace(f, labels=facts[(i + 1) % 7].labels) if i % 5 == 0 else f
              for i, f in enumerate(facts)]
    write_facts(paths["labels"], second)
    save_embeddings(paths["emb"], emb)
    spec = SplitSpec(seed=1)
    write_split(paths["split"], stratified_split(facts, spec), spec)
    save_model(paths["checkpoint"], new_model(emb.dim, canonical_label_space(), hidden=2))
    blob = paths["checkpoint"].read_bytes()
    (blob_len,) = struct.unpack_from("<I", blob, 8)
    raw = [{"id": f"r{i}", "text": f"raw fact {i}", "annotation": {**VALID_BASE, **case[1]}}
           for i, case in enumerate(GOLDEN_CASES[:12])]
    paths["raw"].write_text("".join(json.dumps(record) + "\n" for record in raw), encoding="utf-8")
    paths["config"].write_text(json.dumps(CONFIG), encoding="utf-8")
    split_lines = paths["split"].read_text(encoding="utf-8").splitlines()
    documents = {
        "facts": list(map(fact_to_obj, facts)),
        "labels": list(map(fact_to_obj, second)),
        "raw": raw,
        "config": CONFIG,
        "split": [split_lines[0].split()] + [line.split(",") if line else []
                                             for line in split_lines[1:]],
        "checkpoint": json.loads(blob[12 : 12 + blob_len]),
        "reply": {"dim": 2, "embeddings": [[float(i), 1.0] for i in range(len(facts))]},
    }
    paths["reply"] = server.url
    return Workspace(root, paths, documents, blob[12 + blob_len :], server)


def _containers(tree):
    """(path, container) for every dict and list in ``tree``, the root first."""
    found, pending = [], [((), tree)]
    while pending:
        path, node = pending.pop()
        if isinstance(node, (dict, list)):
            found.append((path, node))
            items = node.items() if isinstance(node, dict) else enumerate(node)
            pending += [(path + (key,), child) for key, child in items]
    return found


def mutate_tree(rng: random.Random, tree):
    """``tree`` with one key or item dropped, added or swapped (or itself swapped), and a note."""
    value = copy.deepcopy(rng.choice(VALUES))  # a later mutation may edit it in place
    containers = _containers(tree)
    if not containers or rng.random() < 0.05:
        return value, f"root -> {value!r}"
    path, node = rng.choice(containers)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = rng.choice(["drop", "add", "swap"]) if keys else "add"
    if action == "add" and isinstance(node, dict):
        names = [k for _, c in containers if isinstance(c, dict) for k in c] + ["x"]
        key = rng.choice(names)
        node[key] = value
    elif action == "add":
        key = rng.randint(0, len(node))
        node.insert(key, value)
    else:
        key = rng.choice(keys)
        if action == "drop":
            del node[key]
        else:
            node[key] = value
    return tree, f"{'/'.join(map(str, path + (key,)))}: {action}" + (
        "" if action == "drop" else f" {value!r}"
    )


def mutate_lines(rng: random.Random, lines: list):
    """JSON lines with one record mutated, or one line dropped, repeated, blanked or cut."""
    at = rng.randrange(len(lines)) if lines else 0
    action = rng.choice(["record"] * 4 + ["drop", "repeat", "blank", "cut"]) if lines else "blank"
    if action == "record" and isinstance(lines[at], Text):
        action = "cut"  # a line already cut is no longer a tree
    if action == "record":
        lines[at], note = mutate_tree(rng, lines[at])
        return lines, f"line {at + 1} {note}"
    if action == "drop":
        del lines[at]
    elif action == "repeat":
        lines.insert(rng.randint(0, len(lines)), lines[at])
    elif action == "blank":
        lines.insert(at, Text(""))
    else:
        text = _dumps(lines[at]) if not isinstance(lines[at], Text) else lines[at]
        lines[at] = Text(text[: rng.randrange(len(text) + 1)])
    return lines, f"line {at + 1}: {action}"


def mutate_split(rng: random.Random, lines: list):
    """A split file, as token lists, with one header token or id changed or one line broken."""
    action = rng.choice(["drop-token", "repeat-token", "add-token", "drop-id", "repeat-id",
                         "add-id", "move-id", "break-line", "add-line"])
    header, id_lines = lines[0], [line for line in lines[1:] if line]
    if action.endswith("token") and (header or action == "add-token"):
        at = rng.randrange(len(header) + 1)
        if action == "add-token":
            token = f"{rng.choice(HEADER_KEYS)}={rng.choice(HEADER_VALUES)}"
            header.insert(at, token)
        elif action == "drop-token":
            token = header.pop(at % len(header))
        else:
            token = header[at % len(header)]
            header.insert(at, token)
        return lines, f"header {action} {token!r}"
    if action == "break-line" and id_lines:
        row = rng.choice(id_lines)
        at = rng.randrange(len(row) + 1)
        number = lines.index(row)
        lines[number : number + 1] = [row[:at], row[at:]]
        return lines, f"line {number + 1}: break before id {at}"
    if action == "add-line" or not id_lines:
        lines.insert(rng.randint(1, len(lines)), [rng.choice(HEADER_VALUES)])
        return lines, "add-line"
    row = rng.choice(id_lines)
    record_id = rng.choice(row)
    if action == "drop-id":
        row.remove(record_id)
    elif action == "add-id":
        record_id = rng.choice(HEADER_VALUES + ["zzz"])
        row.append(record_id)
    else:  # repeat-id or move-id: onto any id line, the same one too
        if action == "move-id":
            row.remove(record_id)
        rng.choice(id_lines).append(record_id)
    return lines, f"{action} {record_id!r}"


def _dumps(tree) -> str:
    return json.dumps(tree).replace(json.dumps(DEEP), DEEP_JSON)


def _write(workspace: Workspace, kind: str, document, path: Path) -> None:
    if kind == "checkpoint":
        blob = _dumps(document).encode()
        fixed = struct.pack("<3I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob))
        path.write_bytes(fixed + blob + workspace.theta)
    elif kind == "split":
        header, *id_lines = document
        text = "".join(line + "\n" for line in [" ".join(header), *map(",".join, id_lines)])
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
    elif kind == "config":
        path.write_text(_dumps(document), encoding="utf-8")
    elif kind == "reply":  # served, not written
        workspace.server.payload = _dumps(document).encode()
    else:
        path.write_text("".join((line if isinstance(line, Text) else _dumps(line)) + "\n"
                                for line in document), encoding="utf-8")


def _argv(command: str, paths: dict, out: Path) -> list[str]:
    argv = {
        "split": ["split", "--facts", paths["facts"], "--out", out / "split.txt"],
        "train": ["train", "--facts", paths["facts"], "--embeddings", paths["emb"],
                  "--out-dir", out],
        "baseline": ["baseline", "--facts", paths["facts"], "--out-dir", out],
        "sample": ["sample", "--facts", paths["facts"], "--embeddings", paths["emb"],
                   "--out", out / "sample.jsonl"],
        "eval": ["eval", "--model", paths["checkpoint"], "--facts", paths["facts"],
                 "--embeddings", paths["emb"], "--split", paths["split"],
                 "--out", out / "eval.txt"],
        "analyze": ["analyze", "--models", paths["checkpoint"], "--corpus", paths["facts"],
                    "--embeddings", paths["emb"], "--train-facts", paths["train-facts"],
                    "--out", out / "analyze.txt"],
        "agree": ["agree", "--labels", paths["facts"], paths["labels"], "--out", out / "agree.txt"],
        "canon": ["canon", "--raw", paths["raw"], "--out", out / "canon.jsonl"],
        "predict": ["predict", "--model", paths["checkpoint"], "--embeddings", paths["emb"],
                    "--out", out / "predict.jsonl"],
        "embed-fetch": ["embed-fetch", "--facts", paths["facts"], "--endpoint", paths["reply"],
                        "--out", out / "fetched.emb"],
    }[command]
    return ["--config", str(paths["config"]), *map(str, argv)]


def escape_reason(code, err: str):
    """Why an exit code and its stderr break the invariant, or None if they keep it."""
    if code == 0:
        return None if err == "" else "exit 0 with output on stderr"
    match = re.fullmatch(r"error: (\w+): [^\n]*\n", err)
    if code is None or match is None:
        return "not exactly one error: line"
    cls = getattr(errors, match[1], None) or getattr(builtins, match[1], None)
    if isinstance(cls, type) and issubclass(cls, errors.FactkitError):
        declared = cls.exit_code
    elif isinstance(cls, type) and issubclass(cls, OSError):
        declared = 4
    else:
        return f"unknown category {match[1]}"
    return None if code == declared else f"exit {code}, but {match[1]} declares {declared}"


def header_difference(saved, mutated, at: str = "header"):
    """Where two JSON trees differ over the keys both hold, or None if they do not.

    Numbers compare by value, but a boolean or a string never equals a number.
    """
    if isinstance(saved, dict) and isinstance(mutated, dict):
        pairs = [(key, saved[key], mutated[key]) for key in sorted(saved.keys() & mutated.keys())]
    elif isinstance(saved, list) and isinstance(mutated, list) and len(saved) == len(mutated):
        pairs = [(i, a, b) for i, (a, b) in enumerate(zip(saved, mutated))]
    else:
        numbers = all(type(v) in (int, float) for v in (saved, mutated))
        same = (numbers or type(saved) is type(mutated)) and saved == mutated
        return None if same else f"{at}: {mutated!r} loads as {saved!r}"
    for key, a, b in pairs:
        found = header_difference(a, b, f"{at}/{key}")
        if found:
            return found
    return None


def _header_of(path: Path):
    data = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", data, 8)
    return json.loads(data[12 : 12 + blob_len])


def coercion(path: Path, scratch: Path):
    """How the model loaded from checkpoint ``path`` differs from its header, or None.

    The loaded model is saved to ``scratch``, and the two headers are compared.
    """
    save_model(scratch, load_model(path))
    found = header_difference(_header_of(scratch), _header_of(path))
    return None if found is None else f"silent coercion: {found}"


def run_main(argv: list[str]):
    """``cli.main(argv)``'s exit code (None if it raised) and its stderr, warnings included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # every warning shows, as in a fresh process
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):  # a traceback in a real run
            code = None
            err.write(traceback.format_exc())
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, err.getvalue() + shown


def case_rng(seed: int, case: int) -> random.Random:
    """The case's own generator; its first draw picks the input kind from ``READERS``."""
    return random.Random(f"{seed}:{case}")


def run_case(workspace: Workspace, seed: int, case: int):
    """Mutate one input and run one command on it; a description of the escape, or None."""
    rng = case_rng(seed, case)
    kind = rng.choice(list(READERS))
    command, flag = rng.choice(READERS[kind])
    document = copy.deepcopy(workspace.documents[kind])
    mutate = {"config": mutate_tree, "checkpoint": mutate_tree, "reply": mutate_tree,
              "split": mutate_split}.get(kind, mutate_lines)
    notes = []
    for _ in range(1 if kind == "config" else rng.randint(1, 3)):
        document, note = mutate(rng, document)
        notes.append(note)
    out = workspace.root / f"case{case}"
    (out / "out").mkdir(parents=True)
    try:
        suffix = {"checkpoint": ".ckpt", "split": ".txt", "config": ".json"}.get(kind, ".jsonl")
        mutated = out / f"mutated{suffix}"
        _write(workspace, kind, document, mutated)
        # only the flag's own file is the mutated one; agree's --labels gives facts, then labels
        key = {"--corpus": "facts", "--train-facts": "train-facts"}.get(flag, kind)
        mutated_paths = {**workspace.paths, key: mutated} if kind != "reply" else workspace.paths
        argv = _argv(command, mutated_paths, out / "out")
        code, err = run_main(argv)
        reason = escape_reason(code, err)
        if reason is None and code == 0 and kind == "checkpoint":
            reason = coercion(mutated, out / "resaved.ckpt")
    finally:
        shutil.rmtree(out)
    if reason is None:
        return None
    return f"case {case}: {reason}\n  argv: {argv}\n  {kind}: {'; '.join(notes)}\n{err}"


def fuzz(root: Path, seed: int, cases, seconds: float = math.inf) -> tuple[int, list[str]]:
    """Run ``cases`` (an iterable of case numbers) under ``root`` until ``seconds`` pass.

    Returns how many cases ran and the escapes found.
    """
    ran, escapes = 0, []
    with MockEmbedServer(mode="body") as server:
        workspace = make_workspace(root, server)
        deadline = time.monotonic() + seconds
        for case in cases:
            if time.monotonic() > deadline:
                break
            found = run_case(workspace, seed, case)
            ran += 1
            if found:
                escapes.append(found)
    return ran, escapes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, help="case count (default: until --seconds pass)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--case", type=int, help="replay this one case")
    args = parser.parse_args(argv)
    if args.case is not None:
        cases = [args.case]
    else:
        cases = range(args.cases) if args.cases is not None else itertools.count()
    with tempfile.TemporaryDirectory() as root:
        ran, escapes = fuzz(Path(root), args.seed, cases, args.seconds)
    for escape in escapes:
        print(escape)
    print(f"{ran} cases, seed {args.seed}: {len(escapes)} escapes")
    return 1 if escapes else 0


if __name__ == "__main__":
    sys.exit(main())
