"""The one manifest each command records, and the JSON-lines outputs it lists.

Each command runs with its outputs in a fresh directory. Its manifest sits
beside the first output at the path it always had, carries the command, its
settings, their digest, the input digests and the seeds, and lists exactly
the files the command created there.
"""

import hashlib
import json

import pytest

from factkit.cli import main
from factkit.dataio import SplitSpec, read_facts, stratified_split, write_facts, write_split
from factkit.embeddings import save_embeddings
from factkit.model import canonical_label_space, new_model, save_model
from factkit.taxonomy import DIMENSIONS

from canon_fixtures import VALID_BASE
from embed_server import MockEmbedServer
from synth import synthetic_dataset

CONFIG = {
    "seeds": [42, 123],
    "train": {"learning_rate": 0.01, "batch_size": 32, "max_epochs": 2, "patience": 2},
}
SPLIT = {"train": "7/10", "val": "1/10", "test": "1/5"}
TRAIN = {
    "learning_rate": 0.01, "batch_size": 32, "max_epochs": 2, "patience": 2, "hidden": None,
    "dropout": 0.1, "weight_decay": 0.0, "label_weighting": "none",
}
COMMANDS = ["canon", "sample", "split", "embed-fetch", "train", "predict", "eval",
            "baseline", "agree", "analyze"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    facts, emb = synthetic_dataset(n_facts=60, invalid_count=18)
    for fact in facts:  # one token per label, so the baseline has a vocabulary
        fact.text = " ".join(f"{d.value}_{fact.labels.get(d).replace(' ', '')}" for d in DIMENSIONS)
    write_facts(root / "facts.jsonl", facts)
    save_embeddings(root / "facts.emb", emb)
    save_model(root / "model.ckpt", new_model(emb.dim, canonical_label_space(), hidden=4, seed=1))
    spec = SplitSpec(seed=3)
    write_split(root / "split.txt", stratified_split(facts, spec), spec)
    raw = [{"id": f"r{i}", "text": "I like tea.", "annotation": VALID_BASE} for i in range(3)]
    raw.append({"id": "r3", "text": "I jog.",
                "annotation": dict(VALID_BASE, duration=["Short-term", "Long-term"])})
    (root / "raw.jsonl").write_text("".join(json.dumps(r) + "\n" for r in raw))
    (root / "config.json").write_text(json.dumps(CONFIG))
    write_facts(root / "rater.jsonl", facts)
    return root


def _command(name, root, out, url):
    """argv, manifest path, settings, input files and seeds of one command."""
    facts, emb, model = root / "facts.jsonl", root / "facts.emb", root / "model.ckpt"
    return {
        "canon": (["canon", "--raw", root / "raw.jsonl", "--out", out / "facts.jsonl"],
                  out / "facts.jsonl", {}, [root / "raw.jsonl"], []),
        "sample": (["sample", "--facts", facts, "--embeddings", emb, "--out", out / "s.jsonl",
                    "--k", "5", "--seed", "7"],
                   out / "s.jsonl", {"k": 5, "cap": 3, "seed": 7}, [facts, emb], [7]),
        "split": (["split", "--facts", facts, "--out", out / "split.txt", "--seed", "9"],
                  out / "split.txt", {"seed": 9, **SPLIT}, [facts], [9]),
        "embed-fetch": (["embed-fetch", "--facts", facts, "--endpoint", url,
                         "--out", out / "f.emb", "--batch-size", "16"],
                        out / "f.emb", {"endpoint": url, "batch_size": 16}, [facts], []),
        "train": (["train", "--facts", facts, "--embeddings", emb, "--out-dir", out / "run"],
                  out / "run" / "metrics.txt", {"train": TRAIN, "split": SPLIT}, [facts, emb],
                  [42, 123]),
        "predict": (["predict", "--model", model, "--embeddings", emb, "--out", out / "p.jsonl"],
                    out / "p.jsonl", {}, [model, emb], []),
        "eval": (["eval", "--model", model, "--facts", facts, "--embeddings", emb,
                  "--split", root / "split.txt", "--out", out / "eval.txt"],
                 out / "eval.txt", {}, [facts, model, emb, root / "split.txt"], []),
        "baseline": (["baseline", "--facts", facts, "--out-dir", out / "base", "--seeds", "5"],
                     out / "base" / "baseline-metrics.txt",
                     {"baseline": {"l2": 1e-4}, "split": SPLIT}, [facts], [5]),
        "agree": (["agree", "--labels", facts, root / "rater.jsonl", "--out", out / "a.txt"],
                  out / "a.txt", {}, [facts, root / "rater.jsonl"], []),
        "analyze": (["analyze", "--models", model, model, "--corpus", facts, "--embeddings", emb,
                     "--train-facts", facts, "--out", out / "d.txt"],
                    out / "d.txt", {}, [facts, emb, model], []),
    }[name]


# sha256 of json.dumps(settings, sort_keys=True), as the manifests have always recorded it;
# embed-fetch's settings name the mock endpoint's port
NO_SETTINGS = "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
CONFIG_DIGESTS = {
    "canon": NO_SETTINGS,
    "sample": "b35e8436a641628b0daf45d5c6aa514fa17dca376609554648ca069abd4864aa",
    "split": "8b9fcd18a6b8e87701f88762f2d43618262087720968ef55da6bb9f8ba75bacf",
    "train": "108d36516002a4b61e1e9d2987c0a22642e9137521193a879809a40cc6094925",
    "predict": NO_SETTINGS,
    "eval": NO_SETTINGS,
    "baseline": "cc7b5e734cff94e7c95327a8d9813517e213a8d46d952fc5cd6dfb8f7c7ec77c",
    "agree": NO_SETTINGS,
    "analyze": NO_SETTINGS,
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", COMMANDS)
def test_manifest_records_the_command_and_lists_exactly_what_it_wrote(inputs, tmp_path, name):
    out = tmp_path / "out"
    out.mkdir()
    with MockEmbedServer(mode="hash", dim=5) as server:
        argv, manifest_path, settings, input_files, seeds = _command(name, inputs, out, server.url)
        digests = {str(path): _sha256(path) for path in input_files}
        assert main(["--config", str(inputs / "config.json"), *map(str, argv)]) == 0
    manifest = json.loads((manifest_path.parent / f"{manifest_path.name}.manifest.json").read_text())
    assert manifest["command"] == name
    assert manifest["settings"] == settings
    if name == "embed-fetch":
        assert manifest["config_digest"] == hashlib.sha256(
            json.dumps(settings, sort_keys=True).encode()
        ).hexdigest()
    else:
        assert manifest["config_digest"] == CONFIG_DIGESTS[name]
    assert manifest["inputs"] == digests
    assert manifest["seeds"] == seeds
    written = {str(p) for p in out.rglob("*") if p.is_file() and not p.name.endswith(".manifest.json")}
    assert set(manifest["outputs"]) == written
    assert len(manifest["outputs"]) == len(written)
    assert manifest["outputs"][0] == str(manifest_path)
    assert [p.name for p in out.rglob("*.manifest.json")] == [f"{manifest_path.name}.manifest.json"]


def test_canon_writes_non_ascii_ids_as_utf8_in_both_outputs(tmp_path):
    dual = dict(VALID_BASE, duration=["Short-term", "Long-term"])
    rows = [{"id": "fakt-\u00fc-\u6587", "text": "J'ai couru \u00e0 P\u00e2ques.", "annotation": dual}]
    (tmp_path / "raw.jsonl").write_text(json.dumps(rows[0]) + "\n", encoding="utf-8")
    out = tmp_path / "facts.jsonl"
    assert main(["canon", "--raw", str(tmp_path / "raw.jsonl"), "--out", str(out)]) == 0
    log = (tmp_path / "facts.jsonl.exclusions.jsonl").read_bytes()
    assert log == '{"id": "fakt-\u00fc-\u6587", "reason": "dual-duration"}\n'.encode("utf-8")
    assert '"id": "fakt-\u00fc-\u6587"'.encode("utf-8") in out.read_bytes()
    assert [fact.id for fact in read_facts(out)] == ["fakt-\u00fc-\u6587"]
