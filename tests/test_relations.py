"""Cross-command relations: two commands run on the same data must agree.

Each command has its own tests and goldens; these check that one command's
output is what another command computes from the same inputs (metamorphic
relations), on small seeded workspaces from ``synth.py``.
"""

import json

import pytest

from factkit.cli import main
from factkit.dataio import write_facts
from factkit.embeddings import save_embeddings
from factkit.model import load_model, save_model

from synth import synthetic_dataset

SEED = 42
CONFIG = {
    "train": {"learning_rate": 0.01, "batch_size": 32, "max_epochs": 4, "patience": 4},
}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One single-seed ``train`` run: the workspace paths and its output directory."""
    tmp_path = tmp_path_factory.mktemp("trained")
    facts, emb = synthetic_dataset(n_facts=200, invalid_count=60)
    paths = {name: tmp_path / name for name in ("facts.jsonl", "facts.emb", "config.json", "run")}
    write_facts(paths["facts.jsonl"], facts)
    save_embeddings(paths["facts.emb"], emb)
    paths["config.json"].write_text(json.dumps(CONFIG))
    assert run(
        "--config", paths["config.json"], "train", "--facts", paths["facts.jsonl"],
        "--embeddings", paths["facts.emb"], "--out-dir", paths["run"], "--seeds", SEED,
    ) == 0
    return paths


def test_single_seed_train_report_is_the_eval_report_of_its_checkpoint(trained, tmp_path):
    out = tmp_path / "eval.txt"
    assert run(
        "--config", trained["config.json"], "eval",
        "--model", trained["run"] / f"model-seed{SEED}.ckpt",
        "--facts", trained["facts.jsonl"], "--embeddings", trained["facts.emb"],
        "--split", trained["run"] / f"split-seed{SEED}.txt", "--out", out,
    ) == 0
    assert out.read_bytes() == (trained["run"] / "metrics.txt").read_bytes()


def test_split_writes_the_split_file_train_wrote(trained, tmp_path):
    out = tmp_path / "split.txt"
    assert run(
        "--config", trained["config.json"], "split", "--facts", trained["facts.jsonl"],
        "--out", out, "--seed", SEED,
    ) == 0
    assert out.read_bytes() == (trained["run"] / f"split-seed{SEED}.txt").read_bytes()


def test_saving_a_loaded_checkpoint_rewrites_its_bytes(trained, tmp_path):
    path = trained["run"] / f"model-seed{SEED}.ckpt"
    again = tmp_path / "again.ckpt"
    save_model(again, load_model(path))
    assert again.read_bytes() == path.read_bytes()


def test_a_rater_file_against_itself_agrees_fully(tmp_path):
    facts, _ = synthetic_dataset(n_facts=60, invalid_count=18)
    labels = tmp_path / "rater.jsonl"
    write_facts(labels, facts)
    out = tmp_path / "agreement.txt"
    assert run("agree", "--labels", labels, labels, "--out", out) == 0
    rows = out.read_text().splitlines()[3:]  # after the summary, a blank line and the column names
    assert len(rows) == 8  # seven dimensions and the average
    for row in rows:
        assert row.split()[1:5] == ["100.0%", "1.000", "1.000", "1.000"], row
