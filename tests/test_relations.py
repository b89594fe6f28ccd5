"""Cross-command relations: two commands run on the same data must agree.

Each command has its own tests and goldens; these check that one command's
output is what another command computes from the same inputs (metamorphic
relations), on small seeded workspaces from ``synth.py``.
"""

import json
from collections import Counter

import pytest

from factkit.cli import main
from factkit.dataio import read_facts, read_jsonl, read_split, write_facts
from factkit.embeddings import save_embeddings
from factkit.metrics import aggregate_seeds, evaluate_labelsets, render_aggregate
from factkit.model import canonical_label_space, load_model, save_model, targets_from_facts
from factkit.taxonomy import DIMENSIONS, LABEL_SPACE, LabelSet, label_codes

from synth import synthetic_dataset

SEED = 42
OTHER_SEED = 7
CONFIG = {
    "train": {"learning_rate": 0.01, "batch_size": 32, "max_epochs": 4, "patience": 4},
}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One single-seed ``train`` run: the workspace paths and its output directory.

    Each fact's text is its labels as tokens, so the TF-IDF ``baseline`` has terms to keep.
    """
    tmp_path = tmp_path_factory.mktemp("trained")
    facts, emb = synthetic_dataset(n_facts=200, invalid_count=60)
    for fact in facts:
        fact.text = " ".join(f"{d.value}_{fact.labels.get(d).replace(' ', '')}" for d in DIMENSIONS)
    paths = {name: tmp_path / name for name in ("facts.jsonl", "facts.emb", "config.json", "run")}
    write_facts(paths["facts.jsonl"], facts)
    save_embeddings(paths["facts.emb"], emb)
    paths["config.json"].write_text(json.dumps(CONFIG))
    assert run(
        "--config", paths["config.json"], "train", "--facts", paths["facts.jsonl"],
        "--embeddings", paths["facts.emb"], "--out-dir", paths["run"], "--seeds", SEED,
    ) == 0
    return paths


@pytest.fixture(scope="module")
def two_seeds(trained, tmp_path_factory):
    """A two-seed ``train`` run on ``trained``'s workspace, another seed first: its output directory."""
    out = tmp_path_factory.mktemp("two-seeds")
    assert run(
        "--config", trained["config.json"], "train", "--facts", trained["facts.jsonl"],
        "--embeddings", trained["facts.emb"], "--out-dir", out, "--seeds", OTHER_SEED, SEED,
    ) == 0
    return out


@pytest.fixture(scope="module")
def predicted(trained, tmp_path_factory):
    """``predict``'s line per fact id, for the trained checkpoint over every fact."""
    out = tmp_path_factory.mktemp("predicted") / "predictions.jsonl"
    assert run(
        "predict", "--model", trained["run"] / f"model-seed{SEED}.ckpt",
        "--embeddings", trained["facts.emb"], "--out", out,
    ) == 0
    return {line["id"]: line for _, line in read_jsonl(out)}


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


def test_each_seed_of_a_two_seed_train_writes_what_a_one_seed_train_writes(
    trained, two_seeds, tmp_path
):
    assert run(
        "--config", trained["config.json"], "train", "--facts", trained["facts.jsonl"],
        "--embeddings", trained["facts.emb"], "--out-dir", tmp_path, "--seeds", OTHER_SEED,
    ) == 0
    for seed, alone in ((SEED, trained["run"]), (OTHER_SEED, tmp_path)):
        for name in (f"split-seed{seed}.txt", f"model-seed{seed}.ckpt"):
            assert (two_seeds / name).read_bytes() == (alone / name).read_bytes(), name


def test_baseline_writes_the_split_files_train_wrote(trained, two_seeds, tmp_path):
    assert run(
        "--config", trained["config.json"], "baseline", "--facts", trained["facts.jsonl"],
        "--out-dir", tmp_path, "--seeds", OTHER_SEED, SEED,
    ) == 0
    for seed in (OTHER_SEED, SEED):
        name = f"split-seed{seed}.txt"
        assert (tmp_path / name).read_bytes() == (two_seeds / name).read_bytes(), name


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


def test_scoring_predict_labels_of_the_test_ids_is_the_eval_report(trained, predicted, tmp_path):
    split = trained["run"] / f"split-seed{SEED}.txt"
    out = tmp_path / "eval.txt"
    assert run(
        "--config", trained["config.json"], "eval",
        "--model", trained["run"] / f"model-seed{SEED}.ckpt",
        "--facts", trained["facts.jsonl"], "--embeddings", trained["facts.emb"],
        "--split", split, "--out", out,
    ) == 0
    test_ids = read_split(split)[0].test
    by_id = {fact.id: fact for fact in read_facts(trained["facts.jsonl"])}
    gold = targets_from_facts([by_id[i] for i in test_ids], canonical_label_space())
    labels = label_codes([LabelSet.from_dict(predicted[i]["labels"]) for i in test_ids])
    report = render_aggregate(aggregate_seeds([evaluate_labelsets(gold, labels)]))
    assert report.encode("utf-8") == out.read_bytes()


def test_analyze_of_one_checkpoint_prints_predict_label_shares(trained, predicted, tmp_path):
    out = tmp_path / "analysis.txt"
    assert run(
        "analyze", "--models", trained["run"] / f"model-seed{SEED}.ckpt",
        "--corpus", trained["facts.jsonl"], "--embeddings", trained["facts.emb"], "--out", out,
    ) == 0
    counts = Counter(
        (dim, line["labels"][dim.value]) for line in predicted.values() for dim in DIMENSIONS
    )
    n = len(predicted)
    expected = [
        f"{dim.value:<20}{label:<24}{f'{100.0 * counts[dim, label] / n:.1f}±0.0':>14}"
        for dim in DIMENSIONS
        for label in LABEL_SPACE[dim]
    ]
    # the rows after the summary, a blank line and the column names
    rows = out.read_text(encoding="utf-8").splitlines()[3:]
    assert [row[:58] for row in rows] == expected  # dimension, label and share; not confidence
