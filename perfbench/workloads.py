"""The four commands and the two workloads that run them.

Each command class writes its inputs, builds the command line and checks
the outputs of one ``factkit`` subcommand, and stresses a different layer:
``train`` the model's write path (forward/backward and AdamW), ``analyze``
its read path (checkpoint loads and large eval GEMMs), ``sample`` k-means++
seeding and the Lloyd assignment, and ``baseline`` pure-Python TF-IDF and
mini-batch logistic regression. Sizes are scaled from paper scale so that
one command takes a few seconds, with each command's dominant layer
unchanged.

A workload runs its commands in turn, and one such cycle is the timed
unit. Two workloads with long runs read steadier on a shared host than
four with short ones, and ``train`` and ``analyze`` stay apart, so a model
change that helps one path and costs the other shows.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from factkit.taxonomy import DIMENSIONS, LABEL_SPACE


class CheckFailed(Exception):
    """A command's output is missing, malformed or wrong."""


@dataclass
class Inputs:
    """What set-up wrote, the command line that reads it, and the planted truth."""

    argv: list[str]
    rows: int  # primary input rows x seeds or checkpoints
    truth: dict = field(default_factory=dict)


def _config(path: Path, seed: int, **sections) -> str:
    """An explicit config per command, so no command runs on shared defaults."""
    config = {"seeds": [seed], **sections}
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return str(path)


def _ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:06d}" for i in range(n)]


def _report_value(path: Path, key: str) -> float:
    match = re.search(rf"^{re.escape(key)}=(\S+)$", path.read_text(encoding="utf-8"), re.M)
    if match is None:
        raise CheckFailed(f"{path.name} has no {key}= line")
    return float(match.group(1))


class Train:
    name = "train"
    facts = 400
    dim = 1024
    epochs = 2
    span_names = ["dataio.read_facts", "dataio.split", "dataio.write", "embeddings.load",
                  "model.train", "model.fwd_bwd", "model.adamw", "model.predict_batch",
                  "metrics.pooled_f1", "model.save", "model.predict", "metrics.evaluate",
                  "metrics.aggregate"]
    f1_floor = 0.4  # planted data gives 0.53-0.57; always predicting the majority gives ~0.2

    def setup(self, seed: int, work: Path, out: Path) -> Inputs:
        rng = np.random.default_rng([seed, 10])
        labels = gen.planted_labels(rng, self.facts)
        codes = gen.label_codes(labels)
        ids = _ids("t", self.facts)
        texts = gen.planted_texts(rng, codes, gen.vocabulary(seed), "t")
        rows = gen.planted_embeddings(rng, codes, gen.label_map(seed, self.dim))
        gen.write_facts(work / "facts.jsonl", ids, texts, labels)
        gen.write_embeddings(work / "facts.emb", ids, rows)
        # patience >= max_epochs: early stopping never changes the amount of work
        config = _config(work / "config.json", seed,
                         train={"max_epochs": self.epochs, "patience": self.epochs})
        argv = ["--config", config, "train", "--facts", str(work / "facts.jsonl"),
                "--embeddings", str(work / "facts.emb"), "--out-dir", str(out)]
        return Inputs(argv, rows=self.facts)

    def check(self, out: Path, inputs: Inputs) -> dict:
        f1 = _report_value(out / "metrics.txt", "overall_macro_f1.mean")
        if not f1 > self.f1_floor:
            raise CheckFailed(f"macro F1 {f1:.4f} is not above the floor {self.f1_floor}")
        return {"model.macro_f1": f1}


class Analyze:
    name = "analyze"
    corpus = 800
    checkpoints = 5
    train_facts = 400
    overlap = 183  # exact texts shared by corpus and training facts, as in the paper
    dim = 1024
    span_names = ["model.load", "dataio.read_facts", "embeddings.load",
                  "analyze.predict_corpus", "model.predict", "model.predict_batch",
                  "analyze.aggregate", "analyze.leakage", "analyze.render"]
    share_err_ceiling = 5.0  # percentage points

    def setup(self, seed: int, work: Path, out: Path) -> Inputs:
        rng = np.random.default_rng([seed, 20])
        directions = gen.label_map(seed, self.dim)
        vocab = gen.vocabulary(seed)
        labels = gen.planted_labels(rng, self.corpus)
        codes = gen.label_codes(labels)
        ids = _ids("c", self.corpus)
        texts = gen.planted_texts(rng, codes, vocab, "c")
        gen.write_facts(work / "corpus.jsonl", ids, texts)
        gen.write_embeddings(work / "corpus.emb", ids, gen.planted_embeddings(rng, codes, directions))

        train_labels = gen.planted_labels(rng, self.train_facts)
        train_texts = gen.planted_texts(rng, gen.label_codes(train_labels), vocab, "x")
        shared = rng.choice(self.corpus, size=self.overlap, replace=False)
        for slot, row in zip(rng.choice(self.train_facts, size=self.overlap, replace=False), shared):
            train_texts[slot] = texts[row]
        gen.write_facts(work / "train.jsonl", _ids("x", self.train_facts), train_texts, train_labels)

        models = []
        for k in range(self.checkpoints):
            path = work / f"model-{k}.ckpt"
            gen.write_checkpoint(path, np.random.default_rng([seed, 21, k]), directions)
            models.append(str(path))
        planted = {
            (dim.value, label): 100.0 * float(np.mean(codes[:, c] == j))
            for c, dim in enumerate(DIMENSIONS)
            for j, label in enumerate(LABEL_SPACE[dim])
        }
        config = _config(work / "config.json", seed)
        argv = ["--config", config, "analyze", "--models", *models,
                "--corpus", str(work / "corpus.jsonl"), "--embeddings", str(work / "corpus.emb"),
                "--train-facts", str(work / "train.jsonl"), "--out", str(out / "distribution.txt")]
        return Inputs(argv, rows=self.corpus * self.checkpoints, truth={"shares": planted})

    def check(self, out: Path, inputs: Inputs) -> dict:
        text = (out / "distribution.txt").read_text(encoding="utf-8")
        overlap = re.search(r"overlap_count=(\d+)", text)
        if overlap is None or int(overlap.group(1)) != self.overlap:
            raise CheckFailed(f"overlap_count is not the planted {self.overlap}")
        shares: dict[tuple[str, str], float] = {}
        for dim in DIMENSIONS:
            for label in LABEL_SPACE[dim]:
                match = re.search(
                    rf"^{dim.value}\s+{re.escape(label)}\s+(-?[\d.]+)±", text, re.M)
                if match is None:
                    raise CheckFailed(f"no share for {dim.value} / {label}")
                shares[(dim.value, label)] = float(match.group(1))
            total = sum(v for (d, _), v in shares.items() if d == dim.value)
            # each share is printed to 0.1, so the sum may be off by 0.05 per label
            if abs(total - 100.0) > 0.05 * len(LABEL_SPACE[dim]) + 1e-9:
                raise CheckFailed(f"{dim.value} shares sum to {total}, not 100")
        err = max(abs(shares[key] - inputs.truth["shares"][key]) for key in shares)
        if err > self.share_err_ceiling:
            raise CheckFailed(f"largest share gap {err:.2f} pp exceeds {self.share_err_ceiling}")
        return {"analyze.share_err_pp": err}


class Sample:
    name = "sample"
    points = 10000
    dim = 256
    clusters = 100  # planted; k equals it
    rare = 10  # clusters of rare_size points; the others follow a Zipf law
    rare_size = 20
    spread = 0.005  # within-cluster noise norm, tight enough for stable Lloyd counts
    duplicate_frac = 0.05
    cap = 3
    span_names = ["dataio.read_facts", "embeddings.load", "embeddings.normalize",
                  "sampling.kmeans", "sampling.seed", "sampling.assign",
                  "sampling.cluster_sample", "dataio.write"]
    recall_floor = 0.9

    def setup(self, seed: int, work: Path, out: Path) -> Inputs:
        rng = np.random.default_rng([seed, 30])
        points, member = gen.sphere_clusters(rng, self.points, self.clusters, self.dim,
                                             self.spread, self.rare, self.rare_size,
                                             self.duplicate_frac)
        ids = _ids("p", self.points)
        fillers, _ = gen.vocabulary(seed)
        texts = [f"{fillers[m]} p{i}" for i, m in enumerate(member)]
        gen.write_facts(work / "points.jsonl", ids, texts)
        gen.write_embeddings(work / "points.emb", ids, points)
        config = _config(work / "config.json", seed,
                         sampling={"k": self.clusters, "cap": self.cap})
        argv = ["--config", config, "sample", "--facts", str(work / "points.jsonl"),
                "--embeddings", str(work / "points.emb"), "--out", str(out / "sampled.jsonl")]
        return Inputs(argv, rows=self.points,
                      truth={"cluster_of": dict(zip(ids, member.tolist()))})

    def check(self, out: Path, inputs: Inputs) -> dict:
        cluster_of = inputs.truth["cluster_of"]
        ids = []
        with open(out / "sampled.jsonl", encoding="utf-8") as handle:
            for line in handle:
                ids.append(json.loads(line)["id"])
        if len(set(ids)) != len(ids):
            raise CheckFailed("sampled ids repeat")
        if not set(ids) <= cluster_of.keys():
            raise CheckFailed("sampled ids not in the input")
        if len(ids) > self.clusters * self.cap:
            raise CheckFailed(f"{len(ids)} sampled facts exceed k*cap")
        recall = len({cluster_of[i] for i in ids}) / self.clusters
        if recall < self.recall_floor:
            raise CheckFailed(f"cluster recall {recall:.3f} is below {self.recall_floor}")
        return {"sampling.cluster_recall": recall}


class Baseline:
    name = "baseline"
    # The train split is about 7/10 of the texts, give or take a few rows from
    # rounding within each stratum. It must stay inside one count of 64-row
    # batches on every seed, or the work depends on the seed: 230 texts give
    # 161-164 train rows, always 3 batches.
    texts = 230
    span_names = ["dataio.read_facts", "dataio.split", "baseline.tfidf_fit",
                  "baseline.tfidf_transform", "baseline.logreg_train", "baseline.eval",
                  "metrics.evaluate", "metrics.aggregate"]
    f1_floor = 0.4  # planted data gives 0.72-0.82

    def setup(self, seed: int, work: Path, out: Path) -> Inputs:
        rng = np.random.default_rng([seed, 40])
        labels = gen.planted_labels(rng, self.texts)
        texts = gen.planted_texts(rng, gen.label_codes(labels), gen.vocabulary(seed), "b")
        gen.write_facts(work / "facts.jsonl", _ids("b", self.texts), texts, labels)
        # the default recipe: 500 epochs, lr 1.0, l2 1e-4, default TF-IDF settings
        config = _config(work / "config.json", seed,
                         baseline={"epochs": 500, "lr": 1.0, "l2": 1e-4})
        argv = ["--config", config, "baseline", "--facts", str(work / "facts.jsonl"),
                "--out-dir", str(out)]
        return Inputs(argv, rows=self.texts)

    def check(self, out: Path, inputs: Inputs) -> dict:
        f1 = _report_value(out / "baseline-metrics.txt", "overall_macro_f1.mean")
        if not f1 > self.f1_floor:
            raise CheckFailed(f"macro F1 {f1:.4f} is not above the floor {self.f1_floor}")
        return {"baseline.macro_f1": f1}


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple


WORKLOADS = {w.name: w for w in (
    # Classifiers fitted on labelled facts: the model's write path and the baseline.
    Workload("fit", (Train(), Baseline())),
    # Passes over unlabelled embeddings: the model's read path and k-means sampling.
    Workload("corpus", (Analyze(), Sample())),
)}
