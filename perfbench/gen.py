"""Seeded workload generator.

Everything here is a pure function of the workload seed and the sizes, so
one seed always gives byte-identical input files. The program under test
sees only the files written here; the planted truth (labels, clusters,
overlap count) stays in memory for the output checks.

Files are written in the documented on-disk formats (JSON-lines facts,
``FEMB`` embeddings, ``FMHC`` checkpoints) rather than through the
program's writers, so set-up time does not move when the program's
in-memory layout changes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from factkit.taxonomy import DIMENSIONS, LABEL_SPACE, LabelSet, validate_labelset

# Label priors for the planted data: skewed like real annotations, every
# label reachable, and every label set consistent across dimensions.
P_INVALID = 0.2
REASON_P = {"No Fact": 0.3, "Opinion": 0.25, "Context Insufficient": 0.2,
            "Unattributable": 0.15, "Multiple Facts": 0.1}
MAIN_P = {"Preferences": 0.22, "Characteristics": 0.18, "Routine Activities": 0.14,
          "Experience": 0.12, "Goals and Plans": 0.1, "Relationships": 0.1,
          "Demographics": 0.08, "Possessions": 0.06}
TIME_P = {"Past": 0.25, "Present": 0.45, "Future": 0.2, "None": 0.1}
REFERENT_P = {"Self": 0.6, "Other": 0.3, "None": 0.1}
DURATION_P = {"Short-term": 0.3, "Long-term": 0.55, "None": 0.15}
FOLLOWUP_P = {"Yes": 0.4, "Maybe": 0.35, "None": 0.25}

N_LABELS = sum(len(LABEL_SPACE[d]) for d in DIMENSIONS)
SIGNAL = 1.0  # planted amplitude along each label direction
NOISE = 0.25  # per-coordinate noise of the embeddings
MARKER_P = 0.8  # chance that a text carries its label's marker word, per dimension
FILLER_WORDS = 600

_EMB_MAGIC = int.from_bytes(b"FEMB", "little")
_CKPT_MAGIC = int.from_bytes(b"FMHC", "little")


def _pick(rng: np.random.Generator, table: dict[str, float]) -> str:
    keys = list(table)
    return keys[rng.choice(len(keys), p=np.array(list(table.values())))]


def planted_labels(rng: np.random.Generator, n: int) -> list[LabelSet]:
    labels = []
    for _ in range(n):
        if rng.random() < P_INVALID:
            labels.append(LabelSet.invalid(_pick(rng, REASON_P)))
            continue
        time = _pick(rng, TIME_P)
        labels.append(LabelSet(
            main_category=_pick(rng, MAIN_P),
            time=time,
            referent=_pick(rng, REFERENT_P),
            duration=_pick(rng, DURATION_P),
            validity="Valid",
            invalidity_reason="None",
            followup=_pick(rng, FOLLOWUP_P) if time == "Future" else "None",
        ))
    for label_set in labels:
        problems = validate_labelset(label_set)
        if problems:
            raise AssertionError(f"generator broke a label invariant: {problems}")
    return labels


def label_codes(labels: list[LabelSet]) -> np.ndarray:
    """(n, 7) label indices in the canonical label space."""
    return np.array(
        [[LABEL_SPACE[d].index(ls.get(d)) for d in DIMENSIONS] for ls in labels],
        dtype=np.int64,
    )


def _offsets() -> np.ndarray:
    return np.cumsum([0] + [len(LABEL_SPACE[d]) for d in DIMENSIONS])[:-1]


def label_map(seed: int, dim: int) -> np.ndarray:
    """Fixed random map: one unit direction per (dimension, label), (N_LABELS, dim)."""
    rng = np.random.default_rng([seed, 1])
    directions = rng.standard_normal((N_LABELS, dim))
    return directions / np.linalg.norm(directions, axis=1, keepdims=True)


def planted_embeddings(rng, codes: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Sum of the label directions of every dimension, plus Gaussian noise."""
    flat = codes + _offsets()[None, :]
    rows = SIGNAL * directions[flat].sum(axis=1)
    rows += rng.standard_normal(rows.shape) * NOISE
    return rows.astype(np.float32)


def _word(rng: np.random.Generator, syllables: int) -> str:
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    return "".join(
        consonants[rng.integers(len(consonants))] + vowels[rng.integers(len(vowels))]
        for _ in range(syllables)
    )


def vocabulary(seed: int) -> tuple[list[str], dict[tuple[int, int], list[str]]]:
    """Filler words plus two marker words per (dimension, label), all distinct."""
    rng = np.random.default_rng([seed, 2])
    seen: set[str] = set()

    def fresh(syllables: int) -> str:
        while True:
            word = _word(rng, syllables)
            if word not in seen:
                seen.add(word)
                return word

    markers = {
        (c, j): [fresh(4), fresh(4)]
        for c, dim in enumerate(DIMENSIONS)
        for j in range(len(LABEL_SPACE[dim]))
    }
    fillers = [fresh(2 + i % 2) for i in range(FILLER_WORDS)]
    return fillers, markers


def planted_texts(rng, codes: np.ndarray, vocab, tag: str) -> list[str]:
    """Short texts: label markers mixed into Zipf-distributed filler words.

    Every text ends in a unique ``<tag><row>`` token, so texts never repeat
    by accident.
    """
    fillers, markers = vocab
    zipf = 1.0 / np.arange(1, len(fillers) + 1)
    zipf /= zipf.sum()
    texts = []
    for i, row in enumerate(codes):
        words = [fillers[w] for w in rng.choice(len(fillers), size=rng.integers(4, 9), p=zipf)]
        for c, j in enumerate(row):
            if rng.random() < MARKER_P:
                words.insert(rng.integers(len(words) + 1), markers[(c, int(j))][rng.integers(2)])
        texts.append(" ".join(words) + f" {tag}{i}")
    return texts


def write_facts(path, ids, texts, labels=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, (fact_id, text) in enumerate(zip(ids, texts)):
            record = {"id": fact_id, "text": text, "source": "MSC"}
            if labels is not None:
                record["labels"] = labels[i].as_dict()
            handle.write(json.dumps(record) + "\n")


def write_embeddings(path, ids, rows: np.ndarray) -> None:
    rows = np.ascontiguousarray(rows, dtype="<f4")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4I", _EMB_MAGIC, 1, rows.shape[0], rows.shape[1]))
        handle.write(rows.tobytes())
        for fact_id in ids:
            encoded = fact_id.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)) + encoded)


def write_checkpoint(path, rng: np.random.Generator, directions: np.ndarray) -> None:
    """A trained-looking head stack that decodes the planted label directions.

    Head c's first ``n_c`` hidden units read the label directions of its
    dimension (with a per-checkpoint perturbation, so seed models disagree
    a little); the other hidden units are random, as after initialisation.
    Layout follows the ``FMHC`` format: JSON header, then per head W1, b1,
    W2, b2 as little-endian float64. hidden = dim, the default recipe.
    """
    dim = directions.shape[1]
    header = {
        "dim": dim,
        "hidden": dim,
        "dropout_rate": 0.1,
        "categories": [
            {"name": d.value, "labels": list(LABEL_SPACE[d]), "weight": 1.0,
             "label_weights": None}
            for d in DIMENSIONS
        ],
    }
    blob = json.dumps(header).encode("utf-8")
    bound = 1.0 / np.sqrt(dim)
    with open(path, "wb") as handle:
        handle.write(struct.pack("<3I", _CKPT_MAGIC, 1, len(blob)) + blob)
        for offset, d in zip(_offsets(), DIMENSIONS):
            n = len(LABEL_SPACE[d])
            w1 = rng.uniform(-bound, bound, size=(dim, dim))
            planted = directions[offset : offset + n]
            jitter = rng.standard_normal(planted.shape) * (0.3 / np.sqrt(dim))
            w1[:n] = 4.0 * (planted + jitter)
            b1 = np.zeros(dim)
            b1[:n] = -2.0
            w2 = rng.uniform(-bound, bound, size=(n, dim))
            w2[:, :n] += 6.0 * np.eye(n)
            b2 = np.zeros(n)
            for array in (w1, b1, w2, b2):
                handle.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def sphere_clusters(rng, n: int, clusters: int, dim: int, spread: float, rare: int,
                    rare_size: int, duplicate_frac: float) -> tuple[np.ndarray, np.ndarray]:
    """Points on the unit sphere from a planted mixture, and their cluster ids.

    Cluster sizes follow a Zipf law and the last ``rare`` clusters hold
    ``rare_size`` points each. The final ``duplicate_frac`` of the rows are exact
    copies of earlier rows and belong to their source's cluster.
    """
    copies = int(duplicate_frac * n)
    distinct = n - copies
    centers = rng.standard_normal((clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    sizes = np.full(clusters, rare_size)
    weights = 1.0 / np.arange(1, clusters - rare + 1) ** 1.1
    spare = distinct - rare_size * clusters
    sizes[: clusters - rare] += np.floor(weights / weights.sum() * spare).astype(int)
    sizes[0] += distinct - sizes.sum()
    member = np.repeat(np.arange(clusters), sizes)
    points = centers[member] + rng.standard_normal((distinct, dim)) * (spread / np.sqrt(dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    source = rng.choice(distinct, size=copies, replace=False)
    points = np.concatenate([points, points[source]])
    member = np.concatenate([member, member[source]])
    return points.astype(np.float32), member
