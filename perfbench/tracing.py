"""Spans around the calls into each factkit module, recorded from outside.

The benchmark wraps the program's functions by replacing the module
attributes that name them, in every ``factkit`` module that holds them
(``factkit.dataio.read_facts`` and ``factkit.cli.read_facts`` alike), and
restores the originals afterwards. Spans stay in memory and are written
out when the run ends. The program itself is not modified.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

# span name -> (defining module, attribute). Several attributes may share a
# span name; a span name is the layer and the operation, as in the metrics.
WRAPPED = [
    ("dataio.read_facts", "factkit.dataio", "read_facts"),
    ("dataio.split", "factkit.dataio", "stratified_split"),
    ("dataio.write", "factkit.dataio", "write_facts"),
    ("dataio.write", "factkit.dataio", "write_split"),
    ("embeddings.load", "factkit.embeddings", "load_embeddings"),
    ("embeddings.normalize", "factkit.embeddings", "l2_normalize"),
    ("model.train", "factkit.model", "train"),
    ("model.fwd_bwd", "factkit.model", "_loss_and_grads"),
    ("model.adamw", "factkit.model", "adamw_step"),
    ("model.predict", "factkit.model", "predict"),
    ("model.predict_batch", "factkit.model", "predict_batch"),
    ("model.save", "factkit.model", "save_model"),
    ("model.load", "factkit.model", "load_model"),
    ("metrics.pooled_f1", "factkit.model", "pooled_f1_indices"),
    ("metrics.evaluate", "factkit.metrics", "evaluate_labelsets"),
    ("metrics.aggregate", "factkit.cli", "_aggregate_and_render"),
    ("analyze.predict_corpus", "factkit.analyze", "predict_corpus"),
    ("analyze.aggregate", "factkit.analyze", "aggregate_distribution"),
    ("analyze.leakage", "factkit.analyze", "leakage_audit"),
    ("analyze.render", "factkit.analyze", "render_distribution"),
    ("sampling.kmeans", "factkit.sampling", "kmeans_fit"),
    ("sampling.seed", "factkit.sampling", "_kmeans_plus_plus"),
    ("sampling.assign", "factkit.sampling", "_assign"),
    ("sampling.cluster_sample", "factkit.sampling", "cluster_sample"),
    ("baseline.tfidf_fit", "factkit.baseline", "tfidf_fit"),
    ("baseline.tfidf_transform", "factkit.baseline", "tfidf_transform"),
    ("baseline.logreg_train", "factkit.baseline", "logreg_train"),
    ("baseline.eval", "factkit.baseline", "baseline_eval"),
]

ROOT = "cli.main"


def _file_mb(args, kwargs, result) -> dict:
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _forward_gflop(args, kwargs, result) -> dict:
    model, X = args[0], args[1]
    per_row = sum(
        2 * (model.dim * model.hidden + model.hidden * len(labels))
        for labels in model.label_space
    )
    return {"gflop": per_row * len(X) / 1e9}


def _kmeans_result(args, kwargs, result) -> dict:
    return {"iters": result.n_iter, "inertia": result.inertia}


def _logreg_result(args, kwargs, result) -> dict:
    if result.single_class:
        return {"epochs": 0}
    return {"epochs": len(result.loss_history) - 1, "final_loss": result.loss_history[-1]}


# Extra values recorded on a span, computed from the call's inputs and result.
ATTRS: dict[str, Callable] = {
    "embeddings.load": _file_mb,
    "model.load": _file_mb,
    "model.predict_batch": _forward_gflop,
    "sampling.kmeans": _kmeans_result,
    "baseline.logreg_train": _logreg_result,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    run: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one run id per traced command."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.run = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent, run=self.run))
        self._stack.append(len(self.spans) - 1)
        self.spans[-1].start = time.perf_counter()
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs is not None:
                self.spans[index].attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every wrapped function in every loaded factkit module."""
        for name, module_name, attribute in WRAPPED:
            original = getattr(sys.modules[module_name], attribute)
            traced = self.wrap(name, original)
            for module in [m for key, m in sys.modules.items() if key.startswith("factkit")]:
                if getattr(module, attribute, None) is original:
                    self._saved.append((module, attribute, original))
                    setattr(module, attribute, traced)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def command(self, fn: Callable, *args):
        """Run ``fn(*args)`` under a root span; returns (result, root span index)."""
        self.run += 1
        index = self._open(ROOT)
        try:
            return fn(*args), index
        finally:
            self._close(index)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def _under(spans: list[Span], index: int, ancestor: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def calls(spans: list[Span], run: int) -> dict[str, int]:
    """How many spans of each name one traced command recorded."""
    counts: dict[str, int] = {}
    for span in spans:
        if span.run == run:
            counts[span.name] = counts.get(span.name, 0) + 1
    return counts


def layer_metrics(spans: list[Span], runs: list[int]) -> tuple[dict, dict[str, float]]:
    """Per-layer metrics of traced commands taken together, and each span name's self time."""
    ids = [i for i, span in enumerate(spans) if span.run in runs]
    own = self_times(spans)
    counts: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i in ids:
        name = spans[i].name
        counts[name] = counts.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + spans[i].duration
        self_s[name] = self_s.get(name, 0.0) + own[i]

    def attr_sum(name: str, key: str, keep=lambda i: True) -> float:
        return sum(spans[i].attrs.get(key, 0.0) for i in ids if spans[i].name == name and keep(i))

    def span_sum(name: str, keep) -> float:
        return sum(spans[i].duration for i in ids if spans[i].name == name and keep(i))

    in_train = lambda i: _under(spans, i, "model.train")
    in_predict = lambda i: _under(spans, i, "model.predict")
    predict_batch_s = span_sum("model.predict_batch", in_predict)
    gflop = attr_sum("model.predict_batch", "gflop", in_predict)
    losses = [spans[i].attrs["final_loss"] for i in ids
              if spans[i].name == "baseline.logreg_train" and "final_loss" in spans[i].attrs]
    kmeans = [spans[i] for i in ids if spans[i].name == "sampling.kmeans"]
    t = total.get
    metrics = {
        "cli.self_s": self_s[ROOT],
        "dataio.read_facts_s": t("dataio.read_facts", 0.0),
        "dataio.split_s": t("dataio.split", 0.0),
        "dataio.write_s": t("dataio.write", 0.0),
        "embeddings.load_s": t("embeddings.load", 0.0),
        "embeddings.load_mb": attr_sum("embeddings.load", "mb"),
        "embeddings.normalize_s": t("embeddings.normalize", 0.0),
        "model.train_s": t("model.train", 0.0),
        "model.fwd_bwd_s": t("model.fwd_bwd", 0.0),
        "model.fwd_bwd_calls": counts.get("model.fwd_bwd", 0),
        "model.adamw_s": t("model.adamw", 0.0),
        "model.adamw_calls": counts.get("model.adamw", 0),
        "model.val_predict_s": span_sum("model.predict_batch", in_train),
        "model.save_s": t("model.save", 0.0),
        "model.predict_s": t("model.predict", 0.0),
        "model.predict_batch_s": predict_batch_s,
        "model.predict_self_s": t("model.predict", 0.0) - predict_batch_s,
        "model.forward_gflop": gflop,
        "model.forward_gflop_per_s": gflop / predict_batch_s if predict_batch_s else 0.0,
        "model.load_s": t("model.load", 0.0),
        "model.ckpt_mb": attr_sum("model.load", "mb"),
        "metrics.pooled_f1_s": t("metrics.pooled_f1", 0.0),
        "metrics.evaluate_s": t("metrics.evaluate", 0.0),
        "metrics.aggregate_s": t("metrics.aggregate", 0.0),
        "analyze.predict_corpus_s": t("analyze.predict_corpus", 0.0),
        "analyze.aggregate_s": t("analyze.aggregate", 0.0),
        "analyze.aggregate_calls": counts.get("analyze.aggregate", 0),
        "analyze.leakage_self_s": self_s.get("analyze.leakage", 0.0),
        "analyze.render_s": t("analyze.render", 0.0),
        "sampling.kmeans_s": t("sampling.kmeans", 0.0),
        "sampling.seed_s": t("sampling.seed", 0.0),
        "sampling.assign_s": t("sampling.assign", 0.0),
        "sampling.assign_calls": counts.get("sampling.assign", 0),
        "sampling.update_s": self_s.get("sampling.kmeans", 0.0),
        "sampling.lloyd_iters": sum(s.attrs["iters"] for s in kmeans),
        "sampling.inertia": sum(s.attrs["inertia"] for s in kmeans),
        "sampling.cluster_sample_s": t("sampling.cluster_sample", 0.0),
        "baseline.tfidf_fit_s": t("baseline.tfidf_fit", 0.0),
        "baseline.tfidf_transform_s": t("baseline.tfidf_transform", 0.0),
        "baseline.logreg_train_s": t("baseline.logreg_train", 0.0),
        "baseline.logreg_epochs": attr_sum("baseline.logreg_train", "epochs"),
        "baseline.final_loss": sum(losses) / len(losses) if losses else 0.0,
        "baseline.eval_s": t("baseline.eval", 0.0),
    }
    return metrics, self_s

