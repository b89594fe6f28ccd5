"""Multi-head classifier over frozen text embeddings.

One shared input vector feeds an independent two-layer head per category:

    z_c      = dropout(h)
    hidden_c = tanh(W1_c z_c + b1_c)
    logits_c = W2_c dropout(hidden_c) + b2_c

Training minimizes the masked weighted cross-entropy

    L = (1 / |V|) * sum_c  w(y_c) * [y_c >= 0] * CE(logits_c, y_c)

where V is the set of categories whose target is not masked (masked targets
use the sentinel ``MASK``), w(y_c) is the gold label's weight (1 without
label weights), and L = 0 when every category is masked. A weight for a
whole category is the same weight given to each of its labels. The encoder
producing h is frozen: only head parameters are trained, with AdamW
(decoupled weight decay) and early stopping on the validation pooled macro
F1.

Dropout is inverted (scaling by 1/(1-rate) at train time, identity at eval
time) and drawn independently per head, per example. All training arithmetic
is float64.

A head's loss term is scaled only by per-example counts of unmasked targets,
so training takes one pass over the heads per batch. For each head in turn it
runs the forward step, which draws the head's input dropout mask and then its
hidden mask, takes the log-softmax over the unmasked rows once, adds the
weighted cross-entropy to the per-example sums, and writes the head's
gradient.

Every parameter lives in one float64 vector, ``MultiHeadModel.theta``: each
head's W1, b1, W2, b2, row-major, in category order. Each head's contiguous
slice of ``theta`` is its ``flat`` view, and ``_lay_head`` lays the four
arrays over it; the same helper lays a head's b1, W2, b2 gradient over a
small tail buffer. An in-place update of a head's array is an update of
``theta``. Each head's two AdamW moments are laid out like its ``flat``
slice, and the AdamW step updates them in place, one fixed-size block at a
time. Training holds three parameter-sized vectors and allocates none of
them per batch or per epoch: the parameters (the caller's ``theta``, updated
in place) and the two moments. The best epoch's parameters wait in an
unlinked temporary file, not in a fourth vector, and only while a later
epoch moves ``theta`` (see :func:`train`). Neither the whole gradient nor a
whole head's is ever held: a head's W1 gradient is written in row blocks of
at most ``GRAD_BLOCK`` values (2 MiB) and its b1, W2, b2 gradient into the
tail buffer, and AdamW steps each piece, at its offset in the head's
``flat`` slice and in the head's moments, as soon as it is written. Heads
share no parameters, every piece is stepped once per batch and AdamW is
elementwise, so this gives the bits of one step over the whole gradient.

The W1 blocks and their AdamW steps run on a pool of ``W1_WORKERS`` (two)
threads (``_w1_pool``), worker k writing every second block into its own
buffer; the blocks are the inline ones, so the pool holds one ``GRAD_BLOCK``
per worker. The calling thread keeps the forward step, the loss, the dropout
draws (in the same order) and the tail, and takes the next head's forward
step while the workers step this head's W1. Meanwhile BLAS runs one thread,
set through ``openblas_set_num_threads_local`` in every loaded OpenBLAS that
exports it (in OpenBLAS 0.3.31 it sets the count for the whole process), so
no idle BLAS worker spins on a CPU the pool needs. So the pool gives the
bits of the inline blocks run at one BLAS thread. Where OpenBLAS rounds a
product alike at one and at two threads, as its SkylakeX kernel did for all
2,270 product shapes probed at d = hidden = 1024, these are the inline bits
at two threads too; for some other shapes they are not (see ``_w1_pool``).

The pool was timed on a host with two usable CPUs only, so the calling
thread writes the blocks itself, with the BLAS count left alone, on any
other number; also where the count cannot be set (MKL, Accelerate, OpenBLAS
before 0.3.27) and where a head's W1 fits in one block, which leaves one
worker idle.

Nor is the training set copied: each batch's rows are gathered from the
stored matrix and upcast to float64 alone, and the validation rows keep their
stored dtype. So training holds ``theta``, two moments, one gradient block
(one per W1 worker) and one batch of rows beyond its inputs. The W1 gradient
and prediction are blocked by ``_row_blocks``.

Checkpoint files start with magic ``FMHC`` and a format-version u32, then a
u32-length-prefixed JSON header (dim, hidden, dropout, category names,
label lists, label weights, and a category weight that is always 1.0)
followed by ``theta`` as little-endian float64.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import metrics
from .dataio import SplitAssignment
from .embeddings import EmbeddingMatrix, _row_blocks
from .errors import (
    BadMagic,
    DimensionMismatch,
    EmptySplit,
    LabelOutOfRange,
    NonFiniteLoss,
    SchemaMismatch,
    TruncatedFile,
)
from .taxonomy import DIMENSIONS, LABEL_SPACE, FactRecord, label_codes

MASK = -1

CHECKPOINT_MAGIC = int.from_bytes(b"FMHC", "little")
CHECKPOINT_VERSION = 1
ADAM_BLOCK = 1 << 16  # elements per adamw_step block; its two scratch blocks are 512 KB each
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW moment decays and denominator floor
GRAD_BLOCK = 1 << 18  # values per block of a head's W1 gradient: 2 MiB of float64
W1_WORKERS = 2  # threads stepping W1 blocks; the only usable-CPU count the pool was timed on
PREDICT_BLOCK = 2048  # rows per eval-mode forward block; float64 activations stay ~16 MB at hidden=1024
LOAD_BLOCK = 1 << 17  # parameters load_model reads and checks at once: 1 MiB of float64


@dataclass
class HeadParams:
    """Two affine maps of one classification head, laid over ``flat``."""

    W1: np.ndarray  # (hidden, dim)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (n_labels, hidden)
    b2: np.ndarray  # (n_labels,)
    flat: np.ndarray  # W1, b1, W2, b2, row-major, back to back: the head's slice of ``theta``

    def arrays(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2]


def _lay_head(flat: np.ndarray, dim: int, hidden: int, n_labels: int) -> HeadParams:
    """A head's W1, b1, W2, b2 laid over ``flat``, which holds exactly their values."""
    W1, b1, W2, b2 = np.split(flat, np.cumsum([hidden * dim, hidden, n_labels * hidden]))
    return HeadParams(W1.reshape(hidden, dim), b1, W2.reshape(n_labels, hidden), b2, flat)


def _layout(dim: int, hidden: int, label_space) -> list[int]:
    """Each head's share of ``theta``, in category order; ``theta`` holds their sum."""
    if not (type(dim) is int and type(hidden) is int and dim >= 1 and hidden >= 1):
        raise ValueError(f"dim and hidden must be >= 1 and integers, got {dim!r}, {hidden!r}")
    if any(len(labels) < 2 for labels in label_space):
        raise ValueError("every category needs at least two labels")
    return [(hidden + 1) * n + hidden * (dim + 1) for n in map(len, label_space)]


def _nonnegative(weights: np.ndarray, n: int) -> bool:
    return weights.shape == (n,) and bool(np.all(weights >= 0))  # NaN fails >= 0 too


@dataclass
class MultiHeadModel:
    """Per-category heads plus the label space they predict into.

    ``theta`` holds every parameter; ``heads`` are views into it. ``label_weights``,
    when set, weights each category's cross-entropy by the gold label's weight
    (one nonnegative array per category); ``None`` means uniform weighting.

    Construction (with ``_layout``) is the one check of a model's fields, so a
    checkpoint loads only if :func:`new_model` could have built the same model.
    """

    dim: int
    hidden: int
    dropout_rate: float
    category_names: tuple[str, ...]
    label_space: tuple[tuple[str, ...], ...]
    theta: np.ndarray
    label_weights: Optional[list[np.ndarray]] = None
    heads: list[HeadParams] = field(init=False, repr=False)

    def __post_init__(self):
        sizes = _layout(self.dim, self.hidden, self.label_space)
        # a category name must name one category, and a label code one label
        if len(set(self.category_names)) != len(self.category_names):
            raise ValueError(f"category names must be distinct, got {self.category_names!r}")
        for name, labels in zip(self.category_names, self.label_space):
            if len(set(labels)) != len(labels):
                raise ValueError(f"category {name!r} repeats a label: {labels!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate!r}")
        if self.label_weights is not None and not (
            len(self.label_weights) == len(self.label_space)
            and all(map(_nonnegative, self.label_weights, map(len, self.label_space)))
        ):
            raise ValueError("label_weights must give one nonnegative value per label")
        if self.theta.shape != (sum(sizes),):
            raise DimensionMismatch(
                f"theta must hold {sum(sizes)} values, got shape {self.theta.shape}"
            )
        flats = np.split(self.theta, np.cumsum(sizes)[:-1])
        self.heads = [
            _lay_head(flat, self.dim, self.hidden, len(labels))
            for flat, labels in zip(flats, self.label_space)
        ]

    @property
    def n_categories(self) -> int:
        return len(self.category_names)

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays: W1, b1, W2, b2 per head, in category order."""
        return [array for head in self.heads for array in head.arrays()]

    def copy(self) -> "MultiHeadModel":
        return replace(self, theta=self.theta.copy(), label_weights=deepcopy(self.label_weights))


def canonical_label_space() -> list[tuple[str, tuple[str, ...]]]:
    """The seven-dimension taxonomy as (name, labels) pairs."""
    return [(dim.value, LABEL_SPACE[dim]) for dim in DIMENSIONS]


def new_model(
    dim: int,
    label_space: Sequence[tuple[str, Sequence[str]]],
    hidden: Optional[int] = None,
    dropout_rate: float = 0.1,
    label_weights: Optional[Sequence[Sequence[float]]] = None,
    seed: int = 0,
) -> MultiHeadModel:
    """Fresh model with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Only fills defaults and draws the weights. ``MultiHeadModel`` checks the fields, for
    :func:`load_model` too, so a checkpoint loads only if ``new_model`` could have built it.
    """
    if hidden is None:
        hidden = dim
    if label_weights is not None:
        label_weights = [np.array(w, dtype=np.float64) for w in label_weights]
    spaces = tuple(tuple(labels) for _, labels in label_space)
    model = MultiHeadModel(
        dim=dim,
        hidden=hidden,
        dropout_rate=dropout_rate,
        category_names=tuple(name for name, _ in label_space),
        label_space=spaces,
        theta=np.zeros(sum(_layout(dim, hidden, spaces))),
        label_weights=label_weights,
    )
    rng = np.random.default_rng(seed)
    for head in model.heads:
        for weights, fan_in in ((head.W1, dim), (head.W2, hidden)):
            bound = 1.0 / np.sqrt(fan_in)
            # Generator.uniform's arithmetic and draws, low + (high - low) * u, written into theta
            rng.random(out=weights)
            weights *= bound - -bound
            weights += -bound
    return model


def inverse_frequency_label_weights(
    targets: np.ndarray, label_space: Sequence[tuple[str, Sequence[str]]]
) -> list[np.ndarray]:
    """Per-label weights N_c / (n_labels * count), from unmasked targets.

    Labels absent from ``targets`` get the weight a single occurrence would,
    so rare labels are never zeroed out.
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = []
    for c, (_, labels) in enumerate(label_space):
        column = targets[:, c]
        column = column[column >= 0]
        counts = np.bincount(column, minlength=len(labels)).astype(np.float64)
        total = counts.sum()
        if total == 0:
            weights.append(np.ones(len(labels), dtype=np.float64))
            continue
        weights.append(total / (len(labels) * np.maximum(counts, 1.0)))
    return weights


# ---------------------------------------------------------------------------
# forward / loss / backward


def _dropout_mask(rng, shape, rate: float) -> Optional[np.ndarray]:
    if rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _head_forward(
    head: HeadParams, X: np.ndarray, rate: float, rng: Optional[np.random.Generator]
):
    """One head's logits for a (B, dim) batch, plus the cache backward needs.

    Draws the head's two dropout masks from ``rng``, input mask first, unless
    ``rate`` is 0 (eval mode), which draws nothing. Each layer allocates one
    activation array, and its bias and tanh are applied in place.
    """
    m1 = _dropout_mask(rng, X.shape, rate)
    z = X if m1 is None else X * m1
    t = z @ head.W1.T
    t += head.b1
    np.tanh(t, out=t)
    m2 = _dropout_mask(rng, t.shape, rate)
    u = t if m2 is None else t * m2
    logits = u @ head.W2.T
    logits += head.b2
    return logits, (z, t, u, m2)


def _check_inputs(model: MultiHeadModel, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatch(f"expected (*, {model.dim}) inputs, got {X.shape}")


def forward(model: MultiHeadModel, h: np.ndarray) -> list[np.ndarray]:
    """Per-category logit vectors for one d-dimensional input, in eval mode (no dropout)."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (model.dim,):
        raise DimensionMismatch(f"expected a ({model.dim},) vector, got {h.shape}")
    return [_head_forward(head, h[None, :], 0.0, None)[0][0] for head in model.heads]


def _check_targets(model: MultiHeadModel, targets: np.ndarray) -> np.ndarray:
    targets = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    if targets.shape[1] != model.n_categories:
        raise DimensionMismatch(
            f"targets have {targets.shape[1]} categories, model has {model.n_categories}"
        )
    for c, labels in enumerate(model.label_space):
        column = targets[:, c]
        bad = (column < MASK) | (column >= len(labels))
        if np.any(bad):
            raise LabelOutOfRange(
                f"category {model.category_names[c]!r} target out of range: {column[bad][0]}"
            )
    return targets


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(np.atleast_2d(logits)))


def _add_head_ce(model, logits, targets, c, contrib):
    """Add head c's weighted cross-entropy to ``contrib`` on the rows it does not mask.

    Returns those rows, their log-softmax and their CE scale: the gold label's
    weight, or 1 without label weights.
    """
    rows = np.flatnonzero(targets[:, c] >= 0)
    log_probs = _log_softmax(logits[rows])
    if model.label_weights is None:
        scale = np.ones(rows.size)
    else:
        scale = model.label_weights[c][targets[rows, c]]
    contrib[rows] += scale * -log_probs[np.arange(rows.size), targets[rows, c]]
    return rows, log_probs, scale


def _unmasked_counts(targets: np.ndarray) -> np.ndarray:
    """|V| per example, at least 1: a fully masked example adds nothing to its sum anyway."""
    return np.maximum((targets >= 0).sum(axis=1), 1.0)


def loss(model: MultiHeadModel, logits: Sequence[np.ndarray], target: np.ndarray) -> float:
    """Masked weighted cross-entropy for one example's logits."""
    targets = _check_targets(model, target)
    contrib = np.zeros(len(targets))
    for c in range(model.n_categories):
        l = np.atleast_2d(np.asarray(logits[c], dtype=np.float64))
        if l.shape[1] != len(model.label_space[c]):
            raise DimensionMismatch(
                f"category {model.category_names[c]!r} logits have width {l.shape[1]}"
            )
        _add_head_ce(model, l, targets, c, contrib)
    return float(contrib[0] / _unmasked_counts(targets)[0])


def _loss_and_grads(
    model: MultiHeadModel,
    X: np.ndarray,
    targets: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    apply: Optional[Callable[[int, int, np.ndarray], None]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    workers: int = 1,
) -> tuple[float, Optional[np.ndarray]]:
    """Mean per-example loss over the batch, and its gradient unless ``apply`` takes it.

    One pass, head by head: the head's forward step (its dropout masks drawn
    then at ``model.dropout_rate`` if ``rng`` is given; without it, no
    dropout), its cross-entropy and its gradient. Head c's gradient goes to
    ``apply(c, start, piece)`` in pieces, ``start`` being the piece's offset in
    the head's ``flat``, all before the function returns. The b1, W2, b2
    gradient is written into a small tail buffer, and W1's in ``_row_blocks``
    of at most ``GRAD_BLOCK`` values, each into a block buffer and passed on
    as soon as it is written. Without a ``pool`` the caller does that, before
    head c + 1's forward step. With a ``pool`` of ``workers`` threads, worker
    k writes and passes on every ``workers``-th of the same blocks into its
    own buffer, under the caller's numpy error handling, while the caller
    passes on head c's tail and takes head c + 1's forward step; it waits for
    head c's blocks before it hands out head c + 1's. ``dU`` is
    computed before any piece is passed on, since a step on the tail moves
    W2, and the W1 blocks need only ``dA`` and the input rows, so the other
    activations go first. Without ``apply``, each piece is copied into a
    fresh vector laid out like ``theta``, which is returned in place of
    ``None``. ``X`` and ``targets`` are not checked here, on every batch:
    the callers check them once.
    """
    rate = 0.0 if rng is None else model.dropout_rate
    counts = _unmasked_counts(targets)
    scale_rows = 1.0 / counts / X.shape[0]
    contrib = np.zeros(X.shape[0])
    grad = None
    if apply is None:
        grad = np.empty_like(model.theta)
        grad_flats = [head.flat for head in replace(model, theta=grad).heads]
        apply = lambda c, start, piece: np.copyto(grad_flats[c][start : start + piece.size], piece)
    dim, hidden = model.dim, model.hidden
    blocks = _row_blocks(hidden, GRAD_BLOCK // dim)  # the same products whatever ``workers``
    block_buffers = np.empty((workers, max(hi - lo for lo, hi in blocks) * dim))
    tail_buffer = np.empty(max(head.flat.size for head in model.heads) - hidden * dim)
    errors = np.geterr()  # numpy keeps its error handling per thread: the workers get this
    pending = []  # the pool's futures for the last head's W1 blocks
    for c, head in enumerate(model.heads):
        # the tail is laid out as a head of input width 0: b1, W2, b2
        tail = _lay_head(tail_buffer[: head.flat.size - hidden * dim], 0, hidden, len(head.b2))
        logits, (z, t, u, m2) = _head_forward(head, X, rate, rng)
        rows, log_probs, scale = _add_head_ce(model, logits, targets, c, contrib)
        # a fully masked head has no rows, and its empty products write zeros
        G = np.exp(log_probs)
        G[np.arange(rows.size), targets[rows, c]] -= 1.0
        G *= (scale * scale_rows[rows])[:, None]
        np.matmul(G.T, u[rows], out=tail.W2)
        np.sum(G, axis=0, out=tail.b2)
        dU = G @ head.W2
        if m2 is not None:
            dU = dU * m2[rows]
        dA = dU * (1.0 - t[rows] ** 2)
        np.sum(dA, axis=0, out=tail.b1)
        z_rows = z[rows]
        del logits, log_probs, z, t, u, m2, G, dU  # the pieces go out beside dA and z_rows alone
        shares = [(c, dA, z_rows, blocks[k::workers], block_buffers[k], apply, errors)
                  for k in range(workers)]
        for future in pending:  # head c - 1's blocks, whose buffers head c's reuse
            future.result()
        if pool is None:
            _w1_pieces(*shares[0])
        else:
            pending = [pool.submit(_w1_pieces, *share) for share in shares]
        del dA, z_rows, shares
        apply(c, hidden * dim, tail.flat)
    for future in pending:
        future.result()
    return float((contrib / counts).mean()), grad


def _w1_pieces(c, dA, z_rows, blocks, buffer, apply, errors) -> None:
    """Write head c's W1 gradient ``blocks`` one at a time into ``buffer`` and pass each on,
    under numpy's error handling ``errors``."""
    dim = z_rows.shape[1]
    with np.errstate(**errors):
        for lo, hi in blocks:
            block = buffer[: (hi - lo) * dim].reshape(hi - lo, dim)
            np.matmul(dA[:, lo:hi].T, z_rows, out=block)
            apply(c, lo * dim, block.reshape(-1))


def backward(model: MultiHeadModel, h: np.ndarray, target: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of loss(forward(h)) in ``parameters()`` order.

    Eval mode, like :func:`forward`, so the gradients can be checked against
    finite differences of ``forward``; training's dropout lives in
    :func:`_loss_and_grads`, which :func:`train` drives.
    """
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    _check_inputs(model, h)
    targets = _check_targets(model, target)
    _, grad = _loss_and_grads(model, h, targets)
    return replace(model, theta=grad).parameters()


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class TrainConfig:
    """What a caller may vary about training; AdamW's betas and eps are fixed (``ADAM_*``)."""

    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.learning_rate < math.inf and 0.0 <= self.weight_decay < math.inf):
            raise ValueError("learning rate and weight decay must be finite and nonnegative")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ValueError("batch_size and max_epochs must be >= 1, patience >= 0")


def adamw_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               step: int, config: TrainConfig) -> None:
    """AdamW update number ``step`` (from 1), with decoupled weight decay, in place.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

    with moment decays ``ADAM_BETA1`` and ``ADAM_BETA2`` and eps ``ADAM_EPS``.
    ``theta`` and its moments ``m`` and ``v`` (zeros before step 1) are updated
    in place, ``ADAM_BLOCK`` elements at a time.
    """
    if not theta.shape == grad.shape == m.shape == v.shape:
        raise DimensionMismatch("theta, grad, m and v must have one shape")
    bias1 = 1.0 - ADAM_BETA1**step
    bias2 = 1.0 - ADAM_BETA2**step
    scratch = np.empty((2, min(ADAM_BLOCK, theta.size)))
    for start in range(0, theta.size, ADAM_BLOCK):
        p, g, mb, vb = (a[start : start + ADAM_BLOCK] for a in (theta, grad, m, v))
        update, tmp = scratch[:, : p.size]
        # each operation of the formula in its evaluation order, into the scratch blocks
        mb *= ADAM_BETA1
        mb += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        vb *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        vb += np.multiply(tmp, g, out=tmp)
        np.divide(mb, bias1, out=update)
        np.sqrt(np.divide(vb, bias2, out=tmp), out=tmp)
        update /= np.add(tmp, ADAM_EPS, out=tmp)
        if config.weight_decay:
            update += np.multiply(p, config.weight_decay, out=tmp)
        p -= np.multiply(update, config.learning_rate, out=update)


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_f1: float


@dataclass
class TrainResult:
    model: MultiHeadModel
    history: list[EpochStats]
    best_epoch: int
    best_val_f1: float


def targets_from_facts(
    facts: Sequence[FactRecord],
    label_space: Sequence[tuple[str, Sequence[str]]],
) -> np.ndarray:
    """(N, 7) label codes per fact; ``label_space`` must be the canonical one."""
    if [(name, tuple(labels)) for name, labels in label_space] != canonical_label_space():
        raise SchemaMismatch("targets need the canonical seven-dimension label space")
    for fact in facts:
        if fact.labels is None:
            raise ValueError(f"fact {fact.id!r} has no labels")
    return label_codes([fact.labels for fact in facts])


def pooled_f1_indices(gold: np.ndarray, pred: np.ndarray) -> float:
    """Pooled macro F1 over (category, index) pairs, skipping masked gold."""
    gold = np.asarray(gold)
    pred = np.asarray(pred)
    sizes = (np.maximum(gold.max(axis=0), pred.max(axis=0)) + 1).tolist()
    return metrics._f1_count(gold, pred, sizes)[-1]


def predict_batch(model: MultiHeadModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode argmax indices and max-softmax confidences, per category.

    Ties go to the lowest label index. ``X`` may be any float dtype: it is
    read in blocks of at most ``PREDICT_BLOCK`` rows, each upcast to float64
    on its own. Each head's activations are freed before the next head runs,
    so memory beyond the inputs and outputs is one float64 block and one
    head's activations. The blocks are ``_row_blocks``, so none has a single
    row unless ``X`` does.
    """
    X = np.asarray(X)
    _check_inputs(model, X)
    indices = np.empty((len(X), model.n_categories), dtype=np.intp)
    confidences = np.empty((len(X), model.n_categories))
    for lo, hi in _row_blocks(len(X), PREDICT_BLOCK):
        block = np.asarray(X[lo:hi], dtype=np.float64)
        for c, head in enumerate(model.heads):
            logits = _head_forward(head, block, 0.0, None)[0]  # the cache goes before the next head
            indices[lo:hi, c] = logits.argmax(axis=1)
            confidences[lo:hi, c] = softmax(logits).max(axis=1)
    return indices, confidences


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_thread_setters() -> list[Callable[[int], int]]:
    """``openblas_set_num_threads_local``, which sets the BLAS thread count and returns the
    count it replaces, from every OpenBLAS that ``/proc/self/maps`` lists and that exports it.

    numpy does not say which OpenBLAS it loaded, and a host process may have loaded another
    (say scipy's own), so the count is set in each of them.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return setters


@contextmanager
def _w1_pool(model: MultiHeadModel) -> Iterator[tuple[Optional[ThreadPoolExecutor], int]]:
    """A pool of ``W1_WORKERS`` threads for the W1 gradient blocks, and its size.

    The calling thread and every worker run one BLAS thread, in every
    OpenBLAS found, until the pool is shut down; then each library gets the
    caller's count back, in the reverse order of setting, so a library found
    twice ends at its first count. Gives ``(None, 1)``, and changes nothing,
    if the count cannot be set, the process may use other than
    ``W1_WORKERS`` CPUs, or a head's W1 fits in one ``GRAD_BLOCK``.

    Timed on a 2-vCPU Xeon (AVX-512), alternating pool and inline runs in
    one process: on perfbench ``fit``'s ``train`` inputs (d = hidden = 1024,
    four blocks a head) the pool took a median 1.12 s against 1.31 s and won
    9 of 10 runs; on 400 random rows at d = hidden = 768 (three blocks) it
    won 11 of 12. With one block a head it gained nothing clear: it won 1,
    5 and 8 of 12 runs at d = hidden = 128, 256 and 384.

    One BLAS thread changes the rounding of some products against two, so a
    model trained here can differ in its last bits from one trained with the
    inline blocks on the same host. With OpenBLAS 0.3.31's SkylakeX kernel,
    products whose output is wider than 64 and not a multiple of 8 differed,
    and so did the forward product for input widths above 384 that are not
    a multiple of 32 (400, say); with its Haswell kernel, the forward product
    of 2, 5 or 6 rows at d = hidden = 1024.
    """
    setters = _blas_thread_setters()
    if not setters or usable_cpus() != W1_WORKERS or model.hidden * model.dim <= GRAD_BLOCK:
        yield None, 1
        return

    def one_blas_thread() -> list[int]:
        return [set_threads(1) for set_threads in setters]

    previous = one_blas_thread()
    try:
        with ThreadPoolExecutor(W1_WORKERS, initializer=one_blas_thread) as pool:
            yield pool, W1_WORKERS
    finally:
        for set_threads, threads in reversed(list(zip(setters, previous))):
            set_threads(threads)


def train(
    model: MultiHeadModel,
    embeddings: EmbeddingMatrix,
    targets: np.ndarray,
    split: SplitAssignment,
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch training with early stopping on validation pooled F1.

    ``targets`` aligns row-for-row with ``embeddings``; both are checked
    once, here. Each epoch shuffles the training rows with a generator seeded
    from ``config.seed``, then takes one AdamW step per batch; after each
    epoch the validation pooled macro F1 decides whether this epoch is the
    best so far. Training stops after ``patience`` consecutive epochs without
    improvement or at ``max_epochs``.

    A batch's step is taken piece by piece: ``_loss_and_grads`` hands each
    head's gradient over in pieces, each with its offset in the head's
    ``flat``, and ``adamw_step`` steps the slice at that offset of
    ``model.heads[c].flat`` and of the head's two moments (one (2, size)
    array). Only ``_loss_and_grads`` knows where the pieces lie. Every piece
    is stepped once per batch, so the batch count is every step count, and
    the bits are those of one step over the whole gradient. Each batch's rows
    are gathered from ``embeddings.rows`` and upcast to float64 alone; the
    validation rows go to :func:`predict_batch` in their stored dtype. Memory
    is three parameter-sized vectors (parameters and two moments) plus one
    2 MiB gradient block per W1 worker, the tail and one batch.
    The batch loss is checked after the heads are stepped, so when
    ``NonFiniteLoss`` is raised the failing batch's update is already in
    ``model.theta``.

    On a host with ``W1_WORKERS`` usable CPUs, the only count it was timed
    on, each head's W1 blocks are written and stepped on ``_w1_pool``'s two
    threads, each with its own 2 MiB block (see the module notes). BLAS then
    runs one thread until training ends, which can change the last bits of
    some shapes' products (see ``_w1_pool``), and the caller's count is
    restored on every exit, ``NonFiniteLoss`` included.

    An epoch that follows an improving one first writes ``theta``, from a
    view, over the start of one unlinked ``tempfile.TemporaryFile`` under
    ``TMPDIR``: that is the last moment ``theta`` holds the best epoch. Its
    pages sit in the kernel's page cache, which is reclaimable and not part
    of the resident set; if ``TMPDIR`` is a tmpfs they sit in shared memory
    instead. If an epoch ran after the best one, the file is read back into
    ``model.theta``, which the heads view. Every exit closes the file, and a
    killed process leaves no file behind. A failed write (say ``ENOSPC``)
    raises ``OSError``, and a short read-back raises ``TruncatedFile``.

    Training runs in place (pass ``model.copy()`` to keep the initial
    parameters): the returned ``model`` is ``model``, holding the best
    epoch's parameters.
    """
    if not split.train or not split.val:
        raise EmptySplit("train and val splits must both be non-empty")
    targets = _check_targets(model, targets)
    _check_inputs(model, embeddings.rows)
    if len(targets) != len(embeddings):
        raise DimensionMismatch("targets and embeddings rows must align")
    row_of = embeddings.index_of()
    try:
        train_rows = np.array([row_of[i] for i in split.train], dtype=np.intp)
        val_rows = [row_of[i] for i in split.val]
    except KeyError as exc:
        raise EmptySplit(f"id {exc.args[0]!r} missing from embeddings") from exc

    T_train = targets[train_rows]
    X_val = embeddings.rows[val_rows]  # stored dtype: predict_batch upcasts one block at a time
    T_val = targets[val_rows]

    moments = [np.zeros((2, head.flat.size)) for head in model.heads]  # m and v per head
    steps = 0  # batches so far: every piece's AdamW step count

    def step(c: int, start: int, grad: np.ndarray) -> None:
        piece = slice(start, start + grad.size)
        adamw_step(model.heads[c].flat[piece], grad, *moments[c][:, piece], steps, config)

    rng = np.random.default_rng(config.seed)

    best_f1 = -np.inf  # pooled F1 is finite, so epoch 1 always improves
    best_epoch = since_best = 0
    history: list[EpochStats] = []

    with _w1_pool(model) as (pool, workers), tempfile.TemporaryFile() as snapshot:
        for epoch in range(1, config.max_epochs + 1):
            if epoch > 1 and best_epoch == epoch - 1:  # this epoch moves theta off the best
                snapshot.seek(0)
                snapshot.write(model.theta.data)  # a view: no copy of theta is made
            order = rng.permutation(len(train_rows))
            loss_sum = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                X_batch = embeddings.rows[train_rows[batch]].astype(np.float64)
                steps += 1
                with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
                    batch_loss, _ = _loss_and_grads(model, X_batch, T_train[batch], rng=rng,
                                                    apply=step, pool=pool, workers=workers)
                if not np.isfinite(batch_loss):
                    raise NonFiniteLoss(f"epoch {epoch}, batch at {start}: loss={batch_loss}")
                loss_sum += batch_loss * len(batch)

            with np.errstate(over="ignore", invalid="ignore"):  # as in the batch pass above
                val_pred, _ = predict_batch(model, X_val)
            val_f1 = pooled_f1_indices(T_val, val_pred)
            history.append(EpochStats(epoch=epoch, train_loss=loss_sum / len(order), val_f1=val_f1))

            if val_f1 > best_f1:
                best_f1 = val_f1
                best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                # patience 0 means stop at the first epoch without improvement
                if since_best >= max(config.patience, 1):
                    break

        if best_epoch < len(history):  # a later epoch moved theta off the best
            snapshot.seek(0)
            if snapshot.readinto(model.theta) != model.theta.nbytes:
                raise TruncatedFile("the best epoch's snapshot is short")

    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_f1=best_f1,
    )


def predict(model: MultiHeadModel, embeddings: EmbeddingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(N, 7) label codes and max-softmax confidences for every embedding row.

    Column c of both arrays is dimension ``DIMENSIONS[c]``; codes index
    ``LABEL_SPACE``, so :func:`taxonomy.labelsets_from_codes` turns them into
    label sets. Heads are read independently: the invalidity-reason code is
    not reconciled against the validity code, so a row may be internally
    inconsistent. The model must carry the canonical label space.

    The rows go to :func:`predict_batch` in their stored dtype, which reads
    them in row blocks, so a float32 corpus is never upcast as a whole.
    """
    if list(zip(model.category_names, model.label_space)) != canonical_label_space():
        raise SchemaMismatch("model does not carry the canonical seven dimensions")
    return predict_batch(model, embeddings.rows)


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path: Union[str, Path], model: MultiHeadModel) -> None:
    header = {
        "dim": model.dim,
        "hidden": model.hidden,
        "dropout_rate": model.dropout_rate,
        "categories": [
            {
                "name": name,
                "labels": list(labels),
                "weight": 1.0,  # kept in the format; load_model refuses any other value
                "label_weights": (
                    None if model.label_weights is None else model.label_weights[c].tolist()
                ),
            }
            for c, (name, labels) in enumerate(zip(model.category_names, model.label_space))
        ],
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<3I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
        handle.write(blob)
        model.theta.astype("<f8", copy=False).tofile(handle)


def _typed(key: str, value, *types):
    """``value`` if its JSON type is one of ``types``; a boolean is not an ``int`` here."""
    if type(value) not in types:
        raise TypeError(f"{key} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _header_fields(header: dict) -> dict:
    """``MultiHeadModel`` fields but ``theta``, read from the JSON keys in the types that
    :func:`save_model` writes; ``MultiHeadModel`` checks their values."""
    entries = header["categories"]
    if any(_typed("weight", e["weight"], int, float) != 1.0 for e in entries):
        raise ValueError("a category weight must be 1.0")
    fields = dict(
        dim=header["dim"],
        hidden=header["hidden"],
        dropout_rate=_typed("dropout_rate", header["dropout_rate"], int, float),
        category_names=tuple(_typed("name", e["name"], str) for e in entries),
        label_space=tuple(
            tuple(_typed("label", label, str) for label in _typed("labels", e["labels"], list))
            for e in entries
        ),
    )
    per_label = [e.get("label_weights") for e in entries]
    if any(w is not None for w in per_label):
        fields["label_weights"] = [
            np.array([_typed("label_weights", x, int, float)
                      for x in _typed("label_weights", w, list)], dtype=np.float64)
            for w in per_label
        ]
    return fields


def load_model(path: Union[str, Path]) -> MultiHeadModel:
    """A :func:`save_model` checkpoint; it loads only if :func:`new_model` could have built it.

    Any error building the model from the header is ``BadMagic``, as are
    non-finite parameters; a file of the wrong size is ``TruncatedFile``.
    """
    with open(path, "rb") as handle:
        fixed = handle.read(12)
        if len(fixed) < 12:
            raise TruncatedFile(f"{path}: shorter than the checkpoint header")
        magic, version, blob_len = struct.unpack("<3I", fixed)
        if magic != CHECKPOINT_MAGIC:
            raise BadMagic(f"{path}: not a model checkpoint")
        if version != CHECKPOINT_VERSION:
            raise BadMagic(f"{path}: unsupported checkpoint version {version}")
        # checked against the file size first, so a corrupt length allocates nothing
        if os.fstat(handle.fileno()).st_size < 12 + blob_len:
            raise TruncatedFile(f"{path}: header JSON is short")
        blob = handle.read(blob_len)
        try:
            fields = _header_fields(json.loads(blob.decode("utf-8")))
            size = sum(_layout(fields["dim"], fields["hidden"], fields["label_space"]))
            # checked over a zero-stride stand-in for theta, which allocates nothing
            MultiHeadModel(theta=np.broadcast_to(0.0, size), **fields)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise BadMagic(f"{path}: malformed checkpoint header: {exc!r}") from exc
        extra = os.fstat(handle.fileno()).st_size - handle.tell() - 8 * size
        if extra < 0:
            raise TruncatedFile(f"{path}: parameter block is short")
        if extra > 0:
            raise TruncatedFile(f"{path}: {extra} trailing bytes")
        theta = np.empty(size, dtype="<f8")
        # each block is checked while it is in cache; min and max both propagate NaN
        for block in np.split(theta, range(LOAD_BLOCK, size, LOAD_BLOCK)):
            if handle.readinto(block) != block.nbytes:
                raise TruncatedFile(f"{path}: parameter block is short")
            if not np.isfinite((block.min(initial=0.0), block.max(initial=0.0))).all():
                raise BadMagic(f"{path}: non-finite parameters")
    return MultiHeadModel(theta=theta, **fields)
