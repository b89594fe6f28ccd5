import errno
import hashlib
import io
import json
import math
import struct
import tempfile
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from factkit.dataio import SplitAssignment, SplitSpec, stratified_split
from factkit.embeddings import EmbeddingMatrix
from factkit.errors import (
    BadMagic,
    DimensionMismatch,
    EmptySplit,
    LabelOutOfRange,
    NonFiniteLoss,
    SchemaMismatch,
    TruncatedFile,
)
from factkit.model import (
    ADAM_BLOCK,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LOAD_BLOCK,
    MASK,
    PREDICT_BLOCK,
    AdamState,
    EpochStats,
    TrainConfig,
    adamw_step,
    backward,
    canonical_label_space,
    forward,
    inverse_frequency_label_weights,
    load_model,
    loss,
    new_model,
    predict,
    predict_batch,
    pooled_f1_indices,
    save_model,
    softmax,
    targets_from_facts,
    train,
)
from factkit.model import GRAD_BLOCK, _dropout_mask, _head_forward, _loss_and_grads, _w1_row_bounds
from factkit.taxonomy import DIMENSIONS, labelsets_from_codes

from synth import synthetic_dataset

TWO_HEADS = [("alpha", ("a0", "a1", "a2")), ("beta", ("b0", "b1"))]


def small_model(dim=2, hidden=1, seed=0, dropout=0.0, weights=None):
    """``weights`` holds one weight per head, given to each of the head's labels."""
    return new_model(
        dim,
        TWO_HEADS,
        hidden=hidden,
        dropout_rate=dropout,
        label_weights=None if weights is None else [
            [w] * len(labels) for w, (_, labels) in zip(weights, TWO_HEADS)
        ],
        seed=seed,
    )


def zeroed(model):
    for param in model.parameters():
        param[...] = 0.0
    return model


# --- forward ---


def test_forward_zero_parameters_zero_logits():
    model = zeroed(small_model(dim=3, hidden=2))
    logits = forward(model, np.array([1.0, -2.0, 0.5]))
    assert [l.tolist() for l in logits] == [[0.0, 0.0, 0.0], [0.0, 0.0]]


def test_forward_manual_oracle():
    model = small_model(dim=2, hidden=1)
    head = model.heads[0]
    head.W1[...] = np.array([[0.5, -1.0]])
    head.b1[...] = np.array([0.25])
    head.W2[...] = np.array([[2.0], [-1.0], [0.5]])
    head.b2[...] = np.array([0.1, 0.2, 0.3])
    h = np.array([1.0, 0.5])
    # by hand: a = 0.5*1 - 1*0.5 + 0.25 = 0.25; t = tanh(0.25)
    t = math.tanh(0.25)
    expected = [2.0 * t + 0.1, -1.0 * t + 0.2, 0.5 * t + 0.3]
    logits = forward(model, h)
    assert np.allclose(logits[0], expected, atol=1e-12)


def test_forward_eval_mode_deterministic():
    model = small_model(dim=4, hidden=3, seed=5, dropout=0.5)
    h = np.arange(4, dtype=float)
    a = forward(model, h)
    b = forward(model, h)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_forward_dimension_mismatch():
    model = small_model(dim=3)
    with pytest.raises(DimensionMismatch):
        forward(model, np.zeros(4))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda model: replace(model, theta=model.theta[:-1]), "theta must hold"),
        (lambda model: forward(model, np.ones(2), train_mode=True), "train-mode dropout needs an RNG"),
        (lambda model: backward(model, np.ones(2), np.zeros(3)), "targets have 3 categories"),
        (lambda model: loss(model, [np.zeros(3), np.zeros(3)], np.zeros(2)), "logits have width 3"),
        (lambda model: adamw_step(AdamState.zeros_like(model.theta), model.theta,
                                  model.theta[:-1], TrainConfig()), "must have one shape"),
    ],
    ids=["theta-size", "dropout-without-rng", "backward-target-width", "loss-logit-width",
         "adamw-shapes"],
)
def test_model_refuses_mismatched_inputs(call, message):
    model = small_model(dropout=0.5)
    with pytest.raises((DimensionMismatch, ValueError), match=message):
        call(model)


def test_forward_train_mode_dropout_changes_logits():
    model = small_model(dim=16, hidden=8, seed=1, dropout=0.5)
    h = np.ones(16)
    rng = np.random.default_rng(0)
    noisy = forward(model, h, train_mode=True, rng=rng)
    clean = forward(model, h)
    assert not all(np.allclose(a, b) for a, b in zip(noisy, clean))


def expression_head_forward(head, X, rate, rng):
    """``_head_forward`` written as expressions, one fresh array per operation."""
    m1 = _dropout_mask(rng, X.shape, rate)
    z = X if m1 is None else X * m1
    t = np.tanh(z @ head.W1.T + head.b1)
    m2 = _dropout_mask(rng, t.shape, rate)
    u = t if m2 is None else t * m2
    return u @ head.W2.T + head.b2, (z, t, u, m2)


@pytest.mark.parametrize(
    "rows, rate", [(800, 0.0), (800, 0.2), (1, 0.0)], ids=["eval", "train-dropout", "one-row"]
)
def test_head_forward_in_place_matches_the_expressions_bitwise(rows, rate):
    model = new_model(96, TWO_HEADS, hidden=80, dropout_rate=rate, seed=3)
    X = np.random.default_rng(4).normal(size=(rows, 96))
    for head in model.heads:
        rng = None if rate == 0.0 else np.random.default_rng(5)
        reference = None if rate == 0.0 else np.random.default_rng(5)
        logits, cache = _head_forward(head, X, rate, rng)
        want_logits, want_cache = expression_head_forward(head, X, rate, reference)
        assert logits.tobytes() == want_logits.tobytes()
        for got, want in zip(cache, want_cache):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()


# --- loss ---


def test_loss_all_masked_is_zero():
    model = small_model()
    logits = forward(model, np.zeros(2))
    assert loss(model, logits, np.array([MASK, MASK])) == 0.0


def test_loss_uniform_logits_ln4():
    model = new_model(2, [("quad", ("q0", "q1", "q2", "q3"))], hidden=1, seed=0)
    value = loss(model, [np.zeros(4)], np.array([2]))
    assert value == pytest.approx(math.log(4.0), abs=1e-12)


def test_loss_two_heads_hand_computed():
    model = small_model(weights=(2.0, 1.0))
    l_a = np.array([1.0, 0.0, -1.0])
    l_b = np.array([0.5, -0.5])
    target = np.array([0, 1])
    # scalar oracle
    ce_a = -(l_a[0] - math.log(sum(math.exp(v) for v in l_a)))
    ce_b = -(l_b[1] - math.log(sum(math.exp(v) for v in l_b)))
    expected = (2.0 * ce_a + 1.0 * ce_b) / 2.0
    assert loss(model, [l_a, l_b], target) == pytest.approx(expected, abs=1e-12)


def test_loss_unweighted_mean_when_all_unmasked():
    model = small_model(weights=(1.0, 1.0))
    l_a = np.array([0.3, -0.2, 1.1])
    l_b = np.array([-0.4, 0.9])
    target = np.array([1, 0])
    ce_a = -(l_a[1] - math.log(np.exp(l_a).sum()))
    ce_b = -(l_b[0] - math.log(np.exp(l_b).sum()))
    assert loss(model, [l_a, l_b], target) == pytest.approx((ce_a + ce_b) / 2, abs=1e-12)


def test_loss_shift_invariance():
    model = small_model()
    l_a = np.array([0.1, 0.2, 0.3])
    l_b = np.array([1.0, -1.0])
    base = loss(model, [l_a, l_b], np.array([1, 0]))
    shifted = loss(model, [l_a + 100.0, l_b], np.array([1, 0]))
    assert shifted == pytest.approx(base, abs=1e-9)


def test_loss_label_out_of_range():
    model = small_model()
    logits = forward(model, np.zeros(2))
    with pytest.raises(LabelOutOfRange):
        loss(model, logits, np.array([3, 0]))
    with pytest.raises(LabelOutOfRange):
        loss(model, logits, np.array([-2, 0]))


# --- gradients ---


def finite_difference_grads(model, h, target, step=1e-5):
    grads = []
    for param in model.parameters():
        grad = np.zeros_like(param)
        flat = param.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss(model, forward(model, h), target)
            flat[i] = original - step
            down = loss(model, forward(model, h), target)
            flat[i] = original
            grad.ravel()[i] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(1e-3, np.maximum(np.abs(a), np.abs(b)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(5):
        model = new_model(
            8,
            [("c1", ("x", "y", "z")), ("c2", ("p", "q"))],
            hidden=4,
            dropout_rate=0.0,
            seed=trial,
        )
        h = rng.normal(size=8)
        target = np.array([rng.integers(0, 3), rng.integers(0, 2)])
        analytic = backward(model, h, target)
        numeric = finite_difference_grads(model, h, target)
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n).max() < 1e-5


def test_masked_category_gradient_exactly_zero():
    model = small_model(dim=4, hidden=2, seed=3)
    h = np.array([0.2, -0.4, 1.0, 0.3])
    grads = backward(model, h, np.array([MASK, 1]))
    # first head fully masked: all four of its gradient arrays are zero
    for grad in grads[:4]:
        assert np.all(grad == 0.0)
    assert any(np.any(g != 0.0) for g in grads[4:])


def test_gradient_into_a_dirty_buffer_is_bitwise_the_fresh_one():
    # the block and tail buffers still hold head 0's gradient when head 1 is written;
    # no row leaves head 1 unmasked, so its pieces must be zeroed, not skipped
    model = small_model(dim=4, hidden=3, seed=5, dropout=0.2)
    assert model.heads[1].flat.size < model.heads[0].flat.size
    X = np.random.default_rng(2).normal(size=(6, 4))
    targets = np.column_stack([[0, 1, 2, 0, 1, 2], np.full(6, MASK)])
    seen = []
    loss, none = _loss_and_grads(model, X, targets, True, np.random.default_rng(3),
                                 apply=lambda c, start, piece: seen.append((c, start, piece.copy())))
    assert none is None
    # one W1 block of 3 rows, then the tail (b1, W2, b2), per head
    assert [(c, start, piece.size) for c, start, piece in seen] == [
        (0, 0, 12), (0, 12, model.heads[0].flat.size - 12),
        (1, 0, 12), (1, 12, model.heads[1].flat.size - 12),
    ]
    assert np.all(seen[0][2] != 0.0) and np.all(seen[1][2][: seen[3][2].size] != 0.0)
    assert not np.any(seen[2][2]) and not np.any(seen[3][2])
    loss_again, fresh = _loss_and_grads(model, X, targets, True, np.random.default_rng(3))
    assert loss_again == loss
    assert fresh.tobytes() == np.concatenate([piece for _, _, piece in seen]).tobytes()


def two_pass_loss_and_grads(model, X, targets, rng, category_weights, label_weights):
    """The loss and gradient as first written: every head forward, then the loss, then the gradient.

    Each head's cross-entropy is scaled by ``category_weights[c]`` times the gold label's
    weight in ``label_weights``, two factors multiplied apart; ``model``'s own label weights
    are not read.
    """
    rate = model.dropout_rate
    caches = [_head_forward(head, X, rate, rng) for head in model.heads]

    def log_softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def gold_weights(c, rows):
        return np.full(rows.size, category_weights[c]) * label_weights[c][targets[rows, c]]

    valid = targets >= 0
    valid_counts = valid.sum(axis=1).astype(np.float64)
    contrib = np.zeros(len(X))
    for c, (logits, _) in enumerate(caches):
        rows = np.flatnonzero(valid[:, c])
        if rows.size == 0:
            continue
        ce = -log_softmax(logits[rows])[np.arange(rows.size), targets[rows, c]]
        contrib[rows] += gold_weights(c, rows) * ce
    per_example = np.where(valid_counts > 0, contrib / np.maximum(valid_counts, 1.0), 0.0)

    grad = np.zeros_like(model.theta)
    scale_rows = np.where(valid_counts > 0, 1.0 / np.maximum(valid_counts, 1.0), 0.0) / len(X)
    for c, (head, slots) in enumerate(zip(model.heads, replace(model, theta=grad).heads)):
        rows = np.flatnonzero(valid[:, c])
        if rows.size == 0:
            continue
        logits, (z, t, u, m2) = caches[c]
        probs = np.exp(log_softmax(logits[rows]))
        probs[np.arange(rows.size), targets[rows, c]] -= 1.0
        G = probs * (gold_weights(c, rows) * scale_rows[rows])[:, None]
        np.matmul(G.T, u[rows], out=slots.W2)
        np.sum(G, axis=0, out=slots.b2)
        dU = G @ head.W2
        if m2 is not None:
            dU = dU * m2[rows]
        dA = dU * (1.0 - t[rows] ** 2)
        np.matmul(dA.T, z[rows], out=slots.W1)
        np.sum(dA, axis=0, out=slots.b1)
    return float(per_example.mean()), grad


@pytest.mark.parametrize("batch", [1, 33])
@pytest.mark.parametrize("seed", range(3))
def test_one_pass_loss_and_grads_match_the_two_pass_reference_bitwise(batch, seed):
    rng = np.random.default_rng([seed, batch])
    space = canonical_label_space()
    label_weights = [rng.uniform(0.5, 2.0, size=len(labels)) for _, labels in space]
    category_weights = rng.uniform(0.5, 2.0, size=len(space))
    # each category weight folded into its labels' weights: the reference multiplies them apart
    folded = [w_c * w for w_c, w in zip(category_weights, label_weights)]
    model = new_model(16, space, hidden=8, dropout_rate=0.2, label_weights=folded, seed=seed)
    X = rng.normal(size=(batch, 16))
    targets = np.column_stack([rng.integers(MASK, len(labels), size=batch) for _, labels in space])
    targets[:, 2] = MASK  # one head fully masked: its masks are still drawn
    expected = two_pass_loss_and_grads(
        model, X, targets, np.random.default_rng(seed), category_weights, label_weights
    )
    got = _loss_and_grads(model, X, targets, True, np.random.default_rng(seed))
    assert got[0] == expected[0]
    assert got[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("hidden", [1024, 1025, 257])
@pytest.mark.parametrize("batch", [1, 2, 3, 24, 64])
def test_w1_gradient_in_blocks_is_bitwise_the_whole_product(batch, hidden):
    # the reference writes W1's gradient as one np.matmul(dA.T, z[rows]); the blocks must
    # give its bits, so none may be a one-row product (GEMV) and none may pass GRAD_BLOCK
    bounds = _w1_row_bounds(1024, hidden)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == hidden and len(sizes) > 1
    assert sizes.min() >= 2 and sizes.max() - sizes.min() <= 1 and sizes.max() * 1024 <= GRAD_BLOCK
    rng = np.random.default_rng([batch, hidden])
    model = new_model(1024, TWO_HEADS, hidden=hidden, dropout_rate=0.2, seed=batch)
    X = rng.normal(size=(batch, 1024))
    targets = np.column_stack([rng.integers(0, len(labels), size=batch) for _, labels in TWO_HEADS])
    ones = [np.ones(len(labels)) for _, labels in TWO_HEADS]
    expected = two_pass_loss_and_grads(model, X, targets, np.random.default_rng(7), [1.0, 1.0], ones)
    got = _loss_and_grads(model, X, targets, True, np.random.default_rng(7))
    assert got[0] == expected[0]
    assert got[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("dim, hidden, expected", [
    (4, 1, [0, 1]), (4, 3, [0, 3]), (1024, 1024, [0, 256, 512, 768, 1024]),
    (GRAD_BLOCK, 5, [0, 2, 5]), (GRAD_BLOCK // 2 + 1, 4, [0, 2, 4]),
])
def test_w1_row_bounds_split_near_equal_and_never_one_row(dim, hidden, expected):
    assert _w1_row_bounds(dim, hidden) == expected


def test_weight_doubling_scales_gradient():
    base = small_model(dim=3, hidden=2, seed=9, weights=(1.0, 1.0))
    doubled = small_model(dim=3, hidden=2, seed=9, weights=(2.0, 1.0))
    h = np.array([0.5, -0.1, 0.8])
    target = np.array([2, 0])
    g_base = backward(base, h, target)
    g_doubled = backward(doubled, h, target)
    for a, b in zip(g_base[:4], g_doubled[:4]):
        assert np.allclose(2.0 * a, b, atol=1e-12)
    for a, b in zip(g_base[4:], g_doubled[4:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dim, hidden", [(4, 0), (4, -1), (0, None), (0, 3)])
def test_new_model_rejects_nonpositive_sizes(dim, hidden):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dim and hidden must be >= 1"):
            new_model(dim, canonical_label_space(), hidden=hidden)


def test_masking_invariance_bitwise():
    base = new_model(6, TWO_HEADS, hidden=3, dropout_rate=0.0, seed=11)
    extended = new_model(
        6, TWO_HEADS + [("extra", ("e0", "e1", "e2", "e3"))], hidden=3, dropout_rate=0.0, seed=11
    )
    # align shared-head parameters bitwise
    for dst, src in zip(extended.heads[:2], base.heads):
        for d_arr, s_arr in zip(dst.arrays(), src.arrays()):
            d_arr[...] = s_arr
    X = np.random.default_rng(1).normal(size=(5, 6))
    targets = np.array([[0, 1], [2, 0], [1, 1], [0, 0], [2, 1]])
    extended_targets = np.hstack([targets, np.full((5, 1), MASK)])
    loss_base, grads_base = _loss_and_grads(base, X, targets)
    loss_ext, grads_ext = _loss_and_grads(extended, X, extended_targets)
    assert loss_base == loss_ext  # bitwise
    assert np.array_equal(grads_base, grads_ext[: base.theta.size])
    assert np.all(grads_ext[base.theta.size :] == 0.0)


# --- softmax / predict helpers ---


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(10, 5)) * 10
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_predict_argmax_and_confidence():
    model = zeroed(small_model(dim=2, hidden=1))
    # force logits via bias so eval forward returns them
    model.heads[0].b2[...] = np.array([2.0, 1.0, 1.0])
    indices, confidence = predict_batch(model, np.zeros((1, 2)))
    assert indices[0, 0] == 0
    expected = math.exp(2.0) / (math.exp(2.0) + 2 * math.exp(1.0))
    assert confidence[0, 0] == pytest.approx(expected, abs=1e-9)
    assert confidence[0, 0] == pytest.approx(0.576, abs=5e-4)


def test_predict_tie_breaks_low_index():
    model = zeroed(small_model())
    indices, confidence = predict_batch(model, np.zeros((1, 2)))
    assert indices[0, 1] == 0
    assert confidence[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_predict_uniform_confidence():
    model = zeroed(small_model())
    _, confidence = predict_batch(model, np.zeros((1, 2)))
    assert confidence[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_predict_requires_canonical_space():
    model = small_model()
    emb = EmbeddingMatrix(rows=np.zeros((1, 2)), row_ids=("a",))
    with pytest.raises(SchemaMismatch):
        predict(model, emb)


def test_predict_labelsets_unreconciled():
    model = zeroed(new_model(4, canonical_label_space(), hidden=2, seed=0))
    # bias the validity head to "Valid" but the reason head to "Opinion"
    validity_head = list(d.value for d in DIMENSIONS).index("validity")
    reason_head = list(d.value for d in DIMENSIONS).index("invalidity_reason")
    model.heads[validity_head].b2[...] = np.array([5.0, 0.0])
    model.heads[reason_head].b2[...] = np.array([0.0, 5.0, 0.0, 0.0, 0.0, 0.0])
    emb = EmbeddingMatrix(rows=np.zeros((1, 4)), row_ids=("a",))
    codes, conf = predict(model, emb)
    [labels] = labelsets_from_codes(codes)
    assert labels.validity == "Valid"
    assert labels.invalidity_reason == "Opinion"  # left unreconciled
    assert conf.shape == (1, len(DIMENSIONS))


@pytest.mark.parametrize("n", [1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 2 * PREDICT_BLOCK + 1])
def test_predict_blocks_match_one_unblocked_pass_bitwise(n):
    model = new_model(64, canonical_label_space(), hidden=32, seed=n)
    rows = np.random.default_rng(n).normal(size=(n, 64)).astype(np.float32)
    logits = [_head_forward(head, rows.astype(np.float64), 0.0, None)[0] for head in model.heads]
    indices = np.stack([l.argmax(axis=1) for l in logits], axis=1)
    confidences = np.stack([softmax(l).max(axis=1) for l in logits], axis=1)
    for got_indices, got_confidences in (
        predict_batch(model, rows),
        predict(model, EmbeddingMatrix(rows=rows, row_ids=tuple(map(str, range(n))))),
    ):
        assert np.array_equal(got_indices, indices)
        assert np.array_equal(got_confidences, confidences)


def test_predict_batch_memory_is_bounded_by_one_block():
    # at hidden = dim, a head's tanh activations are the size of the block's
    # float64 copy; the two are alive at once, but no earlier head's activations
    model = new_model(256, canonical_label_space(), hidden=256, seed=0)
    rows = np.random.default_rng(0).standard_normal((PREDICT_BLOCK, 256), dtype=np.float32)
    block_bytes = rows.size * 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        predict_batch(model, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = (peak - start) / block_bytes
    assert ratio < 2.5, f"peak {ratio:.2f} x one float64 block"


# --- AdamW ---


def test_adamw_zero_gradient_fixed_point():
    theta = np.array([1.0, -2.0])
    state = AdamState.zeros_like(theta)
    config = TrainConfig(learning_rate=0.01, weight_decay=0.0)
    adamw_step(state, theta, np.zeros(2), config)
    assert theta.tolist() == [1.0, -2.0]


def test_adamw_first_step_hand_computed():
    theta = np.array([1.0])
    state = AdamState.zeros_like(theta)
    config = TrainConfig(learning_rate=0.01)
    adamw_step(state, theta, np.array([1.0]), config)
    # bias-corrected m_hat = v_hat = 1, so the step is lr/(1+eps)
    assert theta[0] == pytest.approx(1.0 - 0.01 / (1.0 + 1e-8), abs=1e-12)
    assert theta[0] == pytest.approx(0.99, abs=1e-9)


def test_adamw_pure_decay():
    theta = np.array([1.0])
    state = AdamState.zeros_like(theta)
    config = TrainConfig(learning_rate=0.01, weight_decay=0.1)
    adamw_step(state, theta, np.zeros(1), config)
    assert theta[0] == pytest.approx(1.0 * (1.0 - 0.001), abs=1e-15)


def test_adamw_decay_is_decoupled():
    # two steps with pure decay: multiplicative, independent of moments
    theta = np.array([2.0])
    state = AdamState.zeros_like(theta)
    config = TrainConfig(learning_rate=0.5, weight_decay=0.01)
    adamw_step(state, theta, np.zeros(1), config)
    adamw_step(state, theta, np.zeros(1), config)
    assert theta[0] == pytest.approx(2.0 * (1 - 0.005) ** 2, abs=1e-12)


def test_adamw_step_temporaries_are_block_sized():
    theta = np.random.default_rng(0).normal(size=1_000_003)
    grad = np.ones_like(theta)
    state = AdamState.zeros_like(theta)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        adamw_step(state, theta, grad, TrainConfig(weight_decay=0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < theta.nbytes / 4


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for bad in ({"learning_rate": math.nan}, {"weight_decay": math.inf}, {"learning_rate": -1.0}):
        with pytest.raises(ValueError, match="learning rate and weight decay"):
            TrainConfig(**bad)


# --- training loop ---


def tiny_task(n=20, seed=0):
    """Linearly separable single-category task with d=4."""
    rng = np.random.default_rng(seed)
    labels = np.array([i % 2 for i in range(n)])
    rows = rng.normal(0, 0.05, size=(n, 4))
    rows[labels == 0, 0] += 1.0
    rows[labels == 1, 1] += 1.0
    ids = tuple(f"t{i}" for i in range(n))
    emb = EmbeddingMatrix(rows=rows, row_ids=ids)
    targets = labels[:, None]
    split = SplitAssignment(train=ids[:14], val=ids[14:17], test=ids[17:])
    return emb, targets, split


def test_train_zero_learning_rate_is_noop():
    emb, targets, split = tiny_task()
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    before = [p.copy() for p in model.parameters()]
    config = TrainConfig(learning_rate=0.0, batch_size=4, max_epochs=3, patience=10, seed=2)
    result = train(model, emb, targets, split, config)
    for p_before, p_after in zip(before, result.model.parameters()):
        assert np.array_equal(p_before, p_after)
    losses = [h.train_loss for h in result.history]
    assert max(losses) - min(losses) < 1e-12


def test_train_separable_task_learns():
    emb, targets, split = tiny_task()
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=8, patience=8, seed=2)
    result = train(model, emb, targets, split, config)
    losses = [h.train_loss for h in result.history[:5]]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    train_rows = emb.take(split.train)
    pred, _ = predict_batch(result.model, train_rows)
    gold = targets[[emb.index_of()[i] for i in split.train]]
    assert np.array_equal(pred, gold)


def test_train_deterministic():
    emb, targets, split = tiny_task()
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=4, patience=4, seed=3)
    results = []
    for _ in range(2):
        model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.1, seed=1)
        results.append(train(model, emb, targets, split, config))
    assert results[0].history == results[1].history
    for a, b in zip(results[0].model.parameters(), results[1].model.parameters()):
        assert np.array_equal(a, b)


def test_train_leaves_the_best_epoch_in_the_model_it_returns():
    emb, targets, split = tiny_task()
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=10, patience=2, seed=2)
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    theta = model.theta
    result = train(model, emb, targets, split, config)
    assert result.model is model and model.theta is theta
    assert all(np.shares_memory(a, theta) for a in model.parameters())
    # patience ran out after the best epoch, so later steps moved theta past it
    assert result.history[-1].epoch > result.best_epoch
    # the same run stopped at the best epoch leaves that epoch's parameters in model
    again = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    train(again, emb, targets, split, replace(config, max_epochs=result.best_epoch))
    assert model.theta.tobytes() == again.theta.tobytes()


def test_train_golden_digest_across_adamw_blocks():
    # theta spans three full AdamW blocks and a partial one; the gamma head is
    # masked in most rows, so some batches give it no gradient at all
    rng = np.random.default_rng(5)
    ids = tuple(f"g{i:02d}" for i in range(64))
    rows = rng.normal(size=(64, 300))
    gamma = np.where(rng.random(64) < 0.1, rng.integers(0, 4, 64), MASK)
    targets = np.column_stack([rows[:, :3].argmax(axis=1), rows[:, 3] > 0, gamma])
    split = SplitAssignment(train=ids[:40], val=ids[40:56], test=ids[56:])
    space = TWO_HEADS + [("gamma", ("c0", "c1", "c2", "c3"))]
    model = new_model(300, space, hidden=250, dropout_rate=0.2, seed=6)
    assert model.theta.size > 3 * ADAM_BLOCK and model.theta.size % ADAM_BLOCK
    config = TrainConfig(
        learning_rate=0.01, batch_size=8, max_epochs=3, patience=3, seed=7, weight_decay=0.01
    )
    result = train(model, EmbeddingMatrix(rows=rows, row_ids=ids), targets, split, config)
    assert result.best_epoch == 3  # the digest covers every step
    assert hashlib.sha256(result.model.theta.tobytes()).hexdigest() == (
        "86f2d090c288487719e5f77da3398a45aa736c7092daf428fdf7f3d06dbc7737"
    )


def whole_gradient_train(model, embeddings, targets, split, config):
    """``train`` with a whole-model gradient vector and one ``adamw_step`` per batch.

    Returns a copy of the best epoch's parameters, the history and the best
    epoch; ``model.theta`` holds the last step's parameters afterwards.
    """
    row_of = embeddings.index_of()
    train_rows = [row_of[i] for i in split.train]
    val_rows = [row_of[i] for i in split.val]
    X_train, T_train = embeddings.rows[train_rows].astype(np.float64), targets[train_rows]
    X_val, T_val = embeddings.rows[val_rows].astype(np.float64), targets[val_rows]
    state = AdamState.zeros_like(model.theta)
    best_theta = np.empty_like(model.theta)
    rng = np.random.default_rng(config.seed)
    best_f1, best_epoch, since_best, history = -np.inf, 0, 0, []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_rows))
        seen, loss_sum = 0, 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_loss, grad = _loss_and_grads(
                model, X_train[batch], T_train[batch], train_mode=True, rng=rng
            )
            adamw_step(state, model.theta, grad, config)
            loss_sum += batch_loss * len(batch)
            seen += len(batch)
        val_f1 = pooled_f1_indices(T_val, predict_batch(model, X_val)[0])
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / seen, val_f1=val_f1))
        if val_f1 > best_f1:
            np.copyto(best_theta, model.theta)
            best_f1, best_epoch, since_best = val_f1, epoch, 0
        else:
            since_best += 1
            if since_best >= max(config.patience, 1):
                break
    return best_theta, history, best_epoch


@pytest.mark.parametrize(
    "dropout, weight_decay, batch_size, patience",
    [(0.2, 0.01, 7, 5), (0.0, 0.0, 16, 0), (0.3, 0.05, 1, 2)],
)
def test_per_head_steps_match_one_step_over_the_whole_gradient_bitwise(
    dropout, weight_decay, batch_size, patience
):
    # seven heads at d = 128, hidden = 96: theta crosses one ADAM_BLOCK boundary
    # inside a head, so the per-head blocks start where the whole-vector ones do not
    rng = np.random.default_rng([batch_size, patience])
    space = canonical_label_space()
    ids = tuple(f"b{i:02d}" for i in range(60))
    rows = rng.normal(size=(60, 128))
    targets = np.column_stack(
        [rows[:, c : c + len(labels)].argmax(axis=1) for c, (_, labels) in enumerate(space)]
    )
    targets[rng.random(60) < 0.3, 1] = MASK
    targets[rng.random(60) < 0.9, 4] = MASK  # some batches give this head no row
    targets[:, 6] = MASK  # and every batch gives this one none
    # batch sizes 7 and 16 leave a short last batch of the 45 training rows
    split = SplitAssignment(train=ids[:45], val=ids[45:55], test=ids[55:])
    label_weights = inverse_frequency_label_weights(targets[:45], space)

    def fresh():
        return new_model(128, space, hidden=96, dropout_rate=dropout,
                         label_weights=label_weights, seed=3)

    model = fresh()
    assert ADAM_BLOCK < model.theta.size < 2 * ADAM_BLOCK
    config = TrainConfig(learning_rate=0.02, batch_size=batch_size, max_epochs=6,
                         patience=patience, seed=4, weight_decay=weight_decay)
    emb = EmbeddingMatrix(rows=rows, row_ids=ids)
    result = train(model, emb, targets, split, config)
    reference = fresh()
    best_theta, history, best_epoch = whole_gradient_train(reference, emb, targets, split, config)
    assert result.history == history
    assert result.best_epoch == best_epoch
    assert result.model is model
    assert model.theta.tobytes() == best_theta.tobytes()


def test_train_memory_holds_three_parameter_vectors_and_one_head():
    # seven heads at d = hidden = 256; beside theta, training keeps two AdamW
    # moments (2 x theta), one W1 gradient block (here all of a head's W1, under
    # 1/7 of theta) and a tail, AdamW's two 512 KB scratch blocks and the batch's
    # activations; the best epoch waits in a temporary file and is read back into
    # theta itself
    facts, emb = synthetic_dataset(n_facts=120, invalid_count=40)
    noise = np.random.default_rng(0).normal(0.0, 0.02, size=(len(facts), 256 - emb.dim))
    emb = EmbeddingMatrix(np.hstack([emb.rows, noise]), emb.row_ids)
    space = canonical_label_space()
    targets = targets_from_facts(facts, space)
    ids = emb.row_ids
    split = SplitAssignment(train=ids[:90], val=ids[90:110], test=ids[110:])
    model = new_model(256, space, dropout_rate=0.1, seed=1)
    config = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=2, patience=2, seed=1)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        train(model, emb, targets, split, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = (peak - start) / model.theta.nbytes
    assert ratio < 2.75, f"peak {ratio:.2f} x theta"


@pytest.mark.parametrize("learning_rate", [0.05, 1e308], ids=["trained", "non-finite-loss"])
def test_train_closes_its_snapshot_file_and_leaves_no_file(tmp_path, monkeypatch, learning_rate):
    opened = []

    def spy(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    real = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    emb, targets, split = tiny_task()
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    config = TrainConfig(learning_rate=learning_rate, batch_size=4, max_epochs=3, seed=2)
    if learning_rate == 1e308:
        with pytest.raises(NonFiniteLoss), np.errstate(over="ignore", invalid="ignore"):
            train(model, emb, targets, split, config)
    else:
        train(model, emb, targets, split, config)
    assert len(opened) == 1 and opened[0].closed
    assert list(tmp_path.iterdir()) == []


def test_train_refuses_a_short_snapshot(monkeypatch):
    class ShortFile(io.BytesIO):
        def readinto(self, buffer):
            return super().readinto(memoryview(buffer).cast("B")[:-1])

    monkeypatch.setattr(tempfile, "TemporaryFile", ShortFile)
    emb, targets, split = tiny_task()
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    # at learning rate 0 epoch 2 cannot improve on epoch 1, so the read-back runs
    config = TrainConfig(learning_rate=0.0, batch_size=4, max_epochs=2, seed=2)
    with pytest.raises(TruncatedFile, match="snapshot is short"):
        train(model, emb, targets, split, config)


REAL_TEMPORARY_FILE = tempfile.TemporaryFile


class CountedFile:
    """A ``tempfile.TemporaryFile`` that counts the writes and reads made through it."""

    def __init__(self):
        self.file = REAL_TEMPORARY_FILE()
        self.writes = self.reads = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def seek(self, offset):
        return self.file.seek(offset)

    def write(self, data):
        self.writes += 1
        return self.file.write(data)

    def readinto(self, buffer):
        self.reads += 1
        return self.file.readinto(buffer)


@pytest.mark.parametrize(
    "changes, best_epoch, writes, reads",
    [
        ({"max_epochs": 2}, 2, 1, 0),  # perfbench fit's shape: epochs 1 and 2 both improve
        ({"max_epochs": 1}, 1, 0, 0),
        ({"learning_rate": 0.0, "patience": 1}, 1, 1, 1),  # epoch 2 cannot improve on epoch 1
        ({"seed": 3, "patience": 1}, 1, 1, 1),  # epoch 2 scores worse than epoch 1
    ],
    ids=["two-improving-epochs", "one-epoch", "learning-rate-0", "worse-epoch-2"],
)
def test_train_writes_the_best_epoch_only_before_a_later_epoch_moves_it(
    monkeypatch, changes, best_epoch, writes, reads
):
    opened = []
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda: opened.append(CountedFile()) or opened[-1])
    facts, emb = synthetic_dataset(n_facts=120, invalid_count=40)
    space = canonical_label_space()
    targets = targets_from_facts(facts, space)
    ids = emb.row_ids
    split = SplitAssignment(train=ids[:90], val=ids[90:110], test=ids[110:])
    config = replace(
        TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=4, patience=2, seed=1), **changes
    )
    model = new_model(emb.dim, space, hidden=16, seed=config.seed)
    result = train(model, emb, targets, split, config)
    assert result.best_epoch == best_epoch
    assert (opened[0].writes, opened[0].reads) == (writes, reads)
    # the parameters are those of the same run stopped at the best epoch
    again = new_model(emb.dim, space, hidden=16, seed=config.seed)
    train(again, emb, targets, split, replace(config, max_epochs=result.best_epoch))
    assert model.theta.tobytes() == again.theta.tobytes()


def test_train_snapshot_write_failure_raises_and_closes_the_file(monkeypatch):
    class FullDisk(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    opened = []
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: opened.append(FullDisk()) or opened[-1])
    emb, targets, split = tiny_task()
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    with pytest.raises(OSError) as excinfo:
        train(model, emb, targets, split, TrainConfig(batch_size=4, max_epochs=2, seed=2))
    assert excinfo.value.errno == errno.ENOSPC
    assert opened[0].closed


def test_train_empty_split():
    emb, targets, split = tiny_task()
    bad = SplitAssignment(train=(), val=("t0",), test=())
    model = new_model(4, [("pair", ("n", "y"))], seed=0)
    with pytest.raises(EmptySplit):
        train(model, emb, targets, bad, TrainConfig())
    with pytest.raises(EmptySplit, match="'zzz' missing from embeddings"):
        train(model, emb, targets, replace(split, val=("zzz",)), TrainConfig())
    with pytest.raises(DimensionMismatch, match="must align"):
        train(model, emb, targets[:-1], split, TrainConfig())


def test_train_early_stopping_respects_patience():
    emb, targets, split = tiny_task()
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=10, patience=2, seed=2)
    result = train(model, emb, targets, split, config)
    # perfect val F1 is reached early; two non-improving epochs then stop
    assert result.history[-1].epoch <= result.best_epoch + 2


def test_pooled_f1_indices_skips_masked():
    gold = np.array([[0, MASK], [1, MASK]])
    pred = np.array([[0, 1], [1, 0]])
    assert pooled_f1_indices(gold, pred) == 1.0


# --- checkpoints ---


def test_checkpoint_roundtrip(tmp_path):
    model = new_model(6, canonical_label_space(), hidden=5, dropout_rate=0.2, seed=8)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.dim == 6 and loaded.hidden == 5
    assert loaded.dropout_rate == 0.2
    assert loaded.category_names == model.category_names
    assert loaded.label_space == model.label_space
    for a, b in zip(loaded.parameters(), model.parameters()):
        assert np.array_equal(a, b)
    # in place and on BLAS: an unaligned or read-only theta would force copies
    assert loaded.theta.flags.writeable and loaded.theta.flags.aligned
    assert all(np.shares_memory(a, loaded.theta) for a in loaded.parameters())


def test_checkpoint_golden_bytes(tmp_path):
    """Pins the init draw order and the byte layout (digest from the per-head code)."""
    label_weights = [
        [1.0 + 0.25 * i for i in range(len(labels))] for _, labels in canonical_label_space()
    ]
    model = new_model(
        6, canonical_label_space(), hidden=5, dropout_rate=0.2, label_weights=label_weights, seed=8
    )
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "41cdf8814395b4b9f50a9cf811df1a58778899a8a66bb3ff3c14c4cccb8e42ce"
    )


def test_heads_are_views_of_theta():
    model = small_model(dim=3, hidden=2, seed=4)
    params = model.parameters()
    assert all(np.shares_memory(a, model.theta) for a in params)
    assert sum(a.size for a in params) == model.theta.size
    # an in-place AdamW step on theta moves the head arrays
    before = [a.copy() for a in params]
    grad = np.ones_like(model.theta)
    adamw_step(AdamState.zeros_like(model.theta), model.theta, grad, TrainConfig(learning_rate=0.1))
    assert all(np.allclose(a, b - 0.1) for a, b in zip(params, before))


def test_copy_shares_no_memory():
    model = new_model(3, TWO_HEADS, hidden=2, label_weights=[(1.0, 2.0, 3.0), (0.5, 4.0)], seed=1)
    clone = model.copy()
    assert np.array_equal(clone.theta, model.theta)
    for a, b in [
        (clone.theta, model.theta),
        *zip(clone.label_weights, model.label_weights),
    ]:
        assert not np.shares_memory(a, b)
    assert all(np.shares_memory(a, clone.theta) for a in clone.parameters())
    clone.heads[0].W1[...] = 7.0
    assert not np.any(model.heads[0].W1 == 7.0)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda data: data[:5], id="fixed-header"),
        pytest.param(lambda data: data[:15], id="header-json"),
        pytest.param(lambda data: data[:-8], id="param-block"),
        pytest.param(lambda data: data[:-1], id="param-block-one-byte"),
        pytest.param(lambda data: data + b"\x00", id="trailing-byte"),
    ],
)
def test_checkpoint_truncation_detected(tmp_path, edit):
    model = new_model(3, TWO_HEADS, hidden=2, seed=0)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(TruncatedFile):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, -1])
def test_checkpoint_with_non_finite_parameters_is_bad_magic(tmp_path, value, at):
    model = new_model(3, TWO_HEADS, hidden=2, seed=0)
    model.theta[at] = value
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    with pytest.raises(BadMagic, match="non-finite parameters"):
        load_model(path)


def _multi_block_model():
    model = new_model(1000, canonical_label_space(), hidden=64, seed=3)
    assert 3 * LOAD_BLOCK < model.theta.size < 4 * LOAD_BLOCK  # the last of four blocks is partial
    return model


@pytest.mark.parametrize("block", ["first", "middle", "last"])
def test_non_finite_parameter_in_any_load_block_is_bad_magic(tmp_path, block):
    model = _multi_block_model()
    at = {"first": 0, "middle": LOAD_BLOCK + LOAD_BLOCK // 2, "last": model.theta.size - 1}[block]
    model.theta[at] = np.nan
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    with pytest.raises(BadMagic, match="non-finite parameters"):
        load_model(path)


def test_multi_block_checkpoint_loads_bitwise_and_refuses_a_mid_block_end(tmp_path):
    model = _multi_block_model()
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    assert np.array_equal(load_model(path).theta, model.theta)
    data = path.read_bytes()
    # the file now ends half-way through the second block
    path.write_bytes(data[: len(data) - 8 * (model.theta.size - LOAD_BLOCK - LOAD_BLOCK // 2)])
    with pytest.raises(TruncatedFile, match="parameter block is short"):
        load_model(path)


def _header(without=None, **changes):
    header = {
        "dim": 3,
        "hidden": 2,
        "dropout_rate": 0.1,
        "categories": [
            {"name": name, "labels": list(labels), "weight": 1.0, "label_weights": None}
            for name, labels in TWO_HEADS
        ],
    }
    header.update(changes)
    header.pop(without, None)
    return json.dumps(header).encode()


def _category(**changes):
    return [{"name": "alpha", "labels": ["a0", "a1"], "weight": 1.0, **changes}]


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(b"{not json", id="bad-json"),
        pytest.param(b'{"dim": "\xff"}', id="not-utf8"),
        pytest.param(b"[1, 2]", id="not-object"),
        pytest.param(_header(categories=None), id="categories-null"),
        pytest.param(_header(without="categories"), id="no-categories"),
        pytest.param(_header(without="hidden"), id="no-hidden"),
        pytest.param(_header(dim="3"), id="dim-string"),
        pytest.param(_header(hidden=2.0), id="hidden-float"),
        pytest.param(_header(hidden=0), id="hidden-zero"),
        pytest.param(_header(dim=True), id="dim-bool"),
        pytest.param(_header(categories=_category(labels=None)), id="labels-null"),
        pytest.param(_header(categories=_category(labels=5)), id="labels-int"),
        pytest.param(_header(categories=_category(weight="x")), id="weight-string"),
        pytest.param(_header(categories=_category(weight=[1.0])), id="weight-list"),
        pytest.param(_header(categories=_category(label_weights=[1.0])), id="label-weights-short"),
        pytest.param(_header(categories=_category(label_weights="ab")), id="label-weights-string"),
        pytest.param(b"[" * 100_000, id="deep-header"),
        pytest.param(_header(categories=_category(weight=10**400)), id="huge-weight"),
        pytest.param(
            _header(categories=_category(label_weights=[1.0, 10**400])), id="huge-label-weight"
        ),
        pytest.param(_header(categories=["alpha"]), id="category-not-object"),
        pytest.param(_header(dropout_rate="x"), id="dropout-string"),
        pytest.param(_header(dropout_rate=5.0), id="dropout-above-one"),
        pytest.param(_header(categories=_category(weight=-1.0)), id="weight-negative"),
        pytest.param(_header(categories=_category(weight=math.nan)), id="weight-nan"),
        pytest.param(_header(categories=_category(weight=2.0)), id="weight-two"),
        pytest.param(_header(categories=_category(weight=0.0)), id="weight-zero"),
        pytest.param(_header(categories=_category(weight=True)), id="weight-true"),
        pytest.param(_header(categories=_category(weight="1")), id="weight-string-one"),
        pytest.param(_header(categories=_category(weight="1.5")), id="weight-string-number"),
        pytest.param(
            _header(categories=_category(label_weights=["2.5", 1.0])), id="label-weight-string"
        ),
        pytest.param(
            _header(categories=_category(label_weights=[True, 1.0])), id="label-weight-true"
        ),
        pytest.param(_header(categories=_category(labels="ab")), id="labels-string"),
        pytest.param(_header(categories=_category(labels=["a0", 1])), id="label-int"),
        pytest.param(_header(categories=_category(name=7)), id="name-int"),
        pytest.param(_header(dropout_rate=False), id="dropout-bool"),
        pytest.param(_header(categories=_category(labels=["a0"])), id="one-label"),
        pytest.param(
            _header(categories=_category(label_weights=[1.0, -0.5])), id="label-weights-negative"
        ),
        pytest.param(
            _header(categories=_category(label_weights=[1.0, 2.0]) + _category(label_weights=None)),
            id="label-weights-mixed-null",
        ),
    ],
)
def test_malformed_checkpoint_header_is_bad_magic(tmp_path, blob):
    path = tmp_path / "model.ckpt"
    fixed = struct.pack("<3I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob))
    path.write_bytes(fixed + blob + bytes(8 * 64))
    with pytest.raises(BadMagic, match="malformed checkpoint header"):
        load_model(path)


def _set_label_weights(*weights):
    def edit(header):
        for category, w in zip(header["categories"], weights):
            category["label_weights"] = w

    return edit


def _edit_category(c, **changes):
    return lambda header: header["categories"][c].update(changes)


# Each way new_model refuses its arguments, and the same change made to a saved header
NEW_MODEL_REFUSALS = [
    pytest.param({"dim": 0}, lambda h: h.update(dim=0), "dim and hidden", id="dim-zero"),
    pytest.param({"hidden": -1}, lambda h: h.update(hidden=-1), "dim and hidden", id="hidden"),
    pytest.param({"dim": 3.0}, lambda h: h.update(dim=3.0), "dim and hidden", id="dim-float"),
    pytest.param(
        {"label_space": [TWO_HEADS[0], ("beta", ("b0",))]},
        _edit_category(1, labels=["b0"]),
        "two labels",
        id="one-label",
    ),
    pytest.param(
        {"label_space": [("alpha", ("a0", "a1", "a0")), TWO_HEADS[1]]},
        _edit_category(0, labels=["a0", "a1", "a0"]),
        "repeats a label",
        id="repeated-label",
    ),
    pytest.param(
        {"label_space": [TWO_HEADS[0], ("alpha", TWO_HEADS[1][1])]},
        _edit_category(1, name="alpha"),
        "names must be distinct",
        id="repeated-category-name",
    ),
    pytest.param({"dropout_rate": 1.0}, lambda h: h.update(dropout_rate=1.0), "dropout_rate",
                 id="dropout-one"),
    pytest.param({"dropout_rate": -0.1}, lambda h: h.update(dropout_rate=-0.1), "dropout_rate",
                 id="dropout-negative"),
    pytest.param({"dropout_rate": math.nan}, lambda h: h.update(dropout_rate=math.nan),
                 "dropout_rate", id="dropout-nan"),
    pytest.param({"label_weights": [(1.0, 1.0, 1.0), (1.0, -1.0)]},
                 _set_label_weights([1.0, 1.0, 1.0], [1.0, -1.0]), "label_weights",
                 id="label-weight-negative"),
    pytest.param({"label_weights": [(1.0, math.nan, 1.0), (1.0, 1.0)]},
                 _set_label_weights([1.0, math.nan, 1.0], [1.0, 1.0]), "label_weights",
                 id="label-weight-nan"),
    pytest.param({"label_weights": [(1.0, 1.0), (1.0, 1.0)]},
                 _set_label_weights([1.0, 1.0], [1.0, 1.0]), "label_weights",
                 id="label-weights-short"),
    pytest.param({"label_weights": [(1.0, 1.0, 1.0)]},
                 _set_label_weights([1.0, 1.0, 1.0], None), "label_weights",
                 id="label-weights-one-category"),
]


@pytest.mark.parametrize("changes, edit, message", NEW_MODEL_REFUSALS)
def test_a_header_new_model_refuses_is_bad_magic(tmp_path, changes, edit, message):
    with pytest.raises(ValueError, match=message):
        new_model(**{"dim": 3, "label_space": TWO_HEADS, "hidden": 2, **changes})
    path = tmp_path / "model.ckpt"
    save_model(path, new_model(3, TWO_HEADS, hidden=2, seed=0))
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + blob_len])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + blob_len :])
    with pytest.raises(BadMagic, match=f"malformed checkpoint header: .*{message}"):
        load_model(path)


def test_label_weighted_loss_hand_computed():
    model = small_model(weights=(1.0, 1.0))
    weighted = new_model(
        2,
        TWO_HEADS,
        hidden=1,
        dropout_rate=0.0,
        label_weights=[(3.0, 1.0, 1.0), (1.0, 2.0)],
        seed=0,
    )
    l_a = np.array([1.0, 0.0, -1.0])
    l_b = np.array([0.5, -0.5])
    target = np.array([0, 1])
    ce_a = -(l_a[0] - math.log(np.exp(l_a).sum()))
    ce_b = -(l_b[1] - math.log(np.exp(l_b).sum()))
    expected = (3.0 * ce_a + 2.0 * ce_b) / 2.0
    assert loss(weighted, [l_a, l_b], target) == pytest.approx(expected, abs=1e-12)
    plain = loss(model, [l_a, l_b], target)
    assert plain == pytest.approx((ce_a + ce_b) / 2.0, abs=1e-12)


def test_label_weighted_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    model = new_model(
        5,
        TWO_HEADS,
        hidden=3,
        dropout_rate=0.0,
        label_weights=[(2.0, 0.5, 1.0), (1.5, 1.0)],
        seed=2,
    )
    h = rng.normal(size=5)
    target = np.array([1, 0])
    analytic = backward(model, h, target)
    numeric = finite_difference_grads(model, h, target)
    for a, n in zip(analytic, numeric):
        assert relative_error(a, n).max() < 1e-5


def test_inverse_frequency_label_weights():
    from factkit.model import inverse_frequency_label_weights

    targets = np.array([[0], [0], [0], [1], [MASK]])
    [weights] = inverse_frequency_label_weights(targets, [("pair", ("a", "b"))])
    # 4 unmasked targets, 2 labels: a appears 3x, b once
    assert weights[0] == pytest.approx(4 / (2 * 3), abs=1e-12)
    assert weights[1] == pytest.approx(4 / (2 * 1), abs=1e-12)
    # unseen labels fall back to the single-occurrence weight
    [w3] = inverse_frequency_label_weights(
        np.array([[0], [0]]), [("trio", ("a", "b", "c"))]
    )
    assert w3[1] == pytest.approx(2 / 3, abs=1e-12)


def test_checkpoint_roundtrip_with_label_weights(tmp_path):
    model = new_model(
        3,
        TWO_HEADS,
        hidden=2,
        label_weights=[(1.0, 2.0, 3.0), (0.5, 4.0)],
        seed=1,
    )
    path = tmp_path / "weighted.ckpt"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.label_weights is not None
    for a, b in zip(loaded.label_weights, model.label_weights):
        assert np.array_equal(a, b)


def test_targets_from_facts_canonical():
    facts, emb = synthetic_dataset(n_facts=20, invalid_count=6)
    targets = targets_from_facts(facts, canonical_label_space())
    assert targets.shape == (20, 7)
    # first fact is invalid/No Fact: validity index 1, reason index 0
    assert targets[0].tolist()[4] == 1
    assert targets[0].tolist()[5] == 0
    with pytest.raises(SchemaMismatch, match="canonical"):
        targets_from_facts(facts, canonical_label_space()[::-1])
    with pytest.raises(ValueError, match="has no labels"):
        targets_from_facts([replace(facts[0], labels=None)], canonical_label_space())


def test_synthetic_end_to_end_quick():
    facts, emb = synthetic_dataset(n_facts=120, invalid_count=40)
    targets = targets_from_facts(facts, canonical_label_space())
    split = stratified_split(facts, SplitSpec(seed=42))
    model = new_model(emb.dim, canonical_label_space(), seed=42)
    config = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=10, patience=10, seed=42)
    result = train(model, emb, targets, split, config)
    test_rows = emb.take(split.test)
    pred, _ = predict_batch(result.model, test_rows)
    gold = targets[[emb.index_of()[i] for i in split.test]]
    assert pooled_f1_indices(gold, pred) > 0.9
