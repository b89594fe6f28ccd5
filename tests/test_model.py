import hashlib
import json
import math
import struct
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
    SchemaMismatch,
    TruncatedFile,
)
from factkit.model import (
    ADAM_BLOCK,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    MASK,
    PREDICT_BLOCK,
    AdamState,
    TrainConfig,
    adamw_step,
    backward,
    canonical_label_space,
    forward,
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
from factkit.model import _head_forward, _loss_and_grads
from factkit.taxonomy import DIMENSIONS, labelsets_from_codes

from synth import synthetic_dataset

TWO_HEADS = [("alpha", ("a0", "a1", "a2")), ("beta", ("b0", "b1"))]


def small_model(dim=2, hidden=1, seed=0, dropout=0.0, weights=None):
    return new_model(
        dim,
        TWO_HEADS,
        hidden=hidden,
        dropout_rate=dropout,
        category_weights=weights,
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


def test_forward_train_mode_dropout_changes_logits():
    model = small_model(dim=16, hidden=8, seed=1, dropout=0.5)
    h = np.ones(16)
    rng = np.random.default_rng(0)
    noisy = forward(model, h, train_mode=True, rng=rng)
    clean = forward(model, h)
    assert not all(np.allclose(a, b) for a, b in zip(noisy, clean))


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
    # no row leaves the first head unmasked, so its slots must be zeroed, not skipped
    model = small_model(dim=4, hidden=3, seed=5, dropout=0.2)
    X = np.random.default_rng(2).normal(size=(6, 4))
    targets = np.column_stack([np.full(6, MASK), [0, 1, 1, 0, 1, 0]])
    loss, fresh = _loss_and_grads(model, X, targets, True, np.random.default_rng(3))
    buffer = np.full_like(model.theta, np.nan)
    loss_again, grad = _loss_and_grads(model, X, targets, True, np.random.default_rng(3), out=buffer)
    assert grad is buffer
    assert loss_again == loss
    assert np.array_equal(buffer, fresh)  # bitwise, and no NaN left
    assert not np.any(fresh[: sum(a.size for a in model.heads[0].arrays())])


def two_pass_loss_and_grads(model, X, targets, rng):
    """The loss and gradient as first written: every head forward, then the loss, then the gradient."""
    rate = model.dropout_rate
    caches = [_head_forward(head, X, rate, rng) for head in model.heads]

    def log_softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def gold_weights(c, rows):
        scale = np.full(rows.size, model.category_weights[c])
        if model.label_weights is not None:
            scale = scale * model.label_weights[c][targets[rows, c]]
        return scale

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
    model = new_model(
        16, space, hidden=8, dropout_rate=0.2, label_weights=label_weights,
        category_weights=rng.uniform(0.5, 2.0, size=len(space)), seed=seed,
    )
    X = rng.normal(size=(batch, 16))
    targets = np.column_stack([rng.integers(MASK, len(labels), size=batch) for _, labels in space])
    targets[:, 2] = MASK  # one head fully masked: its masks are still drawn
    expected = two_pass_loss_and_grads(model, X, targets, np.random.default_rng(seed))
    buffer = np.full_like(model.theta, np.nan)
    got = _loss_and_grads(model, X, targets, True, np.random.default_rng(seed), out=buffer)
    assert got[0] == expected[0]
    assert got[1].tobytes() == expected[1].tobytes()


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


def test_train_updates_model_in_place_and_returns_a_snapshot():
    emb, targets, split = tiny_task()
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=10, patience=2, seed=2)
    model = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    result = train(model, emb, targets, split, config)
    assert not np.shares_memory(result.model.theta, model.theta)
    assert all(np.shares_memory(a, result.model.theta) for a in result.model.parameters())
    # patience ran out after the best epoch, so the last step moved model past the snapshot
    assert result.history[-1].epoch > result.best_epoch
    assert not np.array_equal(model.theta, result.model.theta)
    # the same run stopped at the best epoch leaves that epoch's parameters in model
    again = new_model(4, [("pair", ("n", "y"))], hidden=4, dropout_rate=0.0, seed=1)
    train(again, emb, targets, split, replace(config, max_epochs=result.best_epoch))
    assert np.array_equal(again.theta, result.model.theta)


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


def test_train_empty_split():
    emb, targets, _ = tiny_task()
    bad = SplitAssignment(train=(), val=("t0",), test=())
    model = new_model(4, [("pair", ("n", "y"))], seed=0)
    with pytest.raises(EmptySplit):
        train(model, emb, targets, bad, TrainConfig())


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
    assert np.array_equal(loaded.category_weights, model.category_weights)
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
        (clone.category_weights, model.category_weights),
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
        pytest.param(_header(categories=["alpha"]), id="category-not-object"),
        pytest.param(_header(dropout_rate="x"), id="dropout-string"),
        pytest.param(_header(dropout_rate=5.0), id="dropout-above-one"),
        pytest.param(_header(categories=_category(weight=-1.0)), id="weight-negative"),
        pytest.param(_header(categories=_category(weight=math.nan)), id="weight-nan"),
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
    pytest.param({"dropout_rate": 1.0}, lambda h: h.update(dropout_rate=1.0), "dropout_rate",
                 id="dropout-one"),
    pytest.param({"dropout_rate": -0.1}, lambda h: h.update(dropout_rate=-0.1), "dropout_rate",
                 id="dropout-negative"),
    pytest.param({"dropout_rate": math.nan}, lambda h: h.update(dropout_rate=math.nan),
                 "dropout_rate", id="dropout-nan"),
    pytest.param({"category_weights": [1.0, -1.0]}, _edit_category(1, weight=-1.0),
                 "category_weights", id="category-weight-negative"),
    pytest.param({"category_weights": [math.nan, 1.0]}, _edit_category(0, weight=math.nan),
                 "category_weights", id="category-weight-nan"),
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
