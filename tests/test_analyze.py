import weakref

import numpy as np
import pytest

from factkit.analyze import (
    aggregate_distribution,
    leakage_audit,
    predict_corpus,
    render_distribution,
)
from factkit.dataio import write_facts
from factkit.embeddings import EmbeddingMatrix, save_embeddings
from factkit.errors import EmptyTables, SchemaMismatch
from factkit.metrics import _mean_std
from factkit.model import canonical_label_space, new_model, save_model
from factkit.taxonomy import (
    DIMENSIONS,
    LABEL_SPACE,
    Dimension,
    FactRecord,
    LabelSet,
    label_codes,
    labelsets_from_codes,
)

from rss_probe import HAS_PROC, run_probed
from synth import synthetic_dataset


def table_from(labelsets, confidence=0.9):
    return label_codes(labelsets), np.full((len(labelsets), len(DIMENSIONS)), confidence)


def valid(main="Preferences"):
    return LabelSet(
        main_category=main, time="Present", referent="Self", duration="Long-term"
    )


# --- predict_corpus ---


def test_predict_corpus_single_model_single_fact():
    model = new_model(4, canonical_label_space(), seed=0)
    emb = EmbeddingMatrix(rows=np.zeros((1, 4)), row_ids=("a",))
    tables = predict_corpus([model], emb)
    codes, confidences = tables[0]
    assert len(tables) == 1 and codes.shape == confidences.shape == (1, len(DIMENSIONS))


def test_predict_corpus_identical_models_identical_tables():
    model = new_model(4, canonical_label_space(), seed=3)
    emb = EmbeddingMatrix(rows=np.random.default_rng(0).normal(size=(6, 4)), row_ids=tuple("abcdef"))
    tables = predict_corpus([model, model, model], emb)
    for codes, confidences in tables[1:]:
        assert np.array_equal(codes, tables[0][0])
        assert np.array_equal(confidences, tables[0][1])


def test_predict_corpus_schema_mismatch():
    a = new_model(4, canonical_label_space(), seed=0)
    b = new_model(5, canonical_label_space(), seed=0)
    emb = EmbeddingMatrix(rows=np.zeros((1, 4)), row_ids=("x",))
    for models in ([a, b], iter([a, b])):
        with pytest.raises(SchemaMismatch):
            predict_corpus(models, emb)


def test_aggregate_tables_of_different_lengths():
    labels = [valid(), valid("Routine Activities")]
    with pytest.raises(SchemaMismatch, match="different numbers of facts"):
        aggregate_distribution([table_from(labels), table_from(labels[:1])])


@pytest.mark.parametrize("models", [[], iter([])], ids=["list", "iterator"])
def test_predict_corpus_no_models(models):
    emb = EmbeddingMatrix(rows=np.zeros((1, 4)), row_ids=("x",))
    with pytest.raises(EmptyTables):
        predict_corpus(models, emb)


def test_predict_corpus_holds_one_generated_model_at_a_time():
    emb = EmbeddingMatrix(rows=np.zeros((3, 4)), row_ids=tuple("abc"))
    refs = []
    alive_at_load = []

    def models():
        for seed in range(4):
            alive_at_load.append(sum(ref() is not None for ref in refs))
            model = new_model(4, canonical_label_space(), seed=seed)
            refs.append(weakref.ref(model))
            yield model
            del model

    assert len(predict_corpus(models(), emb)) == 4
    assert alive_at_load == [0, 0, 0, 0]


def test_predict_corpus_shares_sum_to_100():
    facts, emb = synthetic_dataset(n_facts=100, invalid_count=30)
    models = [new_model(emb.dim, canonical_label_space(), seed=s) for s in range(5)]
    tables = predict_corpus(models, emb)
    for codes, _ in tables:
        table = labelsets_from_codes(codes)
        for dim in DIMENSIONS:
            counts = {}
            for labels in table:
                counts[labels.get(dim)] = counts.get(labels.get(dim), 0) + 1
            total = 100.0 * sum(counts.values()) / len(table)
            assert total == pytest.approx(100.0, abs=0.1)


@pytest.mark.skipif(not HAS_PROC, reason="needs Linux /proc")
def test_analyze_memory_grows_by_one_checkpoint_not_by_their_number(tmp_path):
    facts, _ = synthetic_dataset(n_facts=40, invalid_count=12)
    rows = np.random.default_rng(0).normal(size=(len(facts), 512))
    write_facts(tmp_path / "corpus.jsonl", facts)
    save_embeddings(tmp_path / "corpus.emb", EmbeddingMatrix(rows, tuple(f.id for f in facts)))
    model = new_model(512, canonical_label_space(), seed=0)  # hidden 512: ~15 MB of theta
    paths = [str(tmp_path / f"model-{s}.ckpt") for s in range(6)]
    for path in paths:
        save_model(path, model)
    code, growth_bytes = run_probed(
        "analyze", "--models", *paths, "--corpus", tmp_path / "corpus.jsonl",
        "--embeddings", tmp_path / "corpus.emb", "--out", tmp_path / "distribution.txt",
    )
    assert code == 0
    assert growth_bytes < 3 * model.theta.nbytes


# --- aggregation ---


def test_aggregate_identical_tables_zero_std():
    labelsets = [valid(), valid("Experience"), LabelSet.invalid("Opinion")]
    report = aggregate_distribution([table_from(labelsets)] * 5)
    assert report.n_seeds == 5
    assert report.n_facts == 3
    for cell in report.cells.values():
        assert cell.share.std == 0.0


def test_aggregate_two_seed_hand_computation():
    # seed one: 1 of 5 facts Invalid (20%); seed two: 30%... use 10 facts
    seed_a = table_from([LabelSet.invalid("Opinion")] * 2 + [valid()] * 8)
    seed_b = table_from([LabelSet.invalid("Opinion")] * 3 + [valid()] * 7)
    report = aggregate_distribution([seed_a, seed_b])
    cell = report.cells[(Dimension.VALIDITY, "Invalid")]
    assert cell.share.mean == pytest.approx(25.0, abs=1e-9)
    assert cell.share.std == pytest.approx(np.sqrt(50.0), abs=1e-9)


def test_aggregate_confidence_conditional_on_label():
    # confidence aggregates only over facts assigned the label
    table = (
        label_codes([valid(), valid(), LabelSet.invalid("Opinion")]),
        np.repeat([[0.8], [0.6], [0.4]], len(DIMENSIONS), axis=1),
    )
    report = aggregate_distribution([table])
    valid_cell = report.cells[(Dimension.VALIDITY, "Valid")]
    invalid_cell = report.cells[(Dimension.VALIDITY, "Invalid")]
    assert valid_cell.confidence.mean == pytest.approx(70.0, abs=1e-9)
    assert invalid_cell.confidence.mean == pytest.approx(40.0, abs=1e-9)
    never = report.cells[(Dimension.VALIDITY, "Valid")]
    unassigned = report.cells[(Dimension.INVALIDITY_REASON, "No Fact")]
    assert unassigned.share.mean == 0.0
    assert unassigned.confidence is None


def test_aggregate_order_invariance():
    seed_a = table_from([valid()] * 3 + [LabelSet.invalid("Opinion")])
    seed_b = table_from([valid()] * 2 + [LabelSet.invalid("No Fact")] * 2)
    assert aggregate_distribution([seed_a, seed_b]) == aggregate_distribution(
        [seed_b, seed_a]
    )


def _reference_aggregate(tables):
    """Label-set loop the bincount aggregate replaced, kept as its reference."""
    n_facts = len(tables[0][0])
    cells = {}
    for c, dim in enumerate(DIMENSIONS):
        for label in LABEL_SPACE[dim]:
            shares, confidences = [], []
            for codes, conf in tables:
                rows = labelsets_from_codes(codes)
                hits = [float(conf[i, c]) for i, l in enumerate(rows) if l.get(dim) == label]
                shares.append(100.0 * len(hits) / n_facts)
                if hits:
                    confidences.append(100.0 * sum(hits) / len(hits))
            cells[(dim, label)] = (_mean_std(shares), _mean_std(confidences) if confidences else None)
    return cells


def test_aggregate_matches_reference_loop_bitwise():
    rng = np.random.default_rng(11)
    sizes = [len(LABEL_SPACE[d]) for d in DIMENSIONS]
    for _ in range(20):
        n = int(rng.integers(1, 40))
        tables = [
            (rng.integers(0, sizes, size=(n, len(sizes))), rng.random((n, len(sizes))))
            for _ in range(int(rng.integers(1, 6)))
        ]
        report = aggregate_distribution(tables)
        for key, (share, confidence) in _reference_aggregate(tables).items():
            assert report.cells[key].share == share
            assert report.cells[key].confidence == confidence


def test_aggregate_empty_tables():
    with pytest.raises(EmptyTables):
        aggregate_distribution([])


def test_shares_sum_to_100_per_dimension():
    facts, emb = synthetic_dataset(n_facts=80, invalid_count=24)
    tables = [table_from([f.labels for f in facts])]
    report = aggregate_distribution(tables)
    for dim in DIMENSIONS:
        total = sum(report.cells[(dim, l)].share.mean for l in LABEL_SPACE[dim])
        assert total == pytest.approx(100.0, abs=0.1)


# --- leakage audit ---


def corpus_of(labelsets, prefix="c"):
    return [
        FactRecord(id=f"{prefix}{i}", text=f"{prefix} corpus text {i}", labels=None)
        for i in range(len(labelsets))
    ]


def test_zero_overlap_zero_shift():
    labelsets = [valid()] * 6 + [LabelSet.invalid("Opinion")] * 4
    corpus = corpus_of(labelsets)
    train_facts = [FactRecord(id=f"t{i}", text=f"train text {i}") for i in range(5)]
    tables = [table_from(labelsets)] * 3
    audit = leakage_audit(train_facts, corpus, tables)
    assert audit.overlap_count == 0
    assert audit.overlap_fraction == 0.0
    assert audit.max_shift == 0.0
    assert all(shift == 0.0 for shift in audit.shifts.values())


def test_total_overlap_flagged():
    labelsets = [valid()] * 4
    corpus = corpus_of(labelsets)
    train_facts = [FactRecord(id=f"t{i}", text=f.text) for i, f in enumerate(corpus)]
    audit = leakage_audit(train_facts, corpus, [table_from(labelsets)])
    assert audit.overlap_fraction == 1.0
    assert audit.held_out_empty
    assert audit.shifts is None


def test_planted_overlap_hand_computed_shift():
    # 1,000 facts; 10 overlapping ones all predicted Invalid, the rest Valid
    n, planted = 1000, 10
    labelsets = [LabelSet.invalid("Opinion")] * planted + [valid()] * (n - planted)
    corpus = corpus_of(labelsets)
    train_facts = [FactRecord(id=f"t{i}", text=corpus[i].text) for i in range(planted)]
    audit = leakage_audit(train_facts, corpus, [table_from(labelsets)])
    assert audit.overlap_count == planted
    # full share of Invalid: 1.0%; held-out: 0 of 990 -> shift is 1.0 pp
    expected_shift = 100.0 * planted / n - 0.0
    assert audit.shifts[(Dimension.VALIDITY, "Invalid")] == pytest.approx(
        expected_shift, abs=1e-9
    )
    assert audit.max_shift == pytest.approx(expected_shift, abs=1e-9)
    # trimming matches exact text, so the held-out report covers 990 facts
    assert audit.held_out_report.n_facts == n - planted


def test_overlap_uses_trimmed_exact_match():
    corpus = [FactRecord(id="c0", text="  same text  ")]
    train_facts = [FactRecord(id="t0", text="same text")]
    audit = leakage_audit(train_facts, corpus, [table_from([valid()])])
    assert audit.overlap_count == 1


def test_render_distribution_mentions_audit():
    labelsets = [valid()] * 3
    report = aggregate_distribution([table_from(labelsets)])
    audit = leakage_audit([], corpus_of(labelsets), [table_from(labelsets)])
    text = render_distribution(report, audit)
    assert "share %" in text
    assert "overlap_count=0" in text
