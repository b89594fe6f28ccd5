import itertools
import json
from fractions import Fraction

import pytest

from factkit.dataio import (
    SplitSpec,
    dedup_exact,
    largest_remainder_counts,
    read_facts,
    read_split,
    stratified_split,
    write_facts,
    write_split,
)
from factkit.errors import DuplicateId, EmptyInput, ParseError
from factkit.taxonomy import FactRecord, LabelSet


def fact(i, text, main="Preferences", **kwargs):
    labels = LabelSet(
        main_category=main,
        time="Present",
        referent="Self",
        duration="Long-term",
    )
    return FactRecord(id=f"f{i}", text=text, labels=labels, **kwargs)


def test_read_facts_preserves_order(tmp_path):
    path = tmp_path / "facts.jsonl"
    write_facts(path, [fact(1, "a"), fact(2, "b"), fact(3, "c")])
    facts = read_facts(path)
    assert [f.id for f in facts] == ["f1", "f2", "f3"]
    assert [f.text for f in facts] == ["a", "b", "c"]


def test_read_write_roundtrip(tmp_path):
    path = tmp_path / "facts.jsonl"
    original = [
        fact(1, "I run daily.", source="MSC"),
        FactRecord(id="f2", text="no labels yet"),
        fact(3, "dual", excluded=True, exclusion_reason="dual-duration"),
        FactRecord(id="f4", text="with context", context="sess 1", source="PersonaChat"),
    ]
    write_facts(path, original)
    assert read_facts(path) == original


def test_read_facts_bad_json(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_text('{"id": "a", "text": "x"}\nnot json\n')
    with pytest.raises(ParseError) as excinfo:
        read_facts(path)
    assert excinfo.value.line_no == 2


def test_read_facts_unknown_label(tmp_path):
    path = tmp_path / "facts.jsonl"
    obj = {
        "id": "a",
        "text": "x",
        "labels": {
            "main_category": "Sports",
            "time": "Present",
            "referent": "Self",
            "duration": "Long-term",
            "validity": "Valid",
            "invalidity_reason": "None",
            "followup": "None",
        },
    }
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ParseError):
        read_facts(path)


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "a", "text": 5}, "text must be a string"),
        ({"id": "a", "text": "x", "excluded": "false"}, "'excluded' must be true or false"),
    ],
    ids=["text-not-string", "excluded-not-boolean"],
)
def test_read_facts_rejects_wrong_field_types(tmp_path, record, message):
    path = tmp_path / "facts.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ParseError, match=message) as excinfo:
        read_facts(path)
    assert excinfo.value.line_no == 1


def test_read_facts_duplicate_id(tmp_path):
    path = tmp_path / "facts.jsonl"
    write_facts(path, [FactRecord(id="a", text="x")])
    with open(path, "a") as handle:
        handle.write(json.dumps({"id": "a", "text": "y"}) + "\n")
    with pytest.raises(DuplicateId):
        read_facts(path)


def test_read_facts_skips_blank_lines(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n\n{"id": "b", "text": "y"}\n')
    assert len(read_facts(path)) == 2


# --- dedup ---


def test_dedup_keeps_first_occurrence():
    facts = [FactRecord(id=str(i), text=t) for i, t in enumerate(["a", "b", "a"])]
    assert [f.text for f in dedup_exact(facts)] == ["a", "b"]
    assert [f.id for f in dedup_exact(facts)] == ["0", "1"]


def test_dedup_is_case_sensitive():
    facts = [FactRecord(id=str(i), text=t) for i, t in enumerate(["a", "A"])]
    assert len(dedup_exact(facts)) == 2


def test_dedup_trims_whitespace():
    facts = [FactRecord(id=str(i), text=t) for i, t in enumerate(["a", " a "])]
    assert len(dedup_exact(facts)) == 1


def test_dedup_matches_bruteforce_oracle():
    texts = ["t0", "t1", "t2", "t1", "t3", "t0", "t4", "t2", "t5", "t1"]
    facts = [FactRecord(id=str(i), text=t) for i, t in enumerate(texts)]
    # brute-force pairwise comparison oracle
    survivors = []
    for i, f in enumerate(facts):
        if not any(f.text.strip() == g.text.strip() for g in facts[:i]):
            survivors.append(f.id)
    result = dedup_exact(facts)
    assert [f.id for f in result] == survivors
    assert len(result) == 6


# --- apportionment ---


def test_largest_remainder_exact_tenths():
    fracs = (Fraction(7, 10), Fraction(1, 10), Fraction(2, 10))
    assert largest_remainder_counts(10, fracs) == [7, 1, 2]
    assert largest_remainder_counts(20, fracs) == [14, 2, 4]


def test_largest_remainder_rounding():
    fracs = (Fraction(7, 10), Fraction(1, 10), Fraction(2, 10))
    assert largest_remainder_counts(11, fracs) == [8, 1, 2]
    assert largest_remainder_counts(3, fracs) == [2, 0, 1]
    # single item: remainders 0.7 / 0.1 / 0.2, train wins
    assert largest_remainder_counts(1, fracs) == [1, 0, 0]


def test_largest_remainder_tie_prefers_earlier_split():
    fracs = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    # size 2: quotas (1, 0.5, 0.5); val and test tie at 0.5, val wins
    assert largest_remainder_counts(2, fracs) == [1, 1, 0]


def test_largest_remainder_bound():
    fracs = (Fraction(7, 10), Fraction(1, 10), Fraction(2, 10))
    for size in range(1, 200):
        counts = largest_remainder_counts(size, fracs)
        assert sum(counts) == size
        for count, frac in zip(counts, fracs):
            assert abs(count - float(frac) * size) <= 1.0


# --- stratified split ---


def make_strata(sizes: dict[str, int]):
    facts = []
    i = 0
    for label, size in sizes.items():
        for _ in range(size):
            facts.append(fact(i, f"text {i}", main=label))
            i += 1
    return facts


def test_split_single_stratum_sizes():
    facts = make_strata({"Preferences": 10})
    assignment = stratified_split(facts, SplitSpec(seed=42))
    assert (len(assignment.train), len(assignment.val), len(assignment.test)) == (7, 1, 2)


def test_split_two_strata_sizes():
    facts = make_strata({"Preferences": 10, "Experience": 20})
    assignment = stratified_split(facts, SplitSpec(seed=42))
    by_main = {f.id: f.labels.main_category for f in facts}
    for part, expect_a, expect_b in [
        (assignment.train, 7, 14),
        (assignment.val, 1, 2),
        (assignment.test, 2, 4),
    ]:
        labels = [by_main[i] for i in part]
        assert labels.count("Preferences") == expect_a
        assert labels.count("Experience") == expect_b


def test_split_deterministic():
    facts = make_strata({"Preferences": 13, "Experience": 9})
    a = stratified_split(facts, SplitSpec(seed=42))
    b = stratified_split(facts, SplitSpec(seed=42))
    assert a == b


def test_split_seed_changes_assignment():
    facts = make_strata({"Preferences": 30, "Experience": 30})
    assignments = [stratified_split(facts, SplitSpec(seed=s)) for s in (42, 123, 456, 789, 1024)]
    assert len({a.train for a in assignments}) > 1


def test_split_partition_property():
    facts = make_strata({"Preferences": 17, "Experience": 5, "Demographics": 8})
    assignment = stratified_split(facts, SplitSpec(seed=7))
    ids = list(assignment.train) + list(assignment.val) + list(assignment.test)
    assert sorted(ids) == sorted(f.id for f in facts)
    assert len(set(ids)) == len(ids)


def test_split_apportionment_bound_random_strata():
    import random

    rng = random.Random(0)
    for _ in range(20):
        sizes = {
            label: rng.randint(1, 40)
            for label in rng.sample(
                ["Preferences", "Experience", "Demographics", "Possessions", "None"],
                rng.randint(1, 5),
            )
        }
        facts = make_strata(sizes)
        spec = SplitSpec(seed=rng.randint(0, 10_000))
        assignment = stratified_split(facts, spec)
        by_main = {f.id: f.labels.main_category for f in facts}
        for label, size in sizes.items():
            for part, frac in zip(
                (assignment.train, assignment.val, assignment.test), spec.fractions
            ):
                count = sum(1 for i in part if by_main[i] == label)
                assert abs(count - float(frac) * size) <= 1.0


def test_split_empty_input():
    with pytest.raises(EmptyInput):
        stratified_split([], SplitSpec(seed=1))


def test_split_rejects_unlabeled():
    with pytest.raises(ValueError):
        stratified_split([FactRecord(id="a", text="x")], SplitSpec(seed=1))


def test_split_rejects_excluded():
    bad = fact(0, "x", excluded=True, exclusion_reason="dual-duration")
    with pytest.raises(ValueError):
        stratified_split([bad], SplitSpec(seed=1))


def test_split_spec_fractions_must_sum_to_one():
    with pytest.raises(ValueError):
        SplitSpec(train_frac=0.7, val_frac=0.2, test_frac=0.2, seed=0)


def test_split_spec_fractions_must_lie_in_unit_interval():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SplitSpec(train_frac="11/10", val_frac="-1/5", test_frac="1/10", seed=0)


@pytest.mark.parametrize("fractions", ["train=11/10 val=-1/5 test=1/10", "train=1/0 val=1/10 test=1/5"])
def test_read_split_rejects_bad_fractions(tmp_path, fractions):
    path = tmp_path / "split.txt"
    path.write_text(f"seed=1 {fractions}\na\n\nb\n")
    with pytest.raises(ParseError, match="bad split header"):
        read_split(path)


def test_split_file_roundtrip(tmp_path):
    facts = make_strata({"Preferences": 12, "Experience": 6})
    spec = SplitSpec(seed=99)
    assignment = stratified_split(facts, spec)
    path = tmp_path / "split.txt"
    write_split(path, assignment, spec)
    loaded, loaded_spec = read_split(path)
    assert loaded == assignment
    assert loaded_spec.seed == 99
    assert loaded_spec.fractions == spec.fractions


def test_read_split_rejects_malformed(tmp_path):
    path = tmp_path / "split.txt"
    path.write_text("seed=1\n")
    with pytest.raises(ParseError):
        read_split(path)
