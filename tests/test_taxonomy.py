import numpy as np
import pytest

from factkit.errors import LabelOutOfRange, UnknownEnumValue
from factkit.taxonomy import (
    DIMENSIONS,
    LABEL_SPACE,
    NONE_LABEL,
    Dimension,
    FactRecord,
    LabelSet,
    RawAnnotation,
    canonicalize,
    label_codes,
    labelsets_from_codes,
    validate_labelset,
)

from canon_fixtures import GOLDEN_CASES, expected_labelset_kwargs


def test_label_space_sizes_match_taxonomy():
    sizes = [len(LABEL_SPACE[d]) for d in DIMENSIONS]
    assert sizes == [9, 4, 3, 3, 2, 6, 3]
    assert len(DIMENSIONS) == 7


@pytest.mark.parametrize("name,raw_kwargs,expected,excluded,reason", GOLDEN_CASES)
def test_canonicalize_golden(name, raw_kwargs, expected, excluded, reason):
    result = canonicalize(RawAnnotation(**raw_kwargs))
    assert result.labels == LabelSet(**expected_labelset_kwargs(expected)), name
    assert result.excluded is excluded, name
    assert result.exclusion_reason == reason, name


@pytest.mark.parametrize("name,raw_kwargs,expected,excluded,reason", GOLDEN_CASES)
def test_canonical_output_always_validates(name, raw_kwargs, expected, excluded, reason):
    result = canonicalize(RawAnnotation(**raw_kwargs))
    assert validate_labelset(result.labels) == []


def as_raw_annotation(labels: LabelSet) -> RawAnnotation:
    """Canonical labels re-expressed as the prompt-style annotation that canonicalizes to them."""
    if labels.validity == "Invalid":
        return RawAnnotation(broken="Yes", broken_reason=labels.invalidity_reason)
    return RawAnnotation(
        main_category=labels.main_category,
        time=labels.time,
        referent=labels.referent,
        duration=[] if labels.duration == NONE_LABEL else [labels.duration],
        context_sufficient="Yes",
        broken="No",
        broken_reason=NONE_LABEL,
        followup=labels.followup,
    )


@pytest.mark.parametrize("name,raw_kwargs,expected,excluded,reason", GOLDEN_CASES)
def test_canonicalize_idempotent(name, raw_kwargs, expected, excluded, reason):
    first = canonicalize(RawAnnotation(**raw_kwargs))
    second = canonicalize(as_raw_annotation(first.labels))
    assert second.labels == first.labels
    assert second.excluded is False


@pytest.mark.parametrize(
    "field,value",
    [
        ("main_category", "Sports"),
        ("main_category", "preferences"),  # case-sensitive
        ("time", "past"),
        ("referent", "Speaker"),
        ("duration", "short-term"),
        ("broken", "yes"),
        ("broken_reason", "Boring"),
        ("followup", "Definitely"),
        ("context_sufficient", "Maybe"),
        ("specificity", "Very"),
    ],
)
def test_unknown_enum_values_raise(field, value):
    kwargs = {field: [value] if field == "duration" else value}
    with pytest.raises(UnknownEnumValue) as excinfo:
        canonicalize(RawAnnotation(**kwargs))
    assert excinfo.value.field == field


def test_broken_without_reason_raises():
    with pytest.raises(UnknownEnumValue) as excinfo:
        canonicalize(RawAnnotation(broken="Yes", broken_reason="None"))
    assert excinfo.value.field == "broken_reason"


def test_unknown_category_item_raises():
    with pytest.raises(UnknownEnumValue):
        canonicalize(RawAnnotation(categories=["Hobbies"], main_category="Preferences"))


def test_validate_labelset_consistent_invalid():
    labels = LabelSet.invalid("Opinion")
    assert validate_labelset(labels) == []


def test_validate_labelset_valid_with_reason():
    labels = LabelSet(
        main_category="Preferences",
        time="Present",
        referent="Self",
        duration="Long-term",
        validity="Valid",
        invalidity_reason="Opinion",
    )
    assert validate_labelset(labels) == ["valid fact carries invalidity reason"]


def test_validate_labelset_followup_requires_future():
    labels = LabelSet(
        main_category="Goals and Plans",
        time="Present",
        referent="Self",
        duration="Short-term",
        followup="Yes",
    )
    assert "followup requires Future time" in validate_labelset(labels)


def test_validate_labelset_invalid_with_content():
    labels = LabelSet(
        main_category="Preferences",
        validity="Invalid",
        invalidity_reason="Opinion",
    )
    violations = validate_labelset(labels)
    assert violations == ["invalid fact carries non-None main_category"]


def test_labelset_rejects_out_of_space_value():
    with pytest.raises(UnknownEnumValue):
        LabelSet(main_category="Hobbies")


def test_labelset_roundtrips_through_dict():
    labels = LabelSet(
        main_category="Possessions",
        time="Present",
        referent="Self",
        duration="Long-term",
    )
    assert LabelSet.from_dict(labels.as_dict()) == labels


def test_label_codes_roundtrip():
    sets = [LabelSet(), LabelSet.invalid("Opinion"), LabelSet(main_category="Possessions")]
    codes = label_codes(sets)
    assert codes.dtype == np.int64 and codes.shape == (3, len(DIMENSIONS))
    assert codes[1].tolist() == [
        LABEL_SPACE[d].index(sets[1].get(d)) for d in DIMENSIONS
    ]
    assert labelsets_from_codes(codes) == sets
    assert label_codes([]).shape == (0, len(DIMENSIONS))


def test_labelsets_from_codes_rejects_masked_and_out_of_range():
    codes = label_codes([LabelSet()])
    for bad in (-1, len(LABEL_SPACE[Dimension.MAIN_CATEGORY])):
        codes[0, 0] = bad
        with pytest.raises(LabelOutOfRange):
            labelsets_from_codes(codes)


def test_fact_record_rejects_blank_text():
    with pytest.raises(ValueError):
        FactRecord(id="x", text="   ")


def test_fact_record_rejects_unknown_source():
    with pytest.raises(UnknownEnumValue):
        FactRecord(id="x", text="I run.", source="Reddit")


def test_random_valid_raws_always_canonicalize_cleanly():
    # Sweep the full cross product of prompt enumerations on the valid path.
    mains = ["Preferences", "Routine activities", "Goals and plans", "Experience"]
    times = ["Past", "Present", "Future", "None"]
    referents = ["Self", "Other", "None"]
    durations = [[], ["Short-term"], ["Long-term"], ["Short-term", "Long-term"]]
    followups = ["Yes", "No", "Maybe", "None"]
    for main in mains:
        for time in times:
            for referent in referents:
                for duration in durations:
                    for followup in followups:
                        result = canonicalize(
                            RawAnnotation(
                                main_category=main,
                                time=time,
                                referent=referent,
                                duration=duration,
                                context_sufficient="Yes",
                                broken="No",
                                followup=followup,
                            )
                        )
                        assert validate_labelset(result.labels) == []
                        assert result.excluded == (len(duration) == 2)
