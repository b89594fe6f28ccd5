"""Label taxonomy for personal facts and canonicalization of raw annotations.

A personal fact is described along seven dimensions: what it is about (main
category), when it holds (time), whom it concerns (referent), how long it
stays relevant (duration), whether it is usable at all (validity), why not
(invalidity reason), and whether it invites a later check-in (followup).

Annotation prompts emit a slightly different surface: a ``broken`` flag with
a ``broken_reason``, a separate context-sufficiency judgment, a multi-valued
duration, a specificity field, and a ``followup=No`` option. ``canonicalize``
folds all of that into the released label space:

* ``broken=Yes`` becomes ``validity=Invalid`` with the reason renamed to the
  canonical label ("Not about self/known people" becomes "Unattributable").
* ``context_sufficient=No`` on an otherwise fine fact becomes
  ``validity=Invalid`` with reason "Context Insufficient".
* ``followup=No`` is folded into "Maybe"; followup is kept only for
  future-tense facts and forced to "None" elsewhere.
* A duration list naming both values marks the fact as excluded (flagged,
  not deleted, so raw counts stay auditable).
* ``categories`` and ``specificity`` are dropped; only the priority-resolved
  main category is kept, trusted as given.

Matching of enumeration values is case-sensitive after whitespace trimming;
anything outside the accepted sets raises :class:`UnknownEnumValue` so
annotation bugs surface instead of turning into silent "None" labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import LabelOutOfRange, UnknownEnumValue

NONE_LABEL = "None"


class Dimension(Enum):
    """The seven annotation dimensions. The set is closed."""

    MAIN_CATEGORY = "main_category"
    TIME = "time"
    REFERENT = "referent"
    DURATION = "duration"
    VALIDITY = "validity"
    INVALIDITY_REASON = "invalidity_reason"
    FOLLOWUP = "followup"


DIMENSIONS: tuple[Dimension, ...] = tuple(Dimension)

# Canonical label space per dimension; tuple order fixes head output indices.
LABEL_SPACE: dict[Dimension, tuple[str, ...]] = {
    Dimension.MAIN_CATEGORY: (
        "Preferences",
        "Characteristics",
        "Routine Activities",
        "Experience",
        "Goals and Plans",
        "Relationships",
        "Demographics",
        "Possessions",
        NONE_LABEL,
    ),
    Dimension.TIME: ("Past", "Present", "Future", NONE_LABEL),
    Dimension.REFERENT: ("Self", "Other", NONE_LABEL),
    Dimension.DURATION: ("Short-term", "Long-term", NONE_LABEL),
    Dimension.VALIDITY: ("Valid", "Invalid"),
    Dimension.INVALIDITY_REASON: (
        "No Fact",
        "Opinion",
        "Context Insufficient",
        "Unattributable",
        "Multiple Facts",
        NONE_LABEL,
    ),
    Dimension.FOLLOWUP: ("Yes", "Maybe", NONE_LABEL),
}

# Prompt-level spellings accepted on input, mapped to canonical labels.
_MAIN_ALIASES = {
    "Routine activities": "Routine Activities",
    "Goals and plans": "Goals and Plans",
}
_REASON_ALIASES = {
    "Multiple facts": "Multiple Facts",
    "No fact": "No Fact",
    "Not about self/known people": "Unattributable",
}

_MAIN_ACCEPTED = set(LABEL_SPACE[Dimension.MAIN_CATEGORY]) | set(_MAIN_ALIASES)
_REASON_ACCEPTED = set(LABEL_SPACE[Dimension.INVALIDITY_REASON]) | set(_REASON_ALIASES)
_CATEGORY_ITEM_ACCEPTED = _MAIN_ACCEPTED
_TIME_ACCEPTED = set(LABEL_SPACE[Dimension.TIME])
_REFERENT_ACCEPTED = set(LABEL_SPACE[Dimension.REFERENT])
_DURATION_ITEM_ACCEPTED = {"Short-term", "Long-term", NONE_LABEL}
_SPECIFICITY_ACCEPTED = {"Specific", "General", NONE_LABEL}
_YES_NO_NONE = {"Yes", "No", NONE_LABEL}
_BROKEN_ACCEPTED = {"Yes", "No"}
_FOLLOWUP_ACCEPTED = {"Yes", "No", "Maybe", NONE_LABEL}

SOURCES = ("MSC", "PersonaChat", "Other")


@dataclass(frozen=True)
class LabelSet:
    """One assignment over the seven dimensions.

    Construction checks that each value belongs to its dimension's label
    space. Cross-dimension consistency is deliberately not enforced here
    (classifier heads predict dimensions independently and may disagree);
    use :func:`validate_labelset` to list violations.
    """

    main_category: str = NONE_LABEL
    time: str = NONE_LABEL
    referent: str = NONE_LABEL
    duration: str = NONE_LABEL
    validity: str = "Valid"
    invalidity_reason: str = NONE_LABEL
    followup: str = NONE_LABEL

    def __post_init__(self):
        for dim in DIMENSIONS:
            value = getattr(self, dim.value)
            if value not in LABEL_SPACE[dim]:
                raise UnknownEnumValue(dim.value, value)

    def get(self, dim: Dimension) -> str:
        return getattr(self, dim.value)

    def as_dict(self) -> dict[str, str]:
        return {dim.value: getattr(self, dim.value) for dim in DIMENSIONS}

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "LabelSet":
        return cls(**{dim.value: data[dim.value] for dim in DIMENSIONS})

    @classmethod
    def invalid(cls, reason: str) -> "LabelSet":
        """An invalid fact: the stated reason, None everywhere else."""
        return cls(validity="Invalid", invalidity_reason=reason)


def label_codes(labelsets: Sequence[LabelSet]) -> np.ndarray:
    """(N, 7) int64 codes: column c indexes ``LABEL_SPACE[DIMENSIONS[c]]``."""
    codes = np.empty((len(labelsets), len(DIMENSIONS)), dtype=np.int64)
    for c, dim in enumerate(DIMENSIONS):
        codes[:, c] = [LABEL_SPACE[dim].index(labels.get(dim)) for labels in labelsets]
    return codes


def labelsets_from_codes(codes: np.ndarray) -> list[LabelSet]:
    """Inverse of :func:`label_codes`; masked or out-of-range codes raise."""
    spaces = [LABEL_SPACE[dim] for dim in DIMENSIONS]
    if np.any((codes < 0) | (codes >= [len(space) for space in spaces])):
        raise LabelOutOfRange("label code outside its dimension's label space")
    return [
        LabelSet(**{dim.value: space[code] for dim, space, code in zip(DIMENSIONS, spaces, row)})
        for row in codes.tolist()
    ]


@dataclass
class RawAnnotation:
    """Prompt-style annotation output, prior to canonicalization."""

    categories: list[str] = field(default_factory=list)
    main_category: str = NONE_LABEL
    time: str = NONE_LABEL
    referent: str = NONE_LABEL
    specificity: str = NONE_LABEL
    duration: list[str] = field(default_factory=list)
    context_sufficient: str = NONE_LABEL
    broken: str = "No"
    broken_reason: str = NONE_LABEL
    followup: str = NONE_LABEL


@dataclass(frozen=True)
class CanonResult:
    """Canonical labels plus the ambiguity-exclusion flag."""

    labels: LabelSet
    excluded: bool = False
    exclusion_reason: Optional[str] = None


@dataclass
class FactRecord:
    """One personal-fact text with optional dialogue context and labels."""

    id: str
    text: str
    context: Optional[str] = None
    source: str = "Other"
    labels: Optional[LabelSet] = None
    excluded: bool = False
    exclusion_reason: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("fact id must be a non-empty string")
        if not isinstance(self.text, str):
            raise ValueError(f"fact {self.id!r} text must be a string")
        if not self.text.strip():
            raise ValueError(f"fact {self.id!r} has empty text")
        if self.source not in SOURCES:
            raise UnknownEnumValue("source", self.source)


def _checked(field_name: str, value: str, accepted: set[str]) -> str:
    value = value.strip()
    if value not in accepted:
        raise UnknownEnumValue(field_name, value)
    return value


def canonicalize(raw: RawAnnotation) -> CanonResult:
    """Map a prompt-style annotation onto the canonical label space.

    Raises :class:`UnknownEnumValue` for any field value outside the prompt
    enumerations (including ``broken_reason="None"`` on a broken fact, which
    the prompt forbids).
    """
    for item in raw.categories:
        _checked("categories", item, _CATEGORY_ITEM_ACCEPTED)
    main = _checked("main_category", raw.main_category, _MAIN_ACCEPTED)
    time = _checked("time", raw.time, _TIME_ACCEPTED)
    referent = _checked("referent", raw.referent, _REFERENT_ACCEPTED)
    _checked("specificity", raw.specificity, _SPECIFICITY_ACCEPTED)
    duration_items = [
        _checked("duration", item, _DURATION_ITEM_ACCEPTED) for item in raw.duration
    ]
    context_sufficient = _checked(
        "context_sufficient", raw.context_sufficient, _YES_NO_NONE
    )
    broken = _checked("broken", raw.broken, _BROKEN_ACCEPTED)
    reason = _checked("broken_reason", raw.broken_reason, _REASON_ACCEPTED)
    followup = _checked("followup", raw.followup, _FOLLOWUP_ACCEPTED)

    durations = {d for d in duration_items if d != NONE_LABEL}
    excluded = len(durations) == 2
    exclusion_reason = "dual-duration" if excluded else None

    if broken == "Yes":
        if reason == NONE_LABEL:
            raise UnknownEnumValue("broken_reason", raw.broken_reason)
        labels = LabelSet.invalid(_REASON_ALIASES.get(reason, reason))
    elif context_sufficient == "No":
        labels = LabelSet.invalid("Context Insufficient")
    else:
        duration = durations.pop() if len(durations) == 1 else NONE_LABEL
        if followup == "No":
            followup = "Maybe"
        if time != "Future":
            followup = NONE_LABEL
        labels = LabelSet(
            main_category=_MAIN_ALIASES.get(main, main),
            time=time,
            referent=referent,
            duration=duration,
            validity="Valid",
            invalidity_reason=NONE_LABEL,
            followup=followup,
        )
    return CanonResult(labels=labels, excluded=excluded, exclusion_reason=exclusion_reason)


def validate_labelset(labels: LabelSet) -> list[str]:
    """List every cross-dimension invariant the label set violates.

    Violations are data, not failures: an empty list means the set is
    internally consistent.
    """
    violations = []
    if labels.validity == "Valid" and labels.invalidity_reason != NONE_LABEL:
        violations.append("valid fact carries invalidity reason")
    if labels.validity == "Invalid":
        for dim in (
            Dimension.MAIN_CATEGORY,
            Dimension.TIME,
            Dimension.REFERENT,
            Dimension.DURATION,
            Dimension.FOLLOWUP,
        ):
            if labels.get(dim) != NONE_LABEL:
                violations.append(f"invalid fact carries non-None {dim.value}")
    if labels.followup in ("Yes", "Maybe") and labels.time != "Future":
        violations.append("followup requires Future time")
    return violations


def labelset_to_raw(labels: LabelSet) -> RawAnnotation:
    """Re-express canonical labels as a prompt-style annotation.

    Used to check that canonicalization is idempotent: feeding the result
    back through :func:`canonicalize` must reproduce ``labels``.
    """
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
