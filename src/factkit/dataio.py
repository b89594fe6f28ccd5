"""Fact file reading/writing, exact deduplication, and stratified splits.

Facts live in UTF-8 JSON-lines files, one record per line::

    {"id": "f1", "text": "I love Italian food.", "context": null,
     "source": "MSC",
     "labels": {"main_category": "Preferences", "time": "Present",
                "referent": "Self", "duration": "Long-term",
                "validity": "Valid", "invalidity_reason": "None",
                "followup": "None"},
     "excluded": false, "exclusion_reason": null}

``labels``, ``context``, ``excluded``, and ``exclusion_reason`` are optional
on input. Label values are the canonical enumeration strings.

Split files carry one header line ``seed=<n> train=<p>/<q> val=<p>/<q>
test=<p>/<q>`` followed by three lines of comma-separated ids (train, val,
test). The shuffle behind a split uses the documented xoshiro256** generator
so the same facts, fractions, and seed reproduce the same assignment in any
implementation of this format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .errors import DuplicateId, EmptyInput, ParseError, UnknownEnumValue
from .prng import Xoshiro256StarStar
from .taxonomy import Dimension, FactRecord, LabelSet

FractionLike = Union[Fraction, float, int, str]


def _to_fraction(value: FractionLike) -> Fraction:
    # Floats go through their decimal literal so 0.7 means 7/10, not the
    # nearest binary double.
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass
class SplitSpec:
    """Fractions, seed, and stratification dimension for one split."""

    train_frac: FractionLike = Fraction(7, 10)
    val_frac: FractionLike = Fraction(1, 10)
    test_frac: FractionLike = Fraction(2, 10)
    seed: int = 0
    stratify_by: Dimension = Dimension.MAIN_CATEGORY

    def __post_init__(self):
        self.train_frac = _to_fraction(self.train_frac)
        self.val_frac = _to_fraction(self.val_frac)
        self.test_frac = _to_fraction(self.test_frac)
        if not all(0 <= fraction <= 1 for fraction in self.fractions):
            raise ValueError("split fractions must lie in [0, 1]")
        if self.train_frac + self.val_frac + self.test_frac != 1:
            raise ValueError("split fractions must sum to exactly 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def fractions(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.train_frac, self.val_frac, self.test_frac)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint id lists whose union is the input id set."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def _fact_from_obj(obj: dict, line_no: int) -> FactRecord:
    if not isinstance(obj, dict):
        raise ParseError(line_no, "record is not a JSON object")
    try:
        labels = None
        if obj.get("labels") is not None:
            labels = LabelSet.from_dict(obj["labels"])
        excluded = obj.get("excluded", False)
        if not isinstance(excluded, bool):
            raise ValueError(f"'excluded' must be true or false, not {excluded!r}")
        return FactRecord(
            id=obj["id"],
            text=obj["text"],
            context=obj.get("context"),
            source=obj.get("source", "Other"),
            labels=labels,
            excluded=excluded,
            exclusion_reason=obj.get("exclusion_reason"),
        )
    except KeyError as exc:
        raise ParseError(line_no, f"missing field {exc.args[0]!r}") from exc
    except (UnknownEnumValue, ValueError, TypeError) as exc:
        raise ParseError(line_no, str(exc)) from exc


def read_jsonl(path: Union[str, Path]) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) per non-blank line; bad JSON raises ParseError."""
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON: {exc.msg}") from exc
            yield line_no, obj


def read_facts(path: Union[str, Path]) -> list[FactRecord]:
    """Read a JSON-lines facts file, preserving record order.

    Raises :class:`ParseError` with the offending line number on malformed
    lines and :class:`DuplicateId` when two records share an id.
    """
    facts: list[FactRecord] = []
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path):
        fact = _fact_from_obj(obj, line_no)
        if fact.id in seen:
            raise DuplicateId(fact.id)
        seen.add(fact.id)
        facts.append(fact)
    return facts


def fact_to_obj(fact: FactRecord) -> dict:
    return {
        "id": fact.id,
        "text": fact.text,
        "context": fact.context,
        "source": fact.source,
        "labels": fact.labels.as_dict() if fact.labels is not None else None,
        "excluded": fact.excluded,
        "exclusion_reason": fact.exclusion_reason,
    }


def write_facts(path: Union[str, Path], facts: Iterable[FactRecord]) -> None:
    """Write facts as JSON lines; inverse of :func:`read_facts`."""
    with open(path, "w", encoding="utf-8") as handle:
        for fact in facts:
            handle.write(json.dumps(fact_to_obj(fact), ensure_ascii=False) + "\n")


def dedup_exact(facts: Sequence[FactRecord]) -> list[FactRecord]:
    """Keep the first occurrence of each exact text (after trimming)."""
    seen: set[str] = set()
    kept = []
    for fact in facts:
        key = fact.text.strip()
        if key not in seen:
            seen.add(key)
            kept.append(fact)
    return kept


def largest_remainder_counts(size: int, fractions: Sequence[Fraction]) -> list[int]:
    """Apportion ``size`` items to parts by largest remainder.

    Ties in the fractional remainders go to the earlier part, so with the
    (train, val, test) ordering a tie favors train, then val.
    """
    quotas = [frac * size for frac in fractions]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = size - sum(counts)
    for index in sorted(range(len(fractions)), key=lambda i: -remainders[i])[:leftover]:
        counts[index] += 1
    return counts


def stratified_split(facts: Sequence[FactRecord], spec: SplitSpec) -> SplitAssignment:
    """Split facts into train/val/test within each stratum.

    Every fact must be labeled, with excluded facts already filtered out.
    Strata are processed in lexicographic label order and shuffled with a
    single xoshiro256** stream seeded from ``spec.seed``; per-stratum sizes
    follow largest-remainder apportionment of the spec fractions. Ids within
    each returned split keep their input order.
    """
    if not facts:
        raise EmptyInput("no facts to split")
    strata: dict[str, list[int]] = {}
    for index, fact in enumerate(facts):
        if fact.labels is None:
            raise ValueError(f"fact {fact.id!r} has no labels; cannot stratify")
        if fact.excluded:
            raise ValueError(
                f"fact {fact.id!r} is excluded; filter exclusions before splitting"
            )
        strata.setdefault(fact.labels.get(spec.stratify_by), []).append(index)

    rng = Xoshiro256StarStar(spec.seed)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label in sorted(strata):
        indices = list(strata[label])
        rng.shuffle(indices)
        n_train, n_val, _ = largest_remainder_counts(len(indices), spec.fractions)
        parts[0].extend(indices[:n_train])
        parts[1].extend(indices[n_train : n_train + n_val])
        parts[2].extend(indices[n_train + n_val :])

    def ids_in_input_order(selected: list[int]) -> tuple[str, ...]:
        return tuple(facts[i].id for i in sorted(selected))

    return SplitAssignment(
        train=ids_in_input_order(parts[0]),
        val=ids_in_input_order(parts[1]),
        test=ids_in_input_order(parts[2]),
    )


def write_split(path: Union[str, Path], assignment: SplitAssignment, spec: SplitSpec) -> None:
    """Write a split file: header with seed and fractions, then three id lines."""
    train_f, val_f, test_f = spec.fractions
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"seed={spec.seed} train={train_f} val={val_f} test={test_f}\n")
        for ids in (assignment.train, assignment.val, assignment.test):
            handle.write(",".join(ids) + "\n")


def read_split(path: Union[str, Path]) -> tuple[SplitAssignment, SplitSpec]:
    """Read a split file back into an assignment and its spec."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if len(lines) < 4:
        raise ParseError(len(lines), "split file needs a header and three id lines")
    header: dict[str, str] = {}
    for token in lines[0].split():
        if "=" not in token:
            raise ParseError(1, f"malformed header token {token!r}")
        key, value = token.split("=", 1)
        header[key] = value
    try:
        spec = SplitSpec(
            train_frac=Fraction(header["train"]),
            val_frac=Fraction(header["val"]),
            test_frac=Fraction(header["test"]),
            seed=int(header["seed"]),
        )
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(1, f"bad split header: {exc}") from exc
    splits = [tuple(line.split(",")) if line else () for line in lines[1:4]]
    return SplitAssignment(train=splits[0], val=splits[1], test=splits[2]), spec
