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
on input. Label values are the canonical enumeration strings. An id is a
non-empty string without commas or line breaks, so a split file can hold it.

Split files carry one header line ``seed=<n> train=<p>/<q> val=<p>/<q>
test=<p>/<q>`` followed by three lines of comma-separated ids (train, val,
test); no id appears twice. The shuffle behind a split uses the documented
xoshiro256** generator so the same facts, fractions, and seed reproduce the
same assignment in any implementation of this format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .errors import DuplicateId, EmptyInput, ParseError, UnknownEnumValue
from .prng import _MASK64, Xoshiro256StarStar
from .taxonomy import FactRecord, LabelSet


@dataclass
class SplitSpec:
    """Fractions and seed for one split; strata are always the main category.

    These are exactly the values a split file's header records. The fractions
    are exact ``Fraction``s, each in [0, 1], summing to exactly 1.
    """

    train_frac: Fraction = Fraction(7, 10)
    val_frac: Fraction = Fraction(1, 10)
    test_frac: Fraction = Fraction(2, 10)
    seed: int = 0

    def __post_init__(self):
        if not all(0 <= fraction <= 1 for fraction in self.fractions):
            raise ValueError("split fractions must lie in [0, 1]")
        if self.train_frac + self.val_frac + self.test_frac != 1:
            raise ValueError("split fractions must sum to exactly 1")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed {self.seed} is not in [0, 2**64)")

    @property
    def fractions(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.train_frac, self.val_frac, self.test_frac)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint id lists whose union is the input id set."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def _text_lines(path: Union[str, Path]) -> Iterator[tuple[int, str]]:
    """(line number, text) per line of a UTF-8 file; undecodable bytes raise ParseError.

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``, as when the file is read as text.
    """
    line_no = 0
    with open(path, "rb") as handle:
        for chunk in handle:
            for raw in chunk.splitlines():
                line_no += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    message = f"not UTF-8 at byte {exc.start}: {exc.reason}"
                    raise ParseError(line_no, message) from exc
                yield line_no, line


def _encodable(obj: object) -> bool:
    """Whether every string in a parsed JSON value, its keys too, encodes as UTF-8."""
    pending = [obj]
    while pending:  # a loop, not recursion: the value may nest as deep as json.loads allows
        value = pending.pop()
        if isinstance(value, dict):
            pending += [*value.keys(), *value.values()]
        elif isinstance(value, list):
            pending += value
        elif isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                return False
    return True


def read_jsonl(path: Union[str, Path]) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) per non-blank line.

    Bad UTF-8, bad JSON, or a string holding a lone surrogate, which UTF-8
    cannot encode, raises ParseError.
    """
    for line_no, line in _text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too many digits or too deep a nesting
            raise ParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
        # the line decoded strictly, so only a \u escape can spell a lone surrogate
        if "\\u" in line and not _encodable(obj):
            raise ParseError(line_no, "a string holds a lone surrogate, which UTF-8 cannot encode")
        yield line_no, obj


def read_facts(path: Union[str, Path]) -> list[FactRecord]:
    """Read a JSON-lines facts file, preserving record order.

    Raises :class:`ParseError` with the offending line number on malformed
    lines and :class:`DuplicateId` when two records share an id.
    """
    facts: list[FactRecord] = []
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path):
        fact = fact_from_obj(obj, line_no)
        if fact.id in seen:
            raise DuplicateId(fact.id)
        seen.add(fact.id)
        facts.append(fact)
    return facts


def fact_from_obj(obj: dict, line_no: int) -> FactRecord:
    """The fact in one parsed JSON line; inverse of :func:`fact_to_obj`.

    A missing ``id`` or ``text``, or a value that :class:`FactRecord` or
    :class:`LabelSet` refuses, raises :class:`ParseError` naming ``line_no``.
    """
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


def write_jsonl(path: Union[str, Path], records: Iterable[object]) -> None:
    """Write one JSON value per line, as UTF-8 text; inverse of :func:`read_jsonl`."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_facts(path: Union[str, Path], facts: Iterable[FactRecord]) -> None:
    """Write facts as JSON lines; inverse of :func:`read_facts`."""
    write_jsonl(path, map(fact_to_obj, facts))


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
    Strata are the main-category labels, processed in lexicographic order
    and shuffled with a single xoshiro256** stream seeded from
    ``spec.seed``; per-stratum sizes follow largest-remainder apportionment
    of the spec fractions. Ids within each returned split keep their input
    order.
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
        strata.setdefault(fact.labels.main_category, []).append(index)

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
    """Read a split file back into an assignment and its spec.

    A malformed header, a line after the three id lines, or an id listed
    twice within or across them raises :class:`ParseError` naming the line.
    """
    lines = [line for _, line in _text_lines(path)]
    if len(lines) < 4:
        raise ParseError(len(lines), "split file needs a header and three id lines")
    if len(lines) > 4:
        raise ParseError(5, "split file has a line after its three id lines")
    header: dict[str, str] = {}
    for token in lines[0].split():
        key, equals, value = token.partition("=")
        if not equals or key not in ("seed", "train", "val", "test") or key in header:
            raise ParseError(1, f"malformed header token {token!r}: unknown or repeated key")
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
    splits = [tuple(line.split(",")) if line else () for line in lines[1:]]
    seen: set[str] = set()
    for line_no, ids in enumerate(splits, start=2):
        for record_id in ids:
            if record_id in seen:
                raise ParseError(line_no, f"split id {record_id!r} is listed twice")
            seen.add(record_id)
    return SplitAssignment(train=splits[0], val=splits[1], test=splits[2]), spec
