"""Exception types shared across the toolkit.

Every error raised by the library subclasses :class:`FactkitError` so callers
can distinguish library failures from bugs. Each class declares as
``exit_code`` the process exit code the CLI returns when it is raised.
"""

from __future__ import annotations


class FactkitError(Exception):
    """Base class for all library errors.

    A subclass whose constructor takes arguments of its own passes them on to
    ``Exception`` unchanged and formats its message from them with
    ``template``, so ``args`` is what a pickle round trip rebuilds it from.
    """
    exit_code = 1
    template: str | None = None

    def __str__(self) -> str:
        return super().__str__() if self.template is None else self.template.format(*self.args)


# --- taxonomy / annotation ---

class UnknownEnumValue(FactkitError):
    """A raw field value falls outside the accepted enumeration."""
    exit_code = 4
    template = "unknown value {1!r} for field {0!r}"

    def __init__(self, field: str, value: object):
        super().__init__(field, value)
        self.field = field
        self.value = value


# --- data files and splitting ---

class ParseError(FactkitError):
    """A record line could not be parsed."""
    exit_code = 4
    template = "line {0}: {1}"

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)
        self.line_no = line_no


class DuplicateId(FactkitError):
    """Two records share the same id."""
    exit_code = 4
    template = "duplicate record id {0!r}"

    def __init__(self, record_id: str):
        super().__init__(record_id)
        self.record_id = record_id


class EmptyInput(FactkitError):
    """An operation that needs at least one element received none."""
    exit_code = 4


# --- embedding storage and transport ---

class BadMagic(FactkitError):
    """Embedding or checkpoint file does not start with the expected header."""
    exit_code = 5


class TruncatedFile(FactkitError):
    """File byte count does not match what its header declares."""
    exit_code = 5


class DimensionMismatch(FactkitError):
    """Array shapes or id lists do not line up."""
    exit_code = 5


class ZeroVector(FactkitError):
    """A row with zero norm cannot be normalized."""
    exit_code = 5
    template = "row {0} has zero norm"

    def __init__(self, row: int):
        super().__init__(row)
        self.row = row


class TransportError(FactkitError):
    """The embedding endpoint could not be reached."""
    exit_code = 6


class ProtocolError(FactkitError):
    """The embedding endpoint answered outside its contract."""
    exit_code = 6
    template = "endpoint returned status {0}: {1:.200}"  # the first 200 characters of the body

    def __init__(self, status: int, body: str):
        super().__init__(status, body)
        self.status = status
        self.body = body


class DimensionDrift(FactkitError):
    """The embedding endpoint returned inconsistent dimensions across batches."""
    exit_code = 6


# --- clustering and sampling ---

class KTooLarge(FactkitError):
    """Requested more clusters than there are points."""
    exit_code = 7


class AlignmentError(FactkitError):
    """Facts and cluster assignments have different lengths."""
    exit_code = 7


# --- model training ---

class EmptySplit(FactkitError):
    """A split needed for training or evaluation contains no facts."""
    exit_code = 8


class NonFiniteLoss(FactkitError):
    """Training produced a NaN or infinite loss."""
    exit_code = 8


class LabelOutOfRange(FactkitError):
    """A target index does not fit the category's label count."""
    exit_code = 8


# --- metrics and agreement ---

class LengthMismatch(FactkitError):
    """Gold and predicted sequences differ in length."""
    exit_code = 9


class SchemaMismatch(FactkitError):
    """Reports or models being combined do not share a label space."""
    exit_code = 9


class NoComparableUnits(FactkitError):
    """No unit carries two or more ratings, so agreement is undefined."""
    exit_code = 9


class MissingRatings(FactkitError):
    """A statistic that needs complete rating tables saw missing entries."""
    exit_code = 9


class OutOfRange(FactkitError):
    """A value lies outside its documented domain."""
    exit_code = 9


# --- baseline features ---

class EmptyVocabulary(FactkitError):
    """Every candidate term was filtered out of the vocabulary."""
    exit_code = 10


# --- corpus analysis ---

class EmptyTables(FactkitError):
    """Distribution aggregation received no prediction tables or no facts."""
    exit_code = 11


# --- CLI ---

class ConfigError(FactkitError):
    """The run configuration file or flags are invalid."""
    exit_code = 3
