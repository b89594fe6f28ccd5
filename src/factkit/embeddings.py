"""Embedding storage, retrieval from an HTTP provider, and normalization.

The text encoder itself is an external service; this module only moves its
output around. Vectors are stored in a compact binary format (extension
``.emb``): a 16-byte header of four little-endian u32 words (magic ``FEMB``,
format version, row count N, dimension d), then N*d little-endian float32
values row-major, then N ids, each a u32 byte length followed by UTF-8 text.

Rows are float32 on disk and in memory; training and prediction upcast one
batch or block at a time to float64 before doing arithmetic.

The provider is reached with ``urllib.request`` over ``http``/``https`` only;
HTTPS verifies against the system CA store, and no redirect is followed. The
HTTP stack (``urllib.request``, ``http.client``, ``ssl``) is imported on the
first request, so the commands that never fetch do not load it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadMagic,
    DimensionDrift,
    DimensionMismatch,
    EmptyInput,
    FactkitError,
    ProtocolError,
    TransportError,
    TruncatedFile,
    ZeroVector,
)

MAGIC = int.from_bytes(b"FEMB", "little")
FORMAT_VERSION = 1

_NORM_ROWS = 1024  # rows that l2_normalize holds as float64 at once
BACKOFF = 0.2  # seconds before fetch_embeddings' first retry; each later wait doubles


def _row_blocks(n: int, limit: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` of ``np.array_split``'s near-equal blocks of ``n`` rows, as few as keep
    each to ``limit`` rows, but none of one row unless ``n`` is 1: numpy sends a one-row
    product to GEMV, which rounds unlike GEMM. So at ``limit`` < 3 blocks take 2 or 3 rows."""
    k = min(-(-n // max(limit, 1)), max(n // 2, 1))
    q, r = divmod(n, max(k, 1))
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class EmbeddingMatrix:
    """N finite row vectors aligned one-to-one with N fact ids."""

    rows: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise DimensionMismatch(f"rows must be 2-D with columns, got shape {rows.shape}")
        if rows.shape[0] != len(self.row_ids):
            raise DimensionMismatch(
                f"{rows.shape[0]} rows but {len(self.row_ids)} ids"
            )
        if len(set(self.row_ids)) != len(self.row_ids):
            raise DimensionMismatch("row ids are not unique")
        if not np.isfinite((rows.min(initial=0.0), rows.max(initial=0.0))).all():  # no N x d mask
            raise ValueError("embedding rows contain non-finite values")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def index_of(self) -> dict[str, int]:
        return {row_id: i for i, row_id in enumerate(self.row_ids)}

    def select(self, ids: Sequence[str]) -> "EmbeddingMatrix":
        """The matrix of the given ids' rows, in the given order and the stored dtype.

        Ids that list every row in stored order give this matrix itself, not a copy.
        """
        if tuple(ids) == self.row_ids:
            return self
        index = self.index_of()
        try:
            picks = [index[i] for i in ids]
        except KeyError as exc:
            raise DimensionMismatch(f"id {exc.args[0]!r} not in embedding matrix") from exc
        return EmbeddingMatrix(rows=self.rows[picks], row_ids=tuple(ids))

    def take(self, ids: Sequence[str]) -> np.ndarray:
        """Rows for the given ids, in the given order, as float64."""
        return self.select(ids).rows.astype(np.float64)


def save_embeddings(path: Union[str, Path], matrix: EmbeddingMatrix) -> None:
    """Write a ``.emb`` file; float32 storage regardless of input dtype.

    Every id is encoded before the file opens, so an id that UTF-8 cannot
    encode raises :class:`UnicodeEncodeError` and leaves ``path`` as it was.
    """
    rows = np.ascontiguousarray(matrix.rows, dtype="<f4")
    n, d = rows.shape
    encoded = [row_id.encode("utf-8") for row_id in matrix.row_ids]
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4I", MAGIC, FORMAT_VERSION, n, d))
        rows.tofile(handle)
        for blob in encoded:
            handle.write(struct.pack("<I", len(blob)))
            handle.write(blob)


def load_embeddings(path: Union[str, Path]) -> EmbeddingMatrix:
    """Read a ``.emb`` file, checking the declared byte counts exactly.

    The float32 payload is read straight into the returned array, so it is
    held in memory once.
    """
    with open(path, "rb") as handle:
        header = handle.read(16)
        if len(header) < 16:
            raise TruncatedFile(f"{path}: shorter than the 16-byte header")
        magic, version, n, d = struct.unpack("<4I", header)
        if magic != MAGIC:
            raise BadMagic(f"{path}: not an embedding file (magic {magic:#010x})")
        if version != FORMAT_VERSION:
            raise BadMagic(f"{path}: unsupported format version {version}")
        short = TruncatedFile(f"{path}: header declares {n}x{d} floats but the payload is short")
        # checked against the file size first, so a corrupt header allocates nothing
        if os.fstat(handle.fileno()).st_size < 16 + n * d * 4:
            raise short
        rows = np.empty((n, d), dtype="<f4")
        if handle.readinto(rows) != rows.nbytes:
            raise short
        table = handle.read()
    ids = []
    offset = 0
    for _ in range(n):
        if len(table) < offset + 4:
            raise TruncatedFile(f"{path}: id table is short")
        (length,) = struct.unpack_from("<I", table, offset)
        offset += 4
        if len(table) < offset + length:
            raise TruncatedFile(f"{path}: id table is short")
        try:
            ids.append(table[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BadMagic(f"{path}: id {len(ids)} is not UTF-8: {exc.reason}") from exc
        offset += length
    if offset != len(table):
        raise TruncatedFile(f"{path}: {len(table) - offset} trailing bytes")
    try:
        return EmbeddingMatrix(rows=rows, row_ids=tuple(ids))
    except ValueError as exc:  # non-finite rows
        raise BadMagic(f"{path}: {exc}") from exc


def l2_normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit Euclidean norm.

    Raises :class:`ZeroVector` with the first offending row index if any row
    has zero norm. Each block of rows is upcast to float64, divided by its
    norms and stored into the result, which has the stored dtype.
    """
    result = np.empty_like(matrix.rows)
    for start in range(0, len(result), _NORM_ROWS):
        block = matrix.rows[start : start + _NORM_ROWS].astype(np.float64)
        norms = np.linalg.norm(block, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroVector(start + int(zero[0]))
        block /= norms[:, None]
        result[start : start + len(block)] = block
    return EmbeddingMatrix(rows=result, row_ids=matrix.row_ids)


def fetch_embeddings(
    endpoint: str,
    texts: Sequence[str],
    batch_size: int,
    ids: Sequence[str],
    timeout: float,
    retries: int,
    headers: Optional[dict[str, str]],
) -> EmbeddingMatrix:
    """Embed ``texts`` via ``POST endpoint`` in batches of ``batch_size``.

    The endpoint takes ``{"texts": [...]}`` and answers 200 with
    ``{"dim": d, "embeddings": [[...], ...]}``. Rows come back in input
    order whatever the batch size, named by ``ids``. Each request waits up
    to ``timeout`` seconds and carries ``headers`` (``None``: none beyond
    the JSON content type). Only ``http``/``https`` URLs are sent. Transport
    failures (:class:`TransportError`) and 5xx answers are retried up to
    ``retries`` times, after waits of ``BACKOFF``, ``2 * BACKOFF``, ...
    seconds; other statuses and non-JSON bodies raise :class:`ProtocolError`
    immediately, as does a reply whose ``dim`` is not a JSON integer or whose
    rows are not a finite matrix of JSON numbers (booleans and strings are
    refused) with at least one column. A change of dimension between
    batches raises :class:`DimensionDrift`; no texts raise :class:`EmptyInput`.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if not texts:
        raise EmptyInput("no texts to embed")
    if len(ids) != len(texts):
        raise DimensionMismatch("ids and texts have different lengths")

    chunks: list[np.ndarray] = []
    declared_dim: Optional[int] = None
    for start in range(0, len(texts), batch_size):
        batch = list(texts[start : start + batch_size])
        body = _post_batch(endpoint, batch, timeout, retries, headers)
        if not isinstance(body, dict):
            raise ProtocolError(200, f"reply is not a JSON object: {body!r}")
        dim = body.get("dim")
        vectors = body.get("embeddings")
        if not isinstance(vectors, list) or len(vectors) != len(batch):
            raise ProtocolError(200, f"expected {len(batch)} embeddings, got {vectors!r}")
        try:
            with np.errstate(over="ignore"):  # beyond float32 becomes inf, refused below
                array = np.asarray(vectors, dtype="<f4")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(200, f"embeddings are not a numeric matrix: {exc}") from exc
        if type(dim) is not int:  # a JSON true or 1.0 would compare equal to 1
            raise ProtocolError(200, f"declared dim {dim!r} is not a JSON integer")
        if array.ndim != 2 or dim != array.shape[1]:
            raise ProtocolError(200, f"declared dim {dim!r} does not match payload")
        # numpy reads true as 1.0 and "0.5" as 0.5; only JSON numbers are embeddings
        kinds = set(map(type, itertools.chain.from_iterable(vectors))) - {int, float}
        if kinds:
            names = ", ".join(sorted(kind.__name__ for kind in kinds))
            raise ProtocolError(200, f"embeddings are not a numeric matrix: rows hold {names}")
        if dim == 0:
            raise ProtocolError(200, "embeddings have no columns")
        if not np.isfinite((array.min(initial=0.0), array.max(initial=0.0))).all():
            raise ProtocolError(200, "embeddings contain non-finite values")
        if declared_dim is None:
            declared_dim = dim
        elif dim != declared_dim:
            raise DimensionDrift(
                f"endpoint returned dim {dim} after declaring {declared_dim}"
            )
        chunks.append(array)
    return EmbeddingMatrix(rows=np.vstack(chunks), row_ids=tuple(ids))


@functools.cache
def _opener():
    """urlopen's opener less its redirect, file, FTP and data handlers: a 3xx is an HTTPError."""
    import urllib.request

    opener = urllib.request.OpenerDirector()
    for handler in (urllib.request.ProxyHandler(), urllib.request.HTTPHandler(),
                    urllib.request.HTTPSHandler(), urllib.request.HTTPDefaultErrorHandler(),
                    urllib.request.HTTPErrorProcessor()):
        opener.add_handler(handler)
    return opener


def _post_batch(endpoint, batch, timeout, retries, headers) -> dict:
    import http.client
    import urllib.error
    import urllib.request

    if not endpoint.lower().startswith(("http://", "https://")):
        raise TransportError(f"POST {endpoint} refused: only http and https URLs are supported")
    data = json.dumps({"texts": batch}).encode("utf-8")
    request_headers = {"Content-Type": "application/json", **(headers or {})}
    last_error: FactkitError
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(BACKOFF * (2 ** (attempt - 1)))
        try:
            request = urllib.request.Request(endpoint, data, request_headers, method="POST")
            try:
                with _opener().open(request, timeout=timeout) as reply:
                    status, raw = reply.status, reply.read()
            except urllib.error.HTTPError as reply:  # a URLError, so caught first
                with reply:
                    status, raw = reply.code, reply.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:  # ValueError: a bad URL
            last_error = TransportError(f"POST {endpoint} failed: {exc}")
            continue
        if status != 200:
            last_error = ProtocolError(status, raw.decode("utf-8", "replace"))
            if status < 500:
                raise last_error
            continue
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(200, f"non-JSON body: {exc}") from exc
    raise last_error
