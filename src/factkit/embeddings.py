"""Embedding storage, retrieval from an HTTP provider, and normalization.

The text encoder itself is an external service; this module only moves its
output around. Vectors are stored in a compact binary format (extension
``.emb``): a 16-byte header of four little-endian u32 words (magic ``FEMB``,
format version, row count N, dimension d), then N*d little-endian float32
values row-major, then N ids, each a u32 byte length followed by UTF-8 text.

Rows are float32 on disk; training code upcasts to float64 before doing
arithmetic.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import requests

from .errors import (
    BadMagic,
    DimensionDrift,
    DimensionMismatch,
    ProtocolError,
    TransportError,
    TruncatedFile,
    ZeroVector,
)

MAGIC = int.from_bytes(b"FEMB", "little")
FORMAT_VERSION = 1


@dataclass(frozen=True)
class EmbeddingMatrix:
    """N row vectors aligned one-to-one with N fact ids."""

    rows: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2:
            raise DimensionMismatch(f"rows must be 2-D, got shape {rows.shape}")
        if rows.shape[0] != len(self.row_ids):
            raise DimensionMismatch(
                f"{rows.shape[0]} rows but {len(self.row_ids)} ids"
            )
        if len(set(self.row_ids)) != len(self.row_ids):
            raise DimensionMismatch("row ids are not unique")
        if rows.size and not np.all(np.isfinite(rows)):
            raise ValueError("embedding rows contain non-finite values")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def index_of(self) -> dict[str, int]:
        return {row_id: i for i, row_id in enumerate(self.row_ids)}

    def take(self, ids: Sequence[str]) -> np.ndarray:
        """Rows for the given ids, in the given order, as float64."""
        index = self.index_of()
        try:
            picks = [index[i] for i in ids]
        except KeyError as exc:
            raise DimensionMismatch(f"id {exc.args[0]!r} not in embedding matrix") from exc
        return self.rows[picks].astype(np.float64)


def save_embeddings(path: Union[str, Path], matrix: EmbeddingMatrix) -> None:
    """Write a ``.emb`` file; float32 storage regardless of input dtype."""
    rows = np.ascontiguousarray(matrix.rows, dtype="<f4")
    n, d = rows.shape
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4I", MAGIC, FORMAT_VERSION, n, d))
        handle.write(rows.tobytes())
        for row_id in matrix.row_ids:
            encoded = row_id.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)))
            handle.write(encoded)


def load_embeddings(path: Union[str, Path]) -> EmbeddingMatrix:
    """Read a ``.emb`` file, checking the declared byte counts exactly."""
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise TruncatedFile(f"{path}: shorter than the 16-byte header")
    magic, version, n, d = struct.unpack_from("<4I", data, 0)
    if magic != MAGIC:
        raise BadMagic(f"{path}: not an embedding file (magic {magic:#010x})")
    if version != FORMAT_VERSION:
        raise BadMagic(f"{path}: unsupported format version {version}")
    offset = 16
    payload = n * d * 4
    if len(data) < offset + payload:
        raise TruncatedFile(
            f"{path}: header declares {n}x{d} floats but the payload is short"
        )
    rows = np.frombuffer(data, dtype="<f4", count=n * d, offset=offset).reshape(n, d)
    offset += payload
    ids = []
    for _ in range(n):
        if len(data) < offset + 4:
            raise TruncatedFile(f"{path}: id table is short")
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if len(data) < offset + length:
            raise TruncatedFile(f"{path}: id table is short")
        ids.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    if offset != len(data):
        raise TruncatedFile(f"{path}: {len(data) - offset} trailing bytes")
    return EmbeddingMatrix(rows=rows.copy(), row_ids=tuple(ids))


def l2_normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit Euclidean norm.

    Raises :class:`ZeroVector` with the first offending row index if any row
    has zero norm.
    """
    rows = matrix.rows.astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))
    normalized = rows / norms[:, None]
    return EmbeddingMatrix(
        rows=normalized.astype(matrix.rows.dtype), row_ids=matrix.row_ids
    )


def fetch_embeddings(
    endpoint: str,
    texts: Sequence[str],
    batch_size: int,
    ids: Optional[Sequence[str]] = None,
    timeout: float = 30.0,
    retries: int = 2,
    backoff: float = 0.2,
    headers: Optional[dict[str, str]] = None,
) -> EmbeddingMatrix:
    """Embed ``texts`` via ``POST endpoint`` in batches of ``batch_size``.

    The endpoint takes ``{"texts": [...]}`` and answers 200 with
    ``{"dim": d, "embeddings": [[...], ...]}``. Rows come back in input
    order whatever the batch size. Connection failures and 5xx answers are
    retried up to ``retries`` times with exponential backoff; other statuses
    raise :class:`ProtocolError` immediately, as does a reply whose rows are
    not a finite numeric matrix. A change of dimension between batches
    raises :class:`DimensionDrift`.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if ids is None:
        ids = tuple(str(i) for i in range(len(texts)))
    if len(ids) != len(texts):
        raise DimensionMismatch("ids and texts have different lengths")

    chunks: list[np.ndarray] = []
    declared_dim: Optional[int] = None
    for start in range(0, len(texts), batch_size):
        batch = list(texts[start : start + batch_size])
        body = _post_batch(endpoint, batch, timeout, retries, backoff, headers)
        if not isinstance(body, dict):
            raise ProtocolError(200, f"reply is not a JSON object: {body!r}")
        dim = body.get("dim")
        vectors = body.get("embeddings")
        if not isinstance(vectors, list) or len(vectors) != len(batch):
            raise ProtocolError(200, f"expected {len(batch)} embeddings, got {vectors!r}")
        try:
            array = np.asarray(vectors, dtype="<f4")
        except (TypeError, ValueError) as exc:
            raise ProtocolError(200, f"embeddings are not a numeric matrix: {exc}") from exc
        if array.ndim != 2 or dim != array.shape[1]:
            raise ProtocolError(200, f"declared dim {dim!r} does not match payload")
        if not np.all(np.isfinite(array)):
            raise ProtocolError(200, "embeddings contain non-finite values")
        if declared_dim is None:
            declared_dim = int(dim)
        elif int(dim) != declared_dim:
            raise DimensionDrift(
                f"endpoint returned dim {dim} after declaring {declared_dim}"
            )
        chunks.append(array)
    if not chunks:
        raise ValueError("no texts to embed")
    return EmbeddingMatrix(rows=np.vstack(chunks), row_ids=tuple(ids))


def _post_batch(endpoint, batch, timeout, retries, backoff, headers) -> dict:
    last_error: Optional[Exception] = None
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
        try:
            response = requests.post(
                endpoint, json={"texts": batch}, timeout=timeout, headers=headers
            )
        except requests.RequestException as exc:
            last_error = TransportError(f"POST {endpoint} failed: {exc}")
            continue
        if response.status_code >= 500:
            last_error = ProtocolError(response.status_code, response.text)
            continue
        if response.status_code != 200:
            raise ProtocolError(response.status_code, response.text)
        try:
            return response.json()
        except ValueError as exc:
            raise ProtocolError(200, f"non-JSON body: {exc}") from exc
    assert last_error is not None
    raise last_error
