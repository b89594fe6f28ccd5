import json
import os
import socket
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from factkit import embeddings
from factkit.cli import SETTINGS
from factkit.embeddings import (
    BACKOFF,
    FORMAT_VERSION,
    MAGIC,
    EmbeddingMatrix,
    fetch_embeddings,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from factkit.errors import (
    BadMagic,
    DimensionDrift,
    DimensionMismatch,
    ProtocolError,
    TransportError,
    TruncatedFile,
    ZeroVector,
)

from embed_server import MockEmbedServer, raw_reply


def matrix_of(rows, ids=None):
    rows = np.asarray(rows, dtype=np.float32)
    if ids is None:
        ids = tuple(f"id{i}" for i in range(rows.shape[0]))
    return EmbeddingMatrix(rows=rows, row_ids=tuple(ids))


# --- construction ---


def test_matrix_rejects_misaligned_ids():
    with pytest.raises(DimensionMismatch):
        EmbeddingMatrix(rows=np.zeros((2, 3)), row_ids=("a",))


def test_matrix_rejects_duplicate_ids():
    with pytest.raises(DimensionMismatch):
        EmbeddingMatrix(rows=np.zeros((2, 3)), row_ids=("a", "a"))


@pytest.mark.parametrize("shape", [(2, 0), (0, 0)])
def test_matrix_rejects_rows_without_columns(shape):
    with pytest.raises(DimensionMismatch, match="with columns"):
        EmbeddingMatrix(rows=np.zeros(shape), row_ids=tuple("ab"[: shape[0]]))


def test_matrix_rejects_non_finite():
    for value in (np.nan, np.inf, -np.inf):
        for cell in ((0, 0), (-1, -1)):
            rows = np.zeros((2, 3))
            rows[cell] = value
            with pytest.raises(ValueError, match="embedding rows contain non-finite values"):
                EmbeddingMatrix(rows=rows, row_ids=("a", "b"))


def test_matrix_of_no_rows_constructs():
    matrix = EmbeddingMatrix(rows=np.zeros((0, 3), dtype=np.float32), row_ids=())
    assert len(matrix) == 0 and matrix.dim == 3


def test_matrix_checks_its_rows_without_an_elementwise_mask():
    rows = np.random.default_rng(0).standard_normal((4096, 1024), dtype=np.float32)
    ids = tuple(map(str, range(len(rows))))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        EmbeddingMatrix(rows=rows, row_ids=ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < rows.nbytes / 16, f"peak {(peak - start) / rows.nbytes:.3f} x rows"


def test_take_orders_rows_by_id():
    m = matrix_of([[1, 0], [2, 0], [3, 0]], ids=("a", "b", "c"))
    picked = m.take(["c", "a"])
    assert picked.dtype == np.float64
    assert picked[:, 0].tolist() == [3.0, 1.0]


# --- file format ---


def test_save_load_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    m = matrix_of(rng.normal(size=(4, 8)).astype(np.float32))
    path = tmp_path / "vectors.emb"
    save_embeddings(path, m)
    loaded = load_embeddings(path)
    assert loaded.row_ids == m.row_ids
    assert loaded.rows.dtype == np.float32
    assert np.array_equal(loaded.rows, m.rows)


def test_load_decodes_declared_shape(tmp_path):
    m = matrix_of([[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "v.emb"
    save_embeddings(path, m)
    loaded = load_embeddings(path)
    assert loaded.rows.shape == (2, 3)


def test_load_truncated_payload(tmp_path):
    m = matrix_of([[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "v.emb"
    save_embeddings(path, m)
    data = path.read_bytes()
    path.write_bytes(data[: 16 + 5 * 4])  # 5 of the 6 declared floats
    with pytest.raises(TruncatedFile):
        load_embeddings(path)


def test_payload_shorter_than_the_reported_size_is_truncated(tmp_path, monkeypatch):
    # the size check passes, as for a file that shrinks after it runs; the payload read is short
    m = matrix_of([[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "v.emb"
    save_embeddings(path, m)
    data = path.read_bytes()
    path.write_bytes(data[: 16 + 5 * 4])
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((*real(fd)[:6], len(data), *real(fd)[7:])))
    with pytest.raises(TruncatedFile, match="payload is short"):
        load_embeddings(path)


def test_load_truncated_id_table(tmp_path):
    m = matrix_of([[1, 2], [3, 4]])
    path = tmp_path / "v.emb"
    save_embeddings(path, m)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(TruncatedFile):
        load_embeddings(path)


def test_load_trailing_garbage(tmp_path):
    m = matrix_of([[1, 2]])
    path = tmp_path / "v.emb"
    save_embeddings(path, m)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(TruncatedFile):
        load_embeddings(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "v.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        load_embeddings(path)


def test_load_zero_width_file_is_dimension_mismatch(tmp_path):
    path = tmp_path / "v.emb"  # two rows, ids "a" and "b", no columns
    ids = struct.pack("<I", 1) + b"a" + struct.pack("<I", 1) + b"b"
    path.write_bytes(struct.pack("<4I", MAGIC, FORMAT_VERSION, 2, 0) + ids)
    with pytest.raises(DimensionMismatch):
        load_embeddings(path)


def test_save_refuses_an_unencodable_id_before_touching_the_file(tmp_path):
    path = tmp_path / "m.emb"
    path.write_bytes(b"earlier file")
    matrix = EmbeddingMatrix(rows=np.ones((2, 3)), row_ids=("a", "b\ud800"))
    with pytest.raises(UnicodeEncodeError):
        save_embeddings(path, matrix)
    assert path.read_bytes() == b"earlier file"


def test_load_unicode_ids(tmp_path):
    m = matrix_of([[1.0]], ids=("café",))
    path = tmp_path / "v.emb"
    save_embeddings(path, m)
    assert load_embeddings(path).row_ids == ("café",)


# --- normalization ---


def test_l2_normalize_three_four_five():
    m = matrix_of([[3.0, 4.0]])
    normalized = l2_normalize(m)
    assert np.allclose(normalized.rows, [[0.6, 0.8]], atol=1e-7)


def test_l2_normalize_idempotent():
    m = matrix_of([[0.6, 0.8]])
    again = l2_normalize(l2_normalize(m))
    assert np.allclose(again.rows, [[0.6, 0.8]], atol=1e-7)


def test_l2_normalize_norm_oracle():
    rng = np.random.default_rng(11)
    m = matrix_of(rng.normal(size=(5, 16)))
    normalized = l2_normalize(m)
    # independent recomputation of each row norm
    for row in np.asarray(normalized.rows, dtype=np.float64):
        norm = sum(float(x) ** 2 for x in row) ** 0.5
        assert abs(norm - 1.0) < 1e-6


def test_l2_normalize_rejects_zero_row():
    m = matrix_of([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVector) as excinfo:
        l2_normalize(m)
    assert excinfo.value.row == 1


# --- HTTP fetching ---


def fetch(endpoint, texts, batch_size, **given):
    """``fetch_embeddings`` as ``embed-fetch`` calls it with the default settings.

    The ids are "0", "1", ... and no header is added; ``given`` overrides any of them.
    """
    defaults = {
        "ids": [str(i) for i in range(len(texts))],
        "timeout": SETTINGS["embedding.timeout"][0],
        "retries": SETTINGS["embedding.retries"][0],
        "headers": None,
    }
    return fetch_embeddings(endpoint, texts, batch_size, **{**defaults, **given})


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries wait 0.01 s and 0.02 s, not BACKOFF's seconds."""
    monkeypatch.setattr(embeddings, "BACKOFF", 0.01)


def test_fetch_bytelen_oracle():
    with MockEmbedServer(mode="bytelen") as server:
        m = fetch(server.url, ["ab", "abc"], batch_size=2)
    assert m.rows.tolist() == [[2.0], [3.0]]
    assert m.row_ids == ("0", "1")


def test_fetch_batch_size_invariance():
    texts = ["one", "two", "three", "four", "five"]
    with MockEmbedServer(mode="hash", dim=6) as server:
        one = fetch(server.url, texts, batch_size=1)
        whole = fetch(server.url, texts, batch_size=5)
        odd = fetch(server.url, texts, batch_size=2)
    assert np.array_equal(one.rows, whole.rows)
    assert np.array_equal(one.rows, odd.rows)


def test_fetch_dimension_drift():
    with MockEmbedServer(mode="hash", dim=4, drift_after=1) as server:
        with pytest.raises(DimensionDrift):
            fetch(server.url, ["a", "b", "c"], batch_size=1)


@pytest.mark.usefixtures("fast_backoff")
def test_fetch_retries_transient_500():
    with MockEmbedServer(mode="bytelen", fail_next=1) as server:
        m = fetch(server.url, ["hello"], batch_size=1, retries=2)
    assert m.rows.tolist() == [[5.0]]


@pytest.mark.usefixtures("fast_backoff")
def test_fetch_exhausted_retries_raise():
    with MockEmbedServer(mode="bytelen", fail_next=10) as server:
        with pytest.raises(ProtocolError):
            fetch(server.url, ["hello"], batch_size=1, retries=1)


def test_fetch_waits_backoff_then_twice_backoff_between_retries(monkeypatch):
    waits = []
    monkeypatch.setattr(embeddings, "time", SimpleNamespace(sleep=waits.append))
    with MockEmbedServer(mode="bytelen", fail_next=2, fail_status=503) as server:
        m = fetch(server.url, ["hello"], batch_size=1, retries=2)
    assert m.rows.tolist() == [[5.0]]
    assert server.requests_seen == 3
    assert waits == [BACKOFF, 2 * BACKOFF]


def test_fetch_unreachable_endpoint():
    with pytest.raises(TransportError):
        fetch(
            "http://127.0.0.1:9/embed", ["x"], batch_size=1, retries=0, timeout=0.2
        )


def test_fetch_custom_ids():
    with MockEmbedServer(mode="bytelen") as server:
        m = fetch(server.url, ["a", "bb"], batch_size=2, ids=["u", "v"])
    assert m.row_ids == ("u", "v")


def test_fetch_rejects_negative_retries():
    with pytest.raises(ValueError):
        fetch("http://127.0.0.1:9/embed", ["x"], batch_size=1, retries=-1)


@pytest.mark.parametrize(
    "kwargs, error, message",
    [({"batch_size": 0}, ValueError, "batch_size must be positive"),
     ({"ids": ["u"]}, DimensionMismatch, "different lengths")],
    ids=["zero-batch", "ids-mismatch"],
)
def test_fetch_refuses_arguments_before_any_request(kwargs, error, message):
    with pytest.raises(error, match=message):
        fetch("http://127.0.0.1:9/embed", ["x", "y"], **{"batch_size": 1, **kwargs})


# --- HTTP transport: what each reply maps to, and how many requests it takes ---


@pytest.mark.parametrize(
    "reply, retries, error, requests_seen",
    [
        (raw_reply("404 Not Found", b"no such route"), 2, ProtocolError, 1),
        (raw_reply("503 Service Unavailable", b"busy"), 2, ProtocolError, 3),
        (raw_reply("200 OK", b"<html>not json</html>"), 2, ProtocolError, 1),
        (b"garbage\r\n", 1, TransportError, 2),
        (raw_reply("200 OK", b'{"dim": 0, "embeddings": [[]]}'), 2, ProtocolError, 1),
        (raw_reply("200 OK", b'{"dim": true, "embeddings": [[0.5]]}'), 2, ProtocolError, 1),
        (raw_reply("200 OK", b'{"dim": 1.0, "embeddings": [[0.5]]}'), 2, ProtocolError, 1),
        (raw_reply("200 OK", b'{"dim": 1, "embeddings": [[true]]}'), 2, ProtocolError, 1),
        (raw_reply("200 OK", b'{"dim": 1, "embeddings": [["0.5"]]}'), 2, ProtocolError, 1),
        (raw_reply("200 OK", b'{"dim": 1, "embeddings": [[1%s]]}' % (b"0" * 400)), 2,
         ProtocolError, 1),
        (raw_reply("200 OK", b"[" * 100_000), 2, ProtocolError, 1),
        (raw_reply("200 OK", b'{"dim": 1, "embeddings": [[1e308]]}'), 2, ProtocolError, 1),
    ],
    ids=[
        "404-at-once", "503-retried", "non-json-200", "bad-status-line-retried", "zero-width",
        "dim-true", "dim-float", "boolean-row", "numeric-string-row", "huge-int-row",
        "deep-nesting", "beyond-float32",
    ],
)
@pytest.mark.usefixtures("fast_backoff")
def test_fetch_reply_mapping(reply, retries, error, requests_seen):
    with MockEmbedServer(mode="raw", payload=reply) as server:
        with pytest.raises(error), warnings.catch_warnings():
            warnings.simplefilter("error")  # a refused reply warns of nothing on the way
            fetch(server.url, ["x"], batch_size=1, retries=retries)
    assert server.requests_seen == requests_seen


def test_fetch_read_timeout_is_transport_error():
    with MockEmbedServer(mode="bytelen", delay=0.5) as server:
        with pytest.raises(TransportError):
            fetch(server.url, ["x"], batch_size=1, retries=0, timeout=0.1)
    assert server.requests_seen == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_fetch_does_not_follow_redirects(status):
    # the bearer token must not reach whatever host the endpoint redirects to
    with MockEmbedServer(mode="bytelen") as target:
        moved = raw_reply(f"{status} Moved", headers=f"Location: {target.url}\r\n")
        with MockEmbedServer(mode="raw", payload=moved) as server:
            with pytest.raises(ProtocolError) as excinfo:
                fetch(
                    server.url, ["x"], batch_size=1,
                    headers={"Authorization": "Bearer secret"},
                )
    assert excinfo.value.status == status
    assert (server.requests_seen, target.requests_seen) == (1, 0)
    assert server.headers_seen[0]["Authorization"] == "Bearer secret"


def test_fetch_redirect_to_ftp_is_protocol_error():
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    moved = raw_reply("302 Found", headers=f"Location: ftp://127.0.0.1:{port}/x\r\n")
    with MockEmbedServer(mode="raw", payload=moved) as server:
        with pytest.raises(ProtocolError) as excinfo:
            fetch(server.url, ["x"], batch_size=1, retries=0, timeout=1.0)
    assert excinfo.value.status == 302
    assert server.requests_seen == 1


def test_fetch_rejects_non_http_and_malformed_urls(tmp_path):
    # a readable reply file: a client that opened file:// URLs would succeed
    reply = tmp_path / "reply.json"
    reply.write_text(json.dumps({"dim": 1, "embeddings": [[1.0]]}))
    with MockEmbedServer(mode="bytelen") as server:
        address = server.url.split("://", 1)[1]
        for url in (address, f"ftp://{address}", reply.as_uri(), "http://", "http://[::1"):
            with pytest.raises(TransportError):
                fetch(url, ["x"], batch_size=1, retries=0, timeout=1.0)
    assert server.requests_seen == 0
