"""In-process mock embedding endpoint for tests.

Serves ``POST /embed`` with ``{"texts": [...]}`` and answers
``{"dim": d, "embeddings": [[...], ...]}``. Five deterministic modes:

* ``bytelen``: each text maps to the 1-d vector [len(utf-8 bytes)].
* ``hash``: each text maps to a fixed d-dim vector seeded from its bytes.
* ``payload``: every reply carries ``payload`` as its embeddings, verbatim
  (NaN included), to exercise malformed replies.
* ``body``: every reply's whole JSON body is ``payload``, to exercise
  replies that are not an object; a ``bytes`` payload is the body as it is,
  say JSON nested deeper than a parser allows.
* ``raw``: every reply is ``payload``, bytes written to the socket verbatim,
  status line included (see :func:`raw_reply`), to exercise any status,
  body or malformed reply.

Failure injection: ``fail_next`` answers that many ``fail_status`` replies
(500 unless given) before succeeding, ``drift_after`` switches the dimension
after that many requests to exercise the drift check, and ``delay`` waits
that many seconds before each reply to exercise read timeouts.
``headers_seen`` keeps each request's headers, in arrival order. A GET is
answered 405 but is counted and its headers kept, so a test sees a redirect
that turned the POST into a GET.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


def _hash_vector(text: str, dim: int) -> list[float]:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return [round(float(x), 6) for x in rng.normal(size=dim)]


def raw_reply(status: str, body: bytes = b"", headers: str = "") -> bytes:
    """One whole HTTP/1.0 reply, e.g. ``raw_reply("404 Not Found", b"gone")``.

    ``headers`` holds any extra header lines, each ending in CRLF.
    """
    head = f"HTTP/1.0 {status}\r\n{headers}Content-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


class MockEmbedServer:
    def __init__(
        self,
        mode: str = "bytelen",
        dim: int = 4,
        fail_next: int = 0,
        fail_status: int = 500,
        drift_after: int = 0,
        payload: object = None,
        delay: float = 0.0,
    ):
        self.mode = mode
        self.payload = payload
        self.dim = dim
        self.fail_next = fail_next
        self.fail_status = fail_status
        self.drift_after = drift_after
        self.delay = delay
        self.requests_seen = 0
        self.headers_seen = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def handle(self):
                try:
                    super().handle()
                except BrokenPipeError:  # the client timed out before a delayed reply
                    pass

            def do_GET(self):
                outer.requests_seen += 1
                outer.headers_seen.append(self.headers)
                self.send_error(405)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length))
                outer.requests_seen += 1
                outer.headers_seen.append(self.headers)
                time.sleep(outer.delay)
                if outer.mode == "raw":
                    self.wfile.write(outer.payload)
                    return
                if outer.fail_next > 0:
                    outer.fail_next -= 1
                    self.send_response(outer.fail_status)
                    self.end_headers()
                    self.wfile.write(b"injected failure")
                    return
                texts = body["texts"]
                dim = outer.dim
                if outer.drift_after and outer.requests_seen > outer.drift_after:
                    dim = outer.dim + 1
                if outer.mode == "bytelen":
                    vectors = [[float(len(t.encode("utf-8")))] for t in texts]
                    dim = 1
                elif outer.mode == "hash":
                    vectors = [_hash_vector(t, dim) for t in texts]
                else:
                    vectors = outer.payload
                reply = {"dim": dim, "embeddings": vectors}
                if outer.mode == "body":
                    reply = outer.payload
                payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll interval, so that shutdown() returns at once rather than after 0.5 s
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/embed"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        return False
