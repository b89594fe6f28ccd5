"""In-process mock embedding endpoint for tests.

Serves ``POST /embed`` with ``{"texts": [...]}`` and answers
``{"dim": d, "embeddings": [[...], ...]}``. Four deterministic modes:

* ``bytelen``: each text maps to the 1-d vector [len(utf-8 bytes)].
* ``hash``: each text maps to a fixed d-dim vector seeded from its bytes.
* ``payload``: every reply carries ``payload`` as its embeddings, verbatim
  (NaN included), to exercise malformed replies.
* ``body``: every reply's whole JSON body is ``payload``, to exercise
  replies that are not an object.

Failure injection: ``fail_next`` answers that many 500s before succeeding,
and ``drift_after`` switches the dimension after that many requests to
exercise the drift check.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


def _hash_vector(text: str, dim: int) -> list[float]:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return [round(float(x), 6) for x in rng.normal(size=dim)]


class MockEmbedServer:
    def __init__(
        self,
        mode: str = "bytelen",
        dim: int = 4,
        fail_next: int = 0,
        drift_after: int = 0,
        payload: object = None,
    ):
        self.mode = mode
        self.payload = payload
        self.dim = dim
        self.fail_next = fail_next
        self.drift_after = drift_after
        self.requests_seen = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length))
                outer.requests_seen += 1
                if outer.fail_next > 0:
                    outer.fail_next -= 1
                    self.send_response(500)
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
                payload = json.dumps(reply).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

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
