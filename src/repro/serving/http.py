"""The stdlib HTTP front end for the serving layer: ``repro serve``.

A :class:`KBServer` is an ``http.server.HTTPServer`` whose accepted
connections are handed to a **fixed pool** of handler threads through a
queue — not thread-per-request, so the thread count is an explicit,
testable contract (:func:`resolve_server_workers`: negative raises, 0
means the default, an explicit N >= 1 is honored exactly, including
``--workers 1`` = exactly one handler thread).  Shutdown is graceful and complete: :meth:`KBServer.stop` stops
the acceptor, drains the pool with sentinels, joins every thread, and
closes the socket — no dangling threads.

Endpoints (all JSON, serialized with sorted keys and tight separators so
identical answers are byte-identical):

* ``GET /lookup?s=&p=&o=``   — SPO pattern lookup (blank/absent = wildcard)
* ``POST /query``            — conjunctive query; body ``{"patterns":
  [["?x", "rel:bornIn", "?c"], ...], "select": ..., "distinct": ...,
  "order_by": ..., "limit": ...}``
* ``GET /topk?k=&s=&p=&o=``  — top-k matching triples by confidence
* ``GET /healthz``           — liveness + KB epoch/size
* ``GET /metrics``           — cache accounting + per-endpoint latency

Malformed input is a 400 with ``{"error": ...}``; unknown paths are 404;
a supported path with the wrong verb is 405.
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..kb.store import ReadableStore
from .engine import BadRequest, QueryEngine

#: Handler threads when ``workers == 0`` (the "serve --workers" default).
DEFAULT_SERVER_WORKERS = 8

#: Largest accepted ``/query`` body, a guard against unbounded reads.
MAX_BODY_BYTES = 1 << 20

_ENDPOINTS = {"/lookup": "GET", "/query": "POST", "/topk": "GET",
              "/healthz": "GET", "/metrics": "GET"}


def resolve_server_workers(workers: int) -> int:
    """Resolve the ``serve --workers`` spec to a thread count.

    A negative count raises, ``0`` means the server default (:data:`DEFAULT_SERVER_WORKERS`), and an
    explicit ``N >= 1`` is honored exactly — ``workers=1`` really serves
    with one handler thread.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative (0 = server default)")
    return workers if workers else DEFAULT_SERVER_WORKERS


def dumps(payload: dict) -> bytes:
    """The canonical response encoding: sorted keys, tight separators."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


class _KBRequestHandler(BaseHTTPRequestHandler):
    """Routes the five endpoints onto the server's :class:`QueryEngine`."""

    server_version = "repro-serve/1.0"
    # One request per connection: handler threads never block holding an
    # idle keep-alive socket, so a fixed pool drains its queue and stop()
    # joins promptly.
    protocol_version = "HTTP/1.0"
    #: Socket timeout so a half-open connection cannot wedge a worker.
    timeout = 30

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def engine(self) -> QueryEngine:
        return self.server.engine  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        expected = _ENDPOINTS.get(path)
        if expected is None:
            self._send(404, {"error": f"unknown path: {path}",
                             "paths": sorted(_ENDPOINTS)})
            return
        if method != expected:
            self._send(405, {"error": f"{path} expects {expected}"})
            return
        params = {
            name: values[-1]
            for name, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        try:
            if path == "/healthz":
                payload = self.engine.healthz()
            elif path == "/metrics":
                payload = self.engine.metrics()
            elif path == "/lookup":
                payload = self.engine.lookup_json(params)
            elif path == "/topk":
                payload = self.engine.topk_json(params)
            else:  # /query
                payload = self.engine.query_json(self._read_json_body())
        except BadRequest as error:
            self._send(400, {"error": str(error)})
            return
        except Exception as error:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._send(200, payload)

    def _read_json_body(self) -> object:
        length_text = self.headers.get("Content-Length")
        try:
            length = int(length_text) if length_text else 0
        except ValueError:
            raise BadRequest("invalid Content-Length") from None
        if length <= 0:
            raise BadRequest("a JSON body is required")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"body too large (> {MAX_BODY_BYTES} bytes)")
        body = self.rfile.read(length)
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"malformed JSON body: {error}") from error

    def _send(self, status: int, payload: dict) -> None:
        body = dumps(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class KBServer(HTTPServer):
    """An HTTP server dispatching requests to a fixed handler-thread pool."""

    allow_reuse_address = True

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        verbose: bool = False,
    ) -> None:
        self.engine = engine
        self.workers = resolve_server_workers(workers)
        self.verbose = verbose
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._acceptor: Optional[threading.Thread] = None
        self._serving = False
        super().__init__((host, port), _KBRequestHandler)

    # HTTPServer hands each accepted connection here; instead of handling
    # it inline (or spawning a thread per request), park it on the queue
    # for the fixed pool.
    def process_request(self, request, client_address) -> None:
        self._queue.put((request, client_address))

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def _spawn_pool(self) -> None:
        """Mark the server as serving and start the handler threads."""
        self._serving = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"kb-serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is the ephemeral one if 0 was asked."""
        return self.server_address[0], self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "KBServer":
        """Spawn the handler pool and a background acceptor thread."""
        if self._serving:
            return self
        self._spawn_pool()
        self._acceptor = threading.Thread(
            target=self.serve_forever, name="kb-serve-acceptor", daemon=True
        )
        self._acceptor.start()
        return self

    def run_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground mode)."""
        if self._serving:
            raise RuntimeError("server already started")
        self._spawn_pool()
        try:
            self.serve_forever()
        finally:
            self._drain_pool()
            self.server_close()
            self._serving = False

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: acceptor, pool, and socket — no thread left."""
        if not self._serving:
            return
        self.shutdown()
        if self._acceptor is not None:
            self._acceptor.join(timeout)
            self._acceptor = None
        self._drain_pool(timeout)
        self.server_close()
        self._serving = False

    def _drain_pool(self, timeout: float = 10.0) -> None:
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def __enter__(self) -> "KBServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_kb(
    store: ReadableStore,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 0,
    cache_size: int = 1024,
    verbose: bool = False,
) -> KBServer:
    """Build an engine over ``store`` and bind (but not start) a server."""
    engine = QueryEngine(store, cache_size=cache_size)
    return KBServer(engine, host=host, port=port, workers=workers, verbose=verbose)
