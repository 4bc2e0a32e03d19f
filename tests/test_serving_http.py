"""Tests for the ``repro serve`` HTTP front end: endpoint schemas, error
codes, the worker-count contract, byte-identity across server-thread
counts, and graceful shutdown."""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.kb import Entity, Relation, Triple, TripleStore
from repro.serving import (
    DEFAULT_SERVER_WORKERS,
    KBServer,
    QueryEngine,
    resolve_server_workers,
    serve_kb,
)

BORN_IN = Relation("rel:bornIn")
LOCATED_IN = Relation("rel:locatedIn")


def make_store() -> TripleStore:
    triples = []
    for i in range(5):
        triples.append(
            Triple(
                Entity(f"world:P{i}"),
                BORN_IN,
                Entity(f"world:C{i % 2}"),
                confidence=0.6 + 0.05 * i,
            )
        )
    for c in range(2):
        triples.append(
            Triple(Entity(f"world:C{c}"), LOCATED_IN, Entity("world:K"), 0.9)
        )
    return TripleStore(triples)


def http_get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read()


def http_post(url: str, payload) -> tuple[int, bytes]:
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read()


@pytest.fixture(scope="module")
def server():
    with serve_kb(make_store(), port=0, workers=2) as running:
        yield running


@pytest.fixture(scope="module")
def url(server):
    return server.url


class TestWorkersContract:
    """The serve --workers contract: negative raises, 0 means the
    default, an explicit 1 means exactly one server thread."""

    def test_zero_means_default(self):
        assert resolve_server_workers(0) == DEFAULT_SERVER_WORKERS

    def test_explicit_counts_honored_exactly(self):
        assert resolve_server_workers(1) == 1
        assert resolve_server_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_server_workers(-1)

    def test_server_spawns_exactly_requested_threads(self):
        engine = QueryEngine(make_store())
        server = KBServer(engine, port=0, workers=1)
        try:
            server.start()
            workers = [
                t for t in threading.enumerate()
                if t.name.startswith("kb-serve-worker")
            ]
            assert len(workers) == 1
            # And it actually serves.
            status, body = http_get(server.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
        finally:
            server.stop()

    def test_cli_rejects_negative_workers(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["serve", "--kb", str(tmp_path / "none.nt"), "--workers", "-2"], out=out
        )
        assert code == 2
        assert "--workers" in out.getvalue()

    def test_cli_rejects_bad_cache_size(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["serve", "--kb", str(tmp_path / "none.nt"), "--cache-size", "0"], out=out
        )
        assert code == 2
        assert "--cache-size" in out.getvalue()

    def test_cli_rejects_missing_kb(self, tmp_path):
        out = io.StringIO()
        code = main(["serve", "--kb", str(tmp_path / "none.nt")], out=out)
        assert code == 2
        assert "cannot load KB" in out.getvalue()


class TestEndpointSchemas:
    def test_healthz(self, url):
        status, body = http_get(url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == {"kb_epoch", "status", "triples"}
        assert payload["status"] == "ok"
        assert payload["triples"] == 7
        # the identity epoch is a 32-hex-digit content digest
        assert len(payload["kb_epoch"]) == 32

    def test_lookup_schema(self, url):
        status, body = http_get(url + "/lookup?p=rel:bornIn")
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == {"kb_epoch", "count", "triples"}
        assert payload["count"] == 5
        for triple in payload["triples"]:
            assert set(triple) == {"s", "p", "o", "confidence", "source", "scope"}
            assert triple["p"] == "<<rel:bornIn>>"

    def test_lookup_wildcards_and_point(self, url):
        status, body = http_get(url + "/lookup")
        assert status == 200 and json.loads(body)["count"] == 7
        status, body = http_get(url + "/lookup?s=world:P0&p=rel:bornIn&o=world:C0")
        assert status == 200 and json.loads(body)["count"] == 1

    def test_query_schema(self, url):
        status, body = http_post(
            url + "/query",
            {
                "patterns": [
                    ["?x", "rel:bornIn", "?c"],
                    ["?c", "rel:locatedIn", "world:K"],
                ],
                "limit": 3,
            },
        )
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == {"kb_epoch", "count", "vars", "bindings"}
        assert payload["vars"] == ["c", "x"]
        assert payload["count"] == 3
        for binding in payload["bindings"]:
            assert set(binding) == {"c", "x"}

    def test_topk_schema(self, url):
        status, body = http_get(url + "/topk?p=rel:bornIn&k=2")
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == {"kb_epoch", "k", "count", "results"}
        assert payload["k"] == 2 and payload["count"] == 2
        confidences = [t["confidence"] for t in payload["results"]]
        assert confidences == sorted(confidences, reverse=True)

    def test_metrics_smoke(self, url):
        http_get(url + "/lookup?p=rel:locatedIn")
        http_get(url + "/lookup?p=rel:locatedIn")
        status, body = http_get(url + "/metrics")
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == {"kb_epoch", "triples", "cache", "endpoints"}
        assert payload["cache"]["hits"] >= 1
        assert payload["triples"] == 7
        lookup = payload["endpoints"]["lookup"]
        assert lookup["requests"] >= 2
        for field in ("count", "mean", "p50", "p95", "p99", "max"):
            assert field in lookup["latency_ms"]


class TestErrorHandling:
    def expect_error(self, fn, *args):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn(*args)
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_unknown_path_is_404(self, url):
        code, payload = self.expect_error(http_get, url + "/nope")
        assert code == 404
        assert sorted(payload["paths"]) == [
            "/healthz", "/lookup", "/metrics", "/query", "/topk"
        ]

    def test_wrong_method_is_405(self, url):
        code, __ = self.expect_error(http_get, url + "/query")
        assert code == 405
        code, __ = self.expect_error(http_post, url + "/lookup", {})
        assert code == 405

    def test_malformed_json_body_is_400(self, url):
        code, payload = self.expect_error(
            http_post, url + "/query", b"{not json"
        )
        assert code == 400 and "malformed JSON" in payload["error"]

    def test_malformed_patterns_are_400(self, url):
        for body in (
            {"patterns": []},
            {"patterns": [["?x", "rel:bornIn"]]},
            {"patterns": "nope"},
            {"patterns": [["?x", "rel:bornIn", "?c"]], "select": ["zz"]},
            {"patterns": [["?x", "rel:bornIn", "?c"]], "limit": "five"},
            {"patterns": [["?x", "rel:bornIn", "?c"]], "unknown_field": 1},
            {"patterns": [["?", "rel:bornIn", "?c"]]},
        ):
            code, payload = self.expect_error(http_post, url + "/query", body)
            assert code == 400 and "error" in payload, body

    def test_bad_topk_k_is_400(self, url):
        for query in ("k=zero", "k=0", "k=-3"):
            code, __ = self.expect_error(http_get, url + f"/topk?{query}")
            assert code == 400, query

    def test_bad_lookup_term_is_400(self, url):
        code, __ = self.expect_error(http_get, url + "/lookup?o=%22broken")
        assert code == 400


class TestByteIdentity:
    """Identical query sets return byte-identical JSON across cold cache,
    warm cache, and 1-vs-8 server threads."""

    REQUESTS = (
        ("GET", "/lookup?p=rel:bornIn"),
        ("GET", "/lookup?s=world:P1"),
        ("GET", "/topk?p=rel:bornIn&k=3"),
        ("POST", "/query"),
        ("GET", "/lookup?p=rel:bornIn"),  # warm repeat of the first
    )
    QUERY_BODY = {
        "patterns": [
            ["?x", "rel:bornIn", "?c"],
            ["?c", "rel:locatedIn", "?k"],
        ],
        "order_by": "x",
    }

    def run_requests(self, base: str) -> list[bytes]:
        out = []
        for method, path in self.REQUESTS:
            if method == "GET":
                out.append(http_get(base + path)[1])
            else:
                out.append(http_post(base + path, self.QUERY_BODY)[1])
        return out

    def test_cold_warm_and_thread_counts_agree(self):
        store_a, store_b = make_store(), make_store()
        with serve_kb(store_a, port=0, workers=1) as one:
            cold = self.run_requests(one.url)
            warm = self.run_requests(one.url)
        with serve_kb(store_b, port=0, workers=8) as eight:
            wide = self.run_requests(eight.url)
        assert cold == warm == wide
        assert cold[0] == cold[-1]


class TestGracefulShutdown:
    @staticmethod
    def serve_threads():
        """Live kb-serve threads, by identity (other fixtures' servers may
        be running concurrently — only the delta matters)."""
        return {
            t for t in threading.enumerate() if t.name.startswith("kb-serve")
        }

    def test_no_dangling_threads(self):
        baseline = self.serve_threads()
        server = serve_kb(make_store(), port=0, workers=4).start()
        # Acceptor + 4 workers while running.
        assert len(self.serve_threads() - baseline) == 5
        status, __ = http_get(server.url + "/healthz")
        assert status == 200
        server.stop()
        assert self.serve_threads() - baseline == set()
        # The socket is released: a new server can bind and serve again.
        replacement = serve_kb(make_store(), port=0, workers=1).start()
        try:
            assert http_get(replacement.url + "/healthz")[0] == 200
        finally:
            replacement.stop()
        assert self.serve_threads() - baseline == set()

    def test_stop_is_idempotent_and_start_guarded(self):
        baseline = self.serve_threads()
        server = serve_kb(make_store(), port=0, workers=1)
        server.start()
        server.stop()
        server.stop()
        assert self.serve_threads() - baseline == set()


class TestQueryOrderAcrossStores:
    """``repro serve --kb`` fills its store in the order a segment snapshot
    yields, so a limited ``/query`` picks the same bindings from ``--kb``
    and from ``--segments`` of one build."""

    def test_limited_query_agrees_between_kb_and_segments(
        self, tmp_path, monkeypatch
    ):
        nt, segments = str(tmp_path / "kb.nt"), str(tmp_path / "seg")
        code = main(
            ["build", "--seed", "7", "--people", "40", "--out", nt,
             "--segments", segments],
            out=io.StringIO(),
        )
        assert code == 0
        served = []

        class Loaded:
            """Stands in for the server: keeps the store the CLI loaded."""

            address = ("127.0.0.1", 0)
            workers = 1

            def run_forever(self):
                pass

        def capture(kb, **__):
            served.append(kb)
            return Loaded()

        monkeypatch.setattr("repro.serving.serve_kb", capture)
        for source in (["--kb", nt], ["--segments", segments]):
            assert main(["serve", *source], out=io.StringIO()) == 0
        monkeypatch.undo()

        query = {"patterns": [["?x", "<<rdfs:prefLabel>>", "?y"]], "limit": 7}
        bodies = []
        try:
            for kb in served:
                with serve_kb(kb, port=0, workers=1) as running:
                    status, body = http_post(running.url + "/query", query)
                assert status == 200
                bodies.append(body)
        finally:
            served[1].close()
        assert json.loads(bodies[0])["count"] == 7
        assert bodies[0] == bodies[1]
