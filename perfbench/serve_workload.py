"""``serve``: a closed-loop zipf read mix against ``repro serve``.

Why it exists: it is the read-side use of ``kb.segments``, through
``serving``, and the serving half of the KB lifecycle.  It bypasses
extraction and reasoning.  The result cache is smaller than the set of
distinct requests, so only the zipf skew keeps it useful, and a
``/metrics`` scrape every ``METRICS_EVERY`` requests is the monitoring
traffic a deployed server sees.

Two client threads each send a request and wait for its answer (a closed
loop with 2 connections, one per core of the reference host).  An open
loop is left out: on a shared 2-core host its backlog collapsed from run
to run.  Scrapes are placed by request count, not by time, so the traffic
mix is the same however fast the server is.  A single-threaded asyncio
client was tried in place of the two threads: in interleaved runs it
completed about 10% fewer requests per second and its p99 was no steadier.

The host's speed (``common.HostClock``) is read just before and just after
the traffic, while the server is idle.  Traffic in 1 s bursts with a
reading between them was tried: the pause before each burst raised the p99
from about 2.6 to 3.1-5.6 ms and made it three times less steady.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional
from urllib.parse import parse_qs, urlencode, urlsplit

from common import (
    ROOT,
    SLICE_S,
    Metric,
    Outcome,
    dir_bytes,
    kb_shape,
    put_quality,
    scale_records,
    scenario_inputs,
    sub_seed,
)
from tracing import load_spans, per_op

#: People in the scaled baseline world (about 200 wiki pages).
PEOPLE = 100
#: The client threads and the server process share both cores.
ONE_CORE = False
#: Client connections (closed loop): one per core of the reference host.
CONNECTIONS = 2
#: Server handler threads.
SERVER_WORKERS = 2
#: Result-cache entries: well below the distinct-request universe.
CACHE_SIZE = 256
#: Every METRICS_EVERY-th request is a ``/metrics`` scrape.
METRICS_EVERY = 500
#: Length of the pre-generated request list: about twice what one leg
#: sends on the reference host (it repeats if exhausted).
REQUESTS = 15_000
ZIPF_EXPONENT = 1.1
#: Request mix: share of ``/lookup``, then ``/topk``; the rest are joins.
LOOKUP_SHARE, TOPK_SHARE = 0.55, 0.25

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "serve_launcher.py")


def _zipf_picker(rng: random.Random, items: list):
    weights = list(itertools.accumulate(
        1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(items) + 1)
    ))
    return lambda: rng.choices(items, cum_weights=weights)[0]


def make_requests(kb, seed: int) -> list[tuple[str, str, Optional[bytes]]]:
    """The request list: (method, path, body), zipf over people and
    predicates.  Lookups pair a person with a predicate, so some answers
    are empty and the negative cache is used too."""
    from repro.kb.rdfio import term_to_text
    from repro.world import schema as ws

    people = sorted(
        {t.subject for t in kb.match(None, ws.BORN_IN, None)}, key=lambda e: e.id
    )
    predicates = sorted(kb.predicates(), key=lambda p: p.id)
    rng = random.Random(sub_seed(seed, "serve.requests"))
    rng.shuffle(people)
    rng.shuffle(predicates)
    person, predicate = _zipf_picker(rng, people), _zipf_picker(rng, predicates)
    born_in, located_in = term_to_text(ws.BORN_IN), term_to_text(ws.LOCATED_IN)
    requests = []
    for index in range(REQUESTS):
        if index % METRICS_EVERY == METRICS_EVERY - 1:
            requests.append(("GET", "/metrics", None))
            continue
        roll = rng.random()
        if roll < LOOKUP_SHARE:
            query = urlencode({"s": term_to_text(person()),
                               "p": term_to_text(predicate())})
            requests.append(("GET", f"/lookup?{query}", None))
        elif roll < LOOKUP_SHARE + TOPK_SHARE:
            query = urlencode({"p": term_to_text(predicate()), "k": 10})
            requests.append(("GET", f"/topk?{query}", None))
        else:
            body = {"patterns": [[term_to_text(person()), born_in, "?c"],
                                 ["?c", located_in, "?k"]]}
            requests.append(
                ("POST", "/query", json.dumps(body, sort_keys=True).encode())
            )
    return requests


def expected_body(engine, method: str, path: str, body: Optional[bytes]) -> bytes:
    """The bytes ``repro serve`` must answer, computed in-process."""
    from repro.serving.http import dumps

    split = urlsplit(path)
    params = {
        name: values[-1]
        for name, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    if split.path == "/lookup":
        return dumps(engine.lookup_json(params))
    if split.path == "/topk":
        return dumps(engine.topk_json(params))
    return dumps(engine.query_json(json.loads(body)))


# ------------------------------------------------------------------ server


class Server:
    """One ``repro serve`` process on an ephemeral port; always stopped."""

    def __init__(self, directory: str, log_path: str,
                 spans_path: Optional[str] = None) -> None:
        args = ["serve", "--segments", directory, "--port", "0",
                "--workers", str(SERVER_WORKERS),
                "--cache-size", str(CACHE_SIZE)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, LAUNCHER, spans_path] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        self.host, self.port = "", 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Parse the port the CLI prints, then poll ``/healthz``."""
        deadline = time.monotonic() + timeout
        line = ""
        while "\n" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"server did not announce its port: {line!r}")
            ready, __, __ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                line = self.process.stdout.readline()
                if not line:
                    raise RuntimeError("server exited before announcing its port")
        match = re.search(r"on http://([0-9.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        while True:
            try:
                status, __ = self.request("GET", "/healthz", None)
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or not self.alive():
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.02)

    def request(self, method: str, path: str, body: Optional[bytes]):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def alive(self) -> bool:
        return self.process.poll() is None

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, then SIGKILL if it lingers; always waits for the exit."""
        if self.alive():
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


# ------------------------------------------------------------------ client


def _client(server: Server, requests, counter, deadline: float, out: list) -> None:
    """One closed-loop connection: send, wait for the answer, repeat."""
    while True:
        index = next(counter)
        started = time.perf_counter()
        if started >= deadline:
            return
        method, path, body = requests[index % len(requests)]
        try:
            status, data = server.request(method, path, body)
        except OSError:
            status, data = -1, b""
        ended = time.perf_counter()
        out.append((index, status, started, ended,
                    hashlib.blake2b(data, digest_size=16).digest()))


def _drive(server: Server, requests, seconds: float) -> list[tuple]:
    counter = itertools.count()
    outs: list[list] = [[] for __ in range(CONNECTIONS)]
    deadline = time.perf_counter() + seconds
    threads = [
        threading.Thread(target=_client,
                         args=(server, requests, counter, deadline, out))
        for out in outs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(sample for out in outs for sample in out)


#: This workload's names for ``op_ms``, ``tail_ms`` and ``ops_per_s``.
NAMES = ("read_p50_ms", "read_p99_ms", "read_qps")
TAIL_Q = 0.99


@dataclass
class State:
    bundle: object
    kb: object
    requests: list
    directory: str
    server: Server
    #: Where the traced launcher writes its spans (None when untraced).
    spans_path: Optional[str]


def setup(seed: int, scratch, traced: bool) -> State:
    """Generate the inputs, build and emit the KB, and start the server
    (the traced launcher when ``traced``) until ``/healthz`` answers."""
    from repro.pipeline.builder import KnowledgeBaseBuilder, emit_segments

    bundle = scenario_inputs("baseline", seed, "serve", PEOPLE)
    kb, __ = KnowledgeBaseBuilder(
        bundle.wiki, aliases=bundle.world.aliases
    ).build()
    requests = make_requests(kb, seed)
    directory = scratch.sub("segments")
    emit_segments(kb, directory)
    spans_path = scratch.sub("spans.json") if traced else None
    server = Server(directory, scratch.sub("server.log"), spans_path)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return State(bundle, kb, requests, directory, server, spans_path)


def close(state: State) -> None:
    state.server.stop()


def measure(state: State, seconds: float, tracer, scratch, clock) -> Outcome:
    """Drive the server for ``seconds``, stop it, then check every answer.

    ``tracer`` is unused here: spans are recorded in the server process,
    written when it stops, and folded into per-request records.
    """
    from repro.kb.segments import open_snapshot
    from repro.serving import QueryEngine

    outcome = Outcome()
    server, requests = state.server, state.requests
    if not server.alive():
        raise RuntimeError("server died before the timed phase")
    samples = _drive(server, requests, seconds)
    clock.read()  # with the server idle, as the leg's reading before
    if not server.alive():
        outcome.problems.append("server died during the timed phase")
    status, data = server.request("GET", "/metrics", None)
    cache = json.loads(data)["cache"] if status == 200 else {}
    outcome.final["peak_rss_mb"] = [server.peak_rss_mb(), "MB"]
    server.stop()
    if server.process.returncode not in (0, -signal.SIGTERM):
        outcome.problems.append(
            f"server exited with code {server.process.returncode}"
        )

    # Every answer must equal an in-process replay over the same
    # snapshot; a scrape only has to succeed.
    with open_snapshot(state.directory) as snapshot:
        engine = QueryEngine(snapshot, cache_size=CACHE_SIZE)
        expected: dict[int, bytes] = {}
        for index, status, __, __, digest in samples:
            outcome.attempted += 1
            method, path, body = requests[index % len(requests)]
            if status != 200:
                outcome.failed += 1
                continue
            if path == "/metrics":
                continue
            key = index % len(requests)
            if key not in expected:
                expected[key] = hashlib.blake2b(
                    expected_body(engine, method, path, body), digest_size=16
                ).digest()
            if digest != expected[key]:
                outcome.failed += 1
        outcome.counts = kb_shape(snapshot)
    if outcome.failed:
        outcome.problems.append(
            f"{outcome.failed} of {outcome.attempted} requests failed"
        )

    # Full SLICE_S slices of the timed phase, by completion time.
    first, last = min(s[2] for s in samples), max(s[3] for s in samples)
    outcome.window_s = (last - first) * clock.scale_at((first + last) / 2)
    outcome.slices = [[] for __ in range(int((last - first) // SLICE_S))]
    for __, __, started, ended, __ in samples:
        scaled = (ended - started) * clock.scale_at((started + ended) / 2)
        outcome.raw_latencies.append(ended - started)
        outcome.latencies.append(scaled)
        piece = int((ended - first) // SLICE_S)
        if piece < len(outcome.slices):
            outcome.slices[piece].append(scaled)
    outcome.slice_rates = [
        len(piece) / (SLICE_S * clock.scale_at(first + (i + 0.5) * SLICE_S))
        for i, piece in enumerate(outcome.slices)
    ]
    outcome.final["disk_mb"] = [dir_bytes(state.directory) / 1e6, "MB"]
    put_quality(outcome, state.kb, state.bundle)
    if state.spans_path is not None:
        records = [
            r for r in per_op(
                load_spans(state.spans_path), "serving.finish_request"
            )
            if first <= r["start"] <= last
        ]
        outcome.records = scale_records(
            records,
            [clock.scale_at(r["start"] + r["op_ms"] / 2000.0) for r in records],
        )
        outcome.extra = {
            "client_ms": sum(outcome.latencies) * 1000.0,
            "requests": len(samples),
            "cache.hits": cache.get("hits", 0),
            "cache.misses": cache.get("misses", 0),
            "cache.negative_hits": cache.get("negative_hits", 0),
        }
    return outcome


def layer_metrics(outcome: Outcome) -> dict[str, Metric]:
    """Per-request means over the timed windows of every leg (means add
    up, unlike medians), split between the engine, the HTTP handler and
    the wire."""
    records = outcome.records
    count = len(records)
    extra = outcome.extra

    def mean(field: str) -> float:
        return sum(r.get(field, 0.0) for r in records) / count

    client_ms = extra["client_ms"] / extra["requests"]
    scrapes = [
        r["serving.metrics_ms"] for r in records if r.get("serving.metrics.calls")
    ]
    hits, misses = extra["cache.hits"], extra["cache.misses"]
    result = {
        "serving.engine_ms": Metric(mean("serving.engine_ms"), "ms", count),
        "serving.http_self_ms": Metric(mean("self_ms"), "ms", count),
        "serving.wire_ms": Metric(client_ms - mean("op_ms"), "ms", count),
        "serving.metrics_ms": Metric(
            statistics.median(scrapes), "ms", len(scrapes)
        ),
        "kb.snapshot_match_ms": Metric(mean("kb.snapshot_match_ms"), "ms", count),
        "kb.snapshot_match_calls": Metric(
            mean("kb.snapshot_match.calls"), "calls/req", count
        ),
        "kb.query_run_ms": Metric(mean("kb.query_run_ms"), "ms", count),
        "serving.cache_hit_rate": Metric(
            hits / (hits + misses), "ratio", hits + misses
        ),
        "serving.negative_hit_share": Metric(
            extra["cache.negative_hits"] / hits, "ratio", hits
        ),
    }
    for name in ("kb.triples", "kb.predicates", "kb.entities"):
        result[name] = Metric(
            sum(counts[name] for counts in outcome.counts.values()), "count",
            len(outcome.counts),
        )
    return result
