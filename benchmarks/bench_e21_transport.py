"""E21 — zero-copy corpus transport: payload, startup, end-to-end scaling.

Process workers never receive the Wiki itself.  The build writes the
corpus once as a sorted, sha256-sealed, mmap-able file and ships workers
only its *path*; workers open pages by title through binary search over
the pinned bytes.

* **payload + startup** — the pickled initializer payload
  (``backend.init.payload_bytes``) and broadcast time
  (``backend.init.elapsed_s``) of a process build, with the payload
  asserted under :data:`MAX_PAYLOAD_BYTES`;
* **end-to-end scaling** — full builds at 2/4/8 process workers against
  the serial build (speedup asserted only when the host has the cores to
  show it);
* **byte identity** — every process build must produce the serial
  build's canonical KB bytes;
* the repeatable loop times the transport primitive itself: one
  by-title page load through the mmap (binary search + JSON decode).

``REPRO_E21_SMOKE=1`` shrinks the matrix for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro.corpus import CorpusReader, write_corpus
from repro.determinism import canonical_kb_lines
from repro.eval import print_table
from repro.pipeline import BuildConfig, KnowledgeBaseBuilder

_SMOKE = bool(os.environ.get("REPRO_E21_SMOKE"))

#: Process-pool sizes for the end-to-end scaling table.
WORKER_COUNTS = (2,) if _SMOKE else (2, 4, 8)

#: The setup broadcast carries a path and the build config, never the
#: corpus: it must stay under this many bytes per worker.
MAX_PAYLOAD_BYTES = 1024


def _build_once(wiki, aliases, **config_kwargs):
    """One full build with telemetry; returns (lines, wall_s, telemetry)."""
    config = BuildConfig(**config_kwargs)
    builder = KnowledgeBaseBuilder(wiki, aliases=aliases, config=config)
    obs.reset()
    obs.enable()
    try:
        start = time.perf_counter()
        kb, __ = builder.build()
        wall = time.perf_counter() - start
        histograms = obs.core.histograms()
        payload = histograms.get("backend.init.payload_bytes")
        init = histograms.get("backend.init.elapsed_s")
        telemetry = {
            "payload_bytes": int(sum(payload.values)) if payload else 0,
            "init_s": sum(init.values) if init else 0.0,
        }
    finally:
        obs.disable()
        obs.reset()
    return canonical_kb_lines(kb), wall, telemetry


@pytest.mark.benchmark(group="e21")
def test_e21_corpus_transport(benchmark, bench_world, bench_wiki, tmp_path):
    cores = os.cpu_count() or 1
    wiki, aliases = bench_wiki, bench_world.aliases

    # ---------------------------------------------- end-to-end + payload
    reference, serial_s, __ = _build_once(wiki, aliases)
    rows = []
    wall = {}
    telemetry = {}
    for workers in WORKER_COUNTS:
        lines, elapsed, tele = _build_once(wiki, aliases, workers=workers)
        assert lines == reference, workers
        wall[workers] = elapsed
        telemetry[workers] = tele
        rows.append([
            workers,
            tele["payload_bytes"],
            round(tele["init_s"] * 1000.0, 1),
            round(elapsed, 3),
            round(serial_s / elapsed, 2),
        ])

    payload_file = telemetry[max(WORKER_COUNTS)]["payload_bytes"]
    assert 0 < payload_file < MAX_PAYLOAD_BYTES, payload_file

    print_table(
        f"E21: corpus-file transport, end-to-end process builds "
        f"({len(wiki.pages)} pages, serial {serial_s:.3f}s)",
        ["workers", "payload B", "init ms", "build s", "vs serial x"],
        rows,
    )

    if cores >= 4 and 4 in WORKER_COUNTS:
        # Only a multicore host can show the speedup; a 1-core CI box
        # legitimately builds slower under any pool.
        assert wall[4] < serial_s, (
            "4 process workers should beat the serial build"
        )

    # ----------------------------------------------- transport primitive
    corpus_path = str(tmp_path / "corpus.rprocrp")
    write_corpus(wiki, corpus_path, aliases=aliases)
    reader = CorpusReader(corpus_path)
    titles = reader.titles()
    probe_title = titles[len(titles) // 2]

    benchmark(lambda: reader.page(probe_title))

    benchmark.extra_info["pages"] = len(wiki.pages)
    benchmark.extra_info["corpus_file_bytes"] = reader.manifest()["bytes"]
    benchmark.extra_info["serial_build_s"] = round(serial_s, 3)
    benchmark.extra_info["payload_file_bytes"] = payload_file
    benchmark.extra_info["byte_identical"] = True
    benchmark.extra_info["cores"] = cores
    for workers, elapsed in wall.items():
        benchmark.extra_info[f"build_file_{workers}w_s"] = round(elapsed, 3)
        benchmark.extra_info[f"init_file_{workers}w_s"] = round(
            telemetry[workers]["init_s"], 4
        )
    reader.close()
