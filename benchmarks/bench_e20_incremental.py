"""E20 — incremental builds: delta ingestion vs full rebuild.

Benchmarks :class:`repro.pipeline.IncrementalBuilder` the way an
always-on KB deployment is judged: a corpus is ingested once, then small
batches of changed pages arrive and the question is how much cheaper a
delta ingest is than rebuilding the world from scratch.

* **delta vs full** — for 1% and 10% changed-page batches, time the
  delta ingest (re-extract only stale pages, re-solve the consistency
  components, flush one tombstoned delta generation, compact) against a one-shot rebuild of the same final corpus, with the
  acceptance invariant asserted per row: the compacted incremental
  directory is byte-identical to the one-shot directory
  (``diff_segment_dirs == []``);
* **no-op floor** — the benchmark loop re-ingests one unchanged page,
  measuring the fixed cost of the incremental machinery itself
  (re-extraction of the batch page, reasoning, empty-delta detection).

``REPRO_E20_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import shutil
import time

import pytest

from repro.corpus import build_wiki
from repro.corpus.document import Document
from repro.corpus.wiki import WikiPage
from repro.eval import print_table
from repro.kb import diff_segment_dirs
from repro.pipeline import IncrementalBuilder
from repro.world import WorldConfig, generate_world

SEED = 201
_SMOKE = bool(os.environ.get("REPRO_E20_SMOKE"))
#: Fractions of the corpus changed per delta batch.
FRACTIONS = (0.01, 0.10)


def _e20_world():
    if _SMOKE:
        return generate_world(WorldConfig(seed=SEED, n_people=30))
    return generate_world(
        WorldConfig(
            seed=SEED,
            n_people=400,
            n_cities=60,
            n_companies=40,
            n_universities=20,
        )
    )


def _drop_last_sentence(page: WikiPage) -> WikiPage:
    """A changed page: same registrations, one sentence shorter."""
    sentences = list(page.document.sentences)
    if len(sentences) > 1:
        sentences = sentences[:-1]
    return WikiPage(
        title=page.title,
        entity=page.entity,
        document=Document(doc_id=page.document.doc_id, sentences=sentences),
        infobox=dict(page.infobox),
        categories=list(page.categories),
        interlanguage=dict(page.interlanguage),
    )


@pytest.mark.benchmark(group="e20")
def test_e20_delta_ingest_vs_full_rebuild(benchmark, tmp_path):
    world = _e20_world()
    wiki = build_wiki(world)
    titles = sorted(wiki.pages)
    pages = [wiki.pages[t] for t in titles]

    base = str(tmp_path / "base")
    t0 = time.perf_counter()
    with IncrementalBuilder(base) as builder:
        seeded = builder.ingest(
            pages=pages, aliases=world.aliases, compact=True
        )
    seed_s = time.perf_counter() - t0

    rows = []
    for fraction in FRACTIONS:
        n_changed = max(1, round(len(titles) * fraction))
        changed = [
            _drop_last_sentence(wiki.pages[t]) for t in titles[:n_changed]
        ]

        work = str(tmp_path / f"delta-{n_changed}")
        shutil.copytree(base, work)
        t0 = time.perf_counter()
        with IncrementalBuilder(work) as builder:
            report = builder.ingest(pages=changed, compact=True)
        delta_s = time.perf_counter() - t0

        # The honest comparator: rebuild the *modified* corpus one-shot.
        final = {t: wiki.pages[t] for t in titles}
        for page in changed:
            final[page.title] = page
        oneshot = str(tmp_path / f"oneshot-{n_changed}")
        t0 = time.perf_counter()
        with IncrementalBuilder(oneshot) as builder:
            builder.ingest(
                pages=[final[t] for t in titles],
                aliases=world.aliases,
                compact=True,
            )
        full_s = time.perf_counter() - t0
        assert diff_segment_dirs(work, oneshot) == []

        rows.append([
            f"{fraction:.0%}",
            n_changed,
            round(delta_s, 3),
            round(full_s, 3),
            round(full_s / delta_s, 1),
            report.reextracted_pages,
            "yes",
        ])

    print_table(
        f"E20: delta ingest vs full rebuild ({len(titles)} pages, "
        f"{seeded.triples} triples)",
        ["delta", "pages", "delta s", "full s", "speedup x",
         "re-extracted", "byte-identical"],
        rows,
    )
    benchmark.extra_info["pages"] = len(titles)
    benchmark.extra_info["triples"] = seeded.triples
    benchmark.extra_info["seed_build_s"] = seed_s
    for row in rows:
        tag = row[0].rstrip("%")
        benchmark.extra_info[f"delta_{tag}pct_s"] = row[2]
        benchmark.extra_info[f"full_{tag}pct_s"] = row[3]
        benchmark.extra_info[f"speedup_{tag}pct"] = row[4]
    benchmark.extra_info["byte_identical_all_deltas"] = True

    # The repeatable loop: re-ingest one unchanged page — the fixed cost
    # of a delta pass whose diff comes out empty (no flush, no new epoch).
    floor_builder = IncrementalBuilder(base)
    try:
        benchmark(lambda: floor_builder.ingest(pages=[pages[0]]))
    finally:
        floor_builder.close()
