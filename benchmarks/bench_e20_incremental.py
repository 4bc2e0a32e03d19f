"""E20 — incremental builds: delta ingestion vs full rebuild.

Benchmarks :class:`repro.pipeline.IncrementalBuilder` the way an
always-on KB deployment is judged: a corpus is ingested once, then small
batches of changed pages arrive and the question is how much cheaper a
delta ingest is than rebuilding the world from scratch.

* **delta vs full** — for 1% and 10% changed-page batches (each page's
  first numeric infobox value bumped by one: a changed fact, with the
  same name registrations), time the delta ingest (re-extract only stale pages, re-solve the consistency
  components, flush one tombstoned delta generation) against a one-shot
  rebuild of the same final corpus.  The compaction that folds the delta
  generation back into canonical form is timed apart (``compact s``): it
  reads, re-hashes and rewrites the whole stack, so folded into the
  delta time it would hide any saving on the ingest side.  The table
  gives both ratios over the full rebuild: ``speedup x`` is full / delta,
  ``with compact x`` is full / (delta + compact).  Each time is the
  median of ``REPEATS`` runs, the delta on a fresh copy of the base
  directory and the rebuild into a fresh directory, so no row carries
  the process's warm-up alone.  The acceptance invariant is asserted on
  every repeat: the compacted incremental directory is byte-identical to
  the one-shot directory (``diff_segment_dirs == []``), and the delta
  wrote records (``added + tombstones > 0``);
* **warm delta** — the same delta as the *second* ingest of one builder
  (``warm s``, ``warm x`` = full / warm): the builder is reopened on a
  fresh copy of the base directory, its first ingest (an empty batch)
  runs the full path and leaves the pipeline's products in memory, and
  the timed delta then recomputes only the subjects it touches.  The
  cold delta above is a reopened builder's *first* ingest, so it stays
  on the full path.  The compacted warm directory must also diff empty
  against the one-shot directory;
* **no-op floor** — the benchmark loop re-ingests one unchanged page,
  measuring the fixed cost of the incremental machinery itself
  (re-extraction of the batch page, reasoning, empty-delta detection).

``REPRO_E20_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import pytest

from repro.corpus import build_wiki
from repro.corpus.wiki import WikiPage
from repro.eval import print_table
from repro.kb import diff_segment_dirs
from repro.pipeline import IncrementalBuilder
from repro.world import WorldConfig, generate_world

SEED = 201
_SMOKE = bool(os.environ.get("REPRO_E20_SMOKE"))
#: Fractions of the corpus changed per delta batch.
FRACTIONS = (0.01, 0.10)
#: Timed runs per row; the table reports their median.
REPEATS = 3


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


def _numeric_field(page: WikiPage):
    """The first infobox field holding a number, or None."""
    return next(
        (key for key, value in page.infobox.items() if value.isdigit()), None
    )


def _bump_number(page: WikiPage) -> WikiPage:
    """A changed page: same registrations, one infobox number off by one."""
    infobox = dict(page.infobox)
    key = _numeric_field(page)
    infobox[key] = str(int(infobox[key]) + 1)
    return WikiPage(
        title=page.title,
        entity=page.entity,
        document=page.document,
        infobox=infobox,
        categories=list(page.categories),
        interlanguage=dict(page.interlanguage),
    )


@pytest.mark.benchmark(group="e20")
def test_e20_delta_ingest_vs_full_rebuild(benchmark, tmp_path):
    world = _e20_world()
    wiki = build_wiki(world)
    titles = sorted(wiki.pages)
    pages = [wiki.pages[t] for t in titles]
    editable = [t for t in titles if _numeric_field(wiki.pages[t]) is not None]

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
        changed = [_bump_number(wiki.pages[t]) for t in editable[:n_changed]]

        # The honest comparator: rebuild the *modified* corpus one-shot.
        final = {t: wiki.pages[t] for t in titles}
        for page in changed:
            final[page.title] = page

        delta_times, compact_times, full_times = [], [], []
        warm_times = []
        for repeat in range(REPEATS):
            work = str(tmp_path / f"delta-{n_changed}-{repeat}")
            shutil.copytree(base, work)
            with IncrementalBuilder(work) as builder:
                t0 = time.perf_counter()
                report = builder.ingest(pages=changed)
                delta_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                builder.store.compact()
                compact_times.append(time.perf_counter() - t0)

            warm = str(tmp_path / f"warm-{n_changed}-{repeat}")
            shutil.copytree(base, warm)
            with IncrementalBuilder(warm) as builder:
                builder.ingest()
                t0 = time.perf_counter()
                warm_report = builder.ingest(pages=changed)
                warm_times.append(time.perf_counter() - t0)
                builder.store.compact()

            oneshot = str(tmp_path / f"oneshot-{n_changed}-{repeat}")
            t0 = time.perf_counter()
            with IncrementalBuilder(oneshot) as builder:
                builder.ingest(
                    pages=[final[t] for t in titles],
                    aliases=world.aliases,
                    compact=True,
                )
            full_times.append(time.perf_counter() - t0)
            assert report.added + report.tombstones > 0
            assert diff_segment_dirs(work, oneshot) == []
            assert not warm_report.full_rebuild
            assert (warm_report.added, warm_report.tombstones) == (
                report.added, report.tombstones
            )
            assert diff_segment_dirs(warm, oneshot) == []
        delta_s = statistics.median(delta_times)
        compact_s = statistics.median(compact_times)
        full_s = statistics.median(full_times)
        warm_s = statistics.median(warm_times)

        rows.append([
            f"{fraction:.0%}",
            n_changed,
            round(delta_s, 3),
            round(compact_s, 3),
            round(full_s, 3),
            round(full_s / delta_s, 1),
            round(full_s / (delta_s + compact_s), 1),
            round(warm_s, 3),
            round(full_s / warm_s, 1),
            warm_report.recomputed_subjects,
            report.reextracted_pages,
            report.added,
            report.tombstones,
            "yes",
        ])

    print_table(
        f"E20: delta ingest vs full rebuild ({len(titles)} pages, "
        f"{seeded.triples} triples)",
        ["delta", "pages", "delta s", "compact s", "full s", "speedup x",
         "with compact x", "warm s", "warm x", "subjects", "re-extracted",
         "added", "tombstones", "byte-identical"],
        rows,
    )
    benchmark.extra_info["pages"] = len(titles)
    benchmark.extra_info["triples"] = seeded.triples
    benchmark.extra_info["seed_build_s"] = seed_s
    for row in rows:
        tag = row[0].rstrip("%")
        benchmark.extra_info[f"delta_{tag}pct_s"] = row[2]
        benchmark.extra_info[f"compact_{tag}pct_s"] = row[3]
        benchmark.extra_info[f"full_{tag}pct_s"] = row[4]
        benchmark.extra_info[f"speedup_{tag}pct"] = row[5]
        benchmark.extra_info[f"speedup_with_compact_{tag}pct"] = row[6]
        benchmark.extra_info[f"warm_{tag}pct_s"] = row[7]
        benchmark.extra_info[f"speedup_warm_{tag}pct"] = row[8]
        benchmark.extra_info[f"recomputed_subjects_{tag}pct"] = row[9]
        benchmark.extra_info[f"added_{tag}pct"] = row[11]
        benchmark.extra_info[f"tombstones_{tag}pct"] = row[12]
    benchmark.extra_info["byte_identical_all_deltas"] = True

    # The repeatable loop: re-ingest one unchanged page — the fixed cost
    # of a delta pass whose diff comes out empty (no flush, no new epoch).
    floor_builder = IncrementalBuilder(base)
    try:
        benchmark(lambda: floor_builder.ingest(pages=[pages[0]]))
    finally:
        floor_builder.close()
