"""E22 — scenario matrix: per-scenario build time and KB quality.

Benchmarks the named stress workloads of
:data:`repro.world.scenarios.SCENARIOS` the way a KB deployment is
judged: every profile is built through the real pipeline and scored
against its gold facts at the two quality stages (pre-consistency
extraction, post-reasoning KB), with build time recorded per profile.

* **the matrix** — one row per scenario: pages, sentences, triples,
  build seconds, extraction P/R/F1, KB P/R/F1, and (for burst
  scenarios) whether the delta-ingest leg was byte-identical to the
  one-shot build;
* **floors** — the pinned quality floors of
  :data:`repro.eval.scenarios.QUALITY_FLOORS` are asserted, so a bench
  run doubles as the quality regression gate;
* **repeatable loop** — the benchmark loop rebuilds the ``baseline``
  profile's KB, the reference cost a quality-bearing build pays.

``REPRO_E22_SMOKE=1`` trims the matrix to three profiles for CI smoke
runs (the scenarios themselves are pinned-seed and fixed-size, so the
per-profile workload cannot shrink).
"""

from __future__ import annotations

import os

import pytest

from repro.eval import print_table
from repro.eval.scenarios import check_floors, evaluate_scenario
from repro.pipeline import KnowledgeBaseBuilder
from repro.world.scenarios import SCENARIOS, build_scenario

_SMOKE = bool(os.environ.get("REPRO_E22_SMOKE"))
_PROFILES = (
    ("baseline", "burst_social", "adversarial_noise")
    if _SMOKE
    else tuple(SCENARIOS)
)


@pytest.mark.benchmark(group="e22")
def test_e22_scenario_matrix(benchmark):
    scores = [evaluate_scenario(name) for name in _PROFILES]
    assert check_floors(scores) == []

    rows = []
    for score in scores:
        burst = (
            "-"
            if score.incremental_identical is None
            else "yes" if score.incremental_identical else "NO"
        )
        rows.append([
            score.name,
            score.pages,
            score.sentences,
            score.triples,
            round(score.build_seconds, 3),
            round(score.extraction.f1, 3),
            round(score.kb.precision, 3),
            round(score.kb.f1, 3),
            burst,
        ])
    print_table(
        f"E22: scenario matrix ({len(scores)} profiles)",
        ["scenario", "pages", "sentences", "triples", "build s",
         "ext F1", "KB P", "KB F1", "delta identical"],
        rows,
    )

    benchmark.extra_info["profiles"] = len(scores)
    for score in scores:
        prefix = score.name
        benchmark.extra_info[f"{prefix}_build_s"] = round(score.build_seconds, 3)
        benchmark.extra_info[f"{prefix}_extraction_f1"] = round(
            score.extraction.f1, 3
        )
        benchmark.extra_info[f"{prefix}_kb_f1"] = round(score.kb.f1, 3)
        benchmark.extra_info[f"{prefix}_pages"] = score.pages
        benchmark.extra_info[f"{prefix}_triples"] = score.triples
        if score.incremental_identical is not None:
            benchmark.extra_info[f"{prefix}_incremental_identical"] = (
                score.incremental_identical
            )

    # The repeatable loop: rebuild the baseline profile's KB — the
    # reference cost that every quality number above is paid in.
    bundle = build_scenario("baseline")
    benchmark(
        lambda: KnowledgeBaseBuilder(
            bundle.wiki, aliases=bundle.world.aliases
        ).build()
    )
