"""The determinism runner: one hash-seed sweep of subprocess builds.

The KB pipeline's contract is that ``repro build --seed S`` produces the
same knowledge base in *every* process.  A single-process test cannot
catch Python's per-process hash randomization leaking into iteration
order, so :func:`check` runs the build ``runs`` times in fresh
subprocesses, run ``i`` under ``PYTHONHASHSEED=i``.

Every run emits the KB both as an ``.nt`` file and as a segment
directory, and both are compared against run 0:

* the exact ``.nt`` bytes, which pins insertion order as well as content.
  On a mismatch the report names the first differing canonical line and
  the pipeline stage that produced it, or says the runs hold the same
  triples in a different order;
* the segment files, with :func:`repro.kb.segments.diff_segment_dirs`.

With ``incremental=True`` each run also grows a segment directory in two
delta batches (the second retracts a fact through a tombstone), compacts
it, and diffs it against a one-shot rebuild of the same corpus and
against run 0's incremental directory.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from .stable import canonical_kb_lines

#: Seconds one ``repro`` subprocess may take before the check gives up.
_TIMEOUT = 600.0

#: The fact key the incremental leg retracts: a schema triple, present in
#: every world, so the retraction always leaves a tombstone in the delta.
_RETRACTED_KEY = ("<cls:location>", "<<rdfs:subClassOf>>", "<kb:Thing>")

#: Share of pages (the tail in sorted title order) ingested as the delta.
_DELTA_FRACTION = 0.2

#: Triple provenance (the ``src=`` annotation) -> producing pipeline stage,
#: matching the ``repro.obs`` span names of the build pipeline.
_SOURCE_TO_STAGE = {
    "infobox": "pipeline.extract.infobox",
    "surface-patterns": "pipeline.extract.sentences",
    "year-attributes": "pipeline.extract.sentences",
}

#: Predicates that only the fixed schema (``pipeline.schema``) emits.
_SCHEMA_PREDICATES = (
    "<<rdfs:domain>>",
    "<<rdfs:range>>",
    "<<kb:functional>>",
    "<<kb:disjointWith>>",
    "<<kb:disjointClassWith>>",
)


@dataclass(frozen=True, slots=True)
class Divergence:
    """The first point where two runs' canonical serializations differ."""

    run_a: int                  # PYTHONHASHSEED of the reference run
    run_b: int                  # PYTHONHASHSEED of the diverging run
    line_a: Optional[str]       # triple present at the position in run A
    line_b: Optional[str]       # triple present at the position in run B
    stage: str                  # best-effort producing pipeline stage

    def describe(self) -> str:
        parts = [
            f"runs PYTHONHASHSEED={self.run_a} and PYTHONHASHSEED={self.run_b} "
            f"diverge (stage: {self.stage})"
        ]
        if self.line_a is not None:
            parts.append(f"  only/first in run {self.run_a}: {self.line_a}")
        if self.line_b is not None:
            parts.append(f"  only/first in run {self.run_b}: {self.line_b}")
        return "\n".join(parts)


def stage_of_line(line: Optional[str]) -> str:
    """Best-effort producing stage of one canonical triple line.

    Extraction triples carry their extractor in the ``src=`` annotation;
    schema, taxonomy and label triples are recognized by predicate (and,
    for ``rdfs:subClassOf``, by whether the subclass is a schema class).
    Every answer but ``"unknown"`` and ``"unattributed"`` is a span name of
    ``repro build --trace``.
    """
    if line is None:
        return "unknown"
    source = None
    if " # " in line:
        for item in line.rsplit(" # ", 1)[1].split():
            key, __, value = item.partition("=")
            if key == "src":
                source = value
    if source in _SOURCE_TO_STAGE:
        return _SOURCE_TO_STAGE[source]
    subject, __, rest = line.partition(" ")
    predicate = rest.partition(" ")[0]
    if predicate in _SCHEMA_PREDICATES:
        return "pipeline.schema"
    if predicate == "<<rdfs:subClassOf>>":
        return "pipeline.schema" if subject.startswith("<cls:") else (
            "pipeline.taxonomy"
        )
    if predicate == "<<rdf:type>>":
        return "pipeline.taxonomy"
    if predicate == "<<rdfs:prefLabel>>":
        return "pipeline.labels"
    if predicate == "<<rdfs:label>>":
        return "pipeline.multilingual"
    return "unattributed"


def first_divergence(
    lines_a: list[str], lines_b: list[str], run_a: int, run_b: int
) -> Divergence:
    """Locate the first differing canonical line between two runs."""
    for a, b in zip(lines_a, lines_b):
        if a != b:
            return Divergence(run_a, run_b, a, b, stage_of_line(min(a, b)))
    # One serialization is a strict prefix of the other.
    if len(lines_a) > len(lines_b):
        extra = lines_a[len(lines_b)]
        return Divergence(run_a, run_b, extra, None, stage_of_line(extra))
    extra = lines_b[len(lines_a)]
    return Divergence(run_a, run_b, None, extra, stage_of_line(extra))


@dataclass(slots=True)
class DeterminismReport:
    """Outcome of :func:`check`: every run's label and every failure."""

    runs: list[str] = field(default_factory=list)   # "hashseed@PYTHONHASHSEED"
    triples: int = 0
    files: int = 0
    incremental: bool = False
    tombstones: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if not self.ok:
            return "NOT deterministic:\n" + "\n".join(
                "  " + line
                for failure in self.failures
                for line in failure.splitlines()
            )
        summary = (
            f"deterministic: {len(self.runs)} runs ({', '.join(self.runs)}) "
            f"wrote byte-identical .nt files and segment files "
            f"({self.triples} triples, {self.files} segment files)"
        )
        if self.incremental:
            summary += (
                "; two-batch ingest + retraction + compaction is byte-"
                "identical to a one-shot rebuild "
                f"({self.tombstones} tombstone(s) exercised)"
            )
        return summary


def _run_repro(argv: list[str], hash_seed: int) -> None:
    """Run ``python -m repro *argv`` in a fresh subprocess under a hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # The subprocess must resolve the same ``repro`` package as this one.
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=_TIMEOUT,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"repro {argv[0]} under PYTHONHASHSEED={hash_seed} failed "
            f"(exit {completed.returncode}):\n{completed.stderr}"
        )


def check(
    seed: int = 7, people: int = 40, runs: int = 2, incremental: bool = False
) -> DeterminismReport:
    """Run the hash-seed sweep and compare every run with run 0.

    ``report.ok`` is True iff no run's ``.nt`` bytes, segment files or
    (with ``incremental``) incremental directory differ from run 0's.
    """
    from ..kb.segments import MANIFEST_NAME

    if runs < 2:
        raise ValueError("a determinism check needs at least 2 runs")
    world = ["--seed", str(seed), "--people", str(people)]
    cut = _page_cut(seed, people) if incremental else 0
    report = DeterminismReport(incremental=incremental)
    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        reference = os.path.join(tmp, "run0")
        for index in range(runs):
            report.runs.append(f"hashseed@{index}")
            name = f"run {index} (PYTHONHASHSEED={index})"
            run = os.path.join(tmp, f"run{index}")
            os.mkdir(run)
            report.failures += _build_leg(run, reference, world, index, name)
            if incremental:
                failures, tombstones = _incremental_leg(
                    run, reference, world, cut, index, name
                )
                report.failures += failures
                report.tombstones = max(report.tombstones, tombstones)
        segments = os.path.join(reference, "segments")
        with open(os.path.join(segments, MANIFEST_NAME)) as handle:
            report.triples = json.load(handle)["triples"]
        report.files = sum(
            1 for entry in os.listdir(segments)
            if entry == MANIFEST_NAME or entry.startswith("seg-")
        )
    return report


def _build_leg(
    run: str, reference: str, argv: list[str], index: int, name: str
) -> list[str]:
    """Build into ``run``; return how its files differ from ``reference``'s."""
    from ..kb.rdfio import load
    from ..kb.segments import diff_segment_dirs

    kb_path = os.path.join(run, "kb.nt")
    segments = os.path.join(run, "segments")
    _run_repro(
        ["build", *argv, "--out", kb_path, "--segments", segments], index
    )
    if index == 0:
        return []
    failures = []
    reference_kb = os.path.join(reference, "kb.nt")
    if not filecmp.cmp(reference_kb, kb_path, shallow=False):
        lines_a = canonical_kb_lines(load(reference_kb))
        lines_b = canonical_kb_lines(load(kb_path))
        failures.append(
            f"{name}: same triples as run 0, different order"
            if lines_a == lines_b
            else f"{name}: .nt differs from run 0\n"
            + first_divergence(lines_a, lines_b, 0, index).describe()
        )
    failures += [
        f"{name}: segment file {difference}"
        for difference in diff_segment_dirs(
            os.path.join(reference, "segments"), segments
        )
    ]
    return failures


def _incremental_leg(
    run: str, reference: str, argv: list[str], cut: int, index: int,
    name: str,
) -> tuple[list[str], int]:
    """Grow, retract and compact a directory; diff it with a one-shot one.

    Returns the failures and the number of tombstones the delta wrote.
    """
    from ..kb.segments import MANIFEST_NAME, SegmentStore, diff_segment_dirs

    grown = os.path.join(run, "incremental")
    oneshot = os.path.join(run, "oneshot")
    retract = ["--retract", *_RETRACTED_KEY]
    _run_repro(["ingest", "--segments", grown, *argv, "--upto", str(cut)], index)
    _run_repro(
        ["ingest", "--segments", grown, *argv, "--start", str(cut), *retract],
        index,
    )
    with open(os.path.join(grown, MANIFEST_NAME)) as handle:
        tombstones = sum(
            entry.get("tombstones", 0)
            for entry in json.load(handle)["segments"]
        )
    failures = []
    if tombstones < 1:
        failures.append(
            f"{name}: the retraction delta produced no tombstone record"
        )
    # Compact in-process: pure file folding, content-deterministic.
    store = SegmentStore(grown)
    try:
        store.compact()
    finally:
        store.close()
    _run_repro(
        ["ingest", "--segments", oneshot, *argv, *retract, "--compact"], index
    )
    failures += [
        f"{name}: incremental vs one-shot: {difference}"
        for difference in diff_segment_dirs(grown, oneshot)
    ]
    if index > 0:
        failures += [
            f"{name}: incremental vs run 0: {difference}"
            for difference in diff_segment_dirs(
                os.path.join(reference, "incremental"), grown
            )
        ]
    return failures, tombstones


def _page_cut(seed: int, people: int) -> int:
    """Where the base/delta batch boundary falls in sorted title order.

    The world is generated here once (page counts are world-dependent) so
    every run's ingest subprocesses get the same cut.
    """
    from ..corpus import build_wiki
    from ..world import WorldConfig, generate_world

    world = generate_world(WorldConfig(seed=seed, n_people=people))
    pages = len(build_wiki(world).pages)
    return max(1, int(pages * (1.0 - _DELTA_FRACTION)))
