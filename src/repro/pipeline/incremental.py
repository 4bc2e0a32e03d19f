"""Incremental KB construction: delta ingestion over a segment directory.

The paper frames KB construction as *continuous* big-data analytics — the
iPhone-vs-Galaxy tracker only makes sense live, with new pages and social
posts arriving while the KB serves queries.  This module turns the batch
pipeline into that maintenance loop:

* **Delta ingestion** — :class:`IncrementalBuilder` accepts a batch of new
  or changed pages (or social posts folded into product pages via
  :func:`attach_posts`), re-extracts *only* the documents the batch could
  have changed, and reuses every other page's cached extraction verbatim.
* **Phantom anchors** — entity resolution never runs on the delta alone.
  The accumulated name registrations of *all* previously ingested pages
  (titles and aliases) are replayed into the resolver, so mentions in new
  documents link against the full canonical entity catalogue instead of
  forking fresh entities per batch — the existing KB joins resolution as
  synthetic anchor mentions.
* **Tombstoned deltas** — the rebuilt logical KB is diffed against the
  segment stack's current logical content; disappeared keys (retractions,
  re-resolution flips, consistency reversals) become tombstone records in
  the delta flushed through :meth:`SegmentStore.flush`, erased for good at
  ``compact()``.  The manifest's ``epoch`` rolls forward so a serving
  ``QueryEngine`` rebinds with correct result-cache invalidation.

The crown invariant, guarded by ``repro check-determinism --incremental``:
ingesting batches one by one and compacting is **byte-identical** — segment
files and canonical KB serialization — to ingesting everything in one
batch, which in turn equals a full batch rebuild of the same corpus.  The
delta path is a pure optimization, never a semantic fork.

Why it holds: the full pipeline output is a pure function of (pages,
aliases); cached candidate lists are exact (extraction is per-page
given the resolver, and every page whose resolver *view* could have
changed is re-extracted — see :meth:`IncrementalBuilder._affected_titles`);
and every downstream stage (noisy-or merge, canonical-order store
assembly, content-seeded component solving) is order- and
history-independent by the determinism contracts of PRs 2–4.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..corpus.document import Document, Sentence
from ..corpus.social import Post
from ..corpus.wiki import Category, Wiki, WikiPage
from ..extraction.base import Candidate
from ..kb import Entity, TimeSpan, Triple
from ..kb.rdfio import term_from_text, term_to_text
from ..kb.segments import (
    MANIFEST_NAME,
    SegmentStore,
    record_fields,
    spo_key_bytes,
)
from ..kb.store import EMPTY_EPOCH, epoch_hex
from ..nlp.tokenizer import tokenize
from ..obs import core as _obs
from .builder import (
    BuildReport,
    KnowledgeBaseBuilder,
    PageExtractor,
    name_registrations,
)

#: Name of the builder's persisted state file inside the segment directory.
#: ``diff_segment_dirs`` hashes only the manifest and ``seg-*`` files, so
#: state never participates in byte comparisons, and ``write_segments``'s
#: stale-file cleanup leaves it alone.
STATE_NAME = "INGEST_STATE.json"

STATE_VERSION = 3


@dataclass(slots=True)
class IngestReport:
    """What one delta ingest did, stage by stage."""

    #: Pages in the ingested batch (new or changed).
    batch_pages: int = 0
    #: Total pages known to the builder after this ingest.
    total_pages: int = 0
    #: Registered names whose resolution entry changed with this batch.
    affected_names: int = 0
    #: Pages re-extracted: the batch plus pages that can see an affected
    #: name (their cached candidates could be stale).
    reextracted_pages: int = 0
    #: Pages whose cached candidates were reused verbatim.
    cached_pages: int = 0
    #: Always 0: every component is solved fresh.  Kept only because the
    #: benchmark's ingest counts still read it.
    cached_components: int = 0
    #: Consistency components in the full problem.
    components: int = 0
    #: Curated retractions applied to the rebuilt KB (cumulative set).
    retracted: int = 0
    #: Records written into the delta segment (new or changed witnesses).
    added: int = 0
    #: Tombstones written into the delta segment (disappeared keys).
    tombstones: int = 0
    #: Name of the flushed delta segment (None: the delta was empty).
    segment: Optional[str] = None
    #: Whether this ingest compacted the stack down to canonical form.
    compacted: bool = False
    #: Manifest epoch before/after — the serving layer's cache key.
    epoch_before: str = ""
    epoch_after: str = ""
    #: Logical triple count after this ingest.
    triples: int = 0
    #: Wall-clock seconds spent in this ingest.
    elapsed: float = 0.0
    #: The underlying pipeline's report for the rebuild pass.
    build: Optional[BuildReport] = None


# ------------------------------------------------------------ state records


def _candidate_record(candidate: Candidate) -> list:
    scope = candidate.scope
    return [
        term_to_text(candidate.subject),
        term_to_text(candidate.relation),
        term_to_text(candidate.object),
        candidate.confidence,
        candidate.extractor,
        candidate.evidence,
        None if scope is None else [scope.begin, scope.end],
    ]


def _candidate_from(record: list) -> Candidate:
    subject, relation, obj, confidence, extractor, evidence, scope = record
    return Candidate(
        subject=term_from_text(subject),
        relation=term_from_text(relation),
        object=term_from_text(obj),
        confidence=confidence,
        extractor=extractor,
        evidence=evidence,
        scope=None if scope is None else TimeSpan(scope[0], scope[1]),
    )


def _page_record(page: WikiPage) -> dict:
    """Serialize the pipeline-visible content of a page.

    Gold annotations (mention/fact labels, infobox gold, category flags)
    and page links are evaluation-only — extractors never see them — so
    they are deliberately not persisted; a reconstructed page runs through
    the pipeline identically to the original.
    """
    return {
        "entity": term_to_text(page.entity),
        "sentences": [s.text for s in page.document.sentences],
        "infobox": dict(page.infobox),
        "categories": [c.name for c in page.categories],
        "interlanguage": dict(page.interlanguage),
        "candidates": None,  # filled after extraction
    }


def _page_from(title: str, record: dict) -> WikiPage:
    return WikiPage(
        title=title,
        entity=term_from_text(record["entity"]),
        document=Document(
            doc_id=f"ingest:{title}",
            sentences=[Sentence(text) for text in record["sentences"]],
        ),
        infobox=dict(record["infobox"]),
        categories=[
            Category(name, conceptual=False) for name in record["categories"]
        ],
        interlanguage=dict(record["interlanguage"]),
    )


def _fresh_state() -> dict:
    return {
        "state_version": STATE_VERSION,
        "pages": {},
        "aliases": {},
        "retracted": [],
    }


# --------------------------------------------------------------- the builder


class IncrementalBuilder:
    """Grow a segment-backed KB batch by batch.

    Owns a :class:`SegmentStore` on ``directory`` plus a state file
    (``INGEST_STATE.json``) holding everything needed to make the next
    delta equal to a full rebuild: the pipeline-visible page contents,
    the alias registrations (the phantom anchors), per-page cached
    extraction candidates and the cumulative curated-retraction set.
    """

    def __init__(self, directory: str, compact_threshold: int = 4) -> None:
        self.directory = directory
        self.store = SegmentStore(directory, compact_threshold=compact_threshold)
        self.state = self._load_state()

    # --------------------------------------------------------------- state

    @property
    def _state_path(self) -> str:
        return os.path.join(self.directory, STATE_NAME)

    def _load_state(self) -> dict:
        if not os.path.exists(self._state_path):
            return _fresh_state()
        with open(self._state_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        if state.get("state_version") != STATE_VERSION:
            raise ValueError(
                f"unsupported ingest state version: "
                f"{state.get('state_version')!r}"
            )
        return state

    def _save_state(self) -> None:
        blob = json.dumps(
            self.state, ensure_ascii=False, sort_keys=True, indent=None
        )
        tmp = self._state_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp, self._state_path)

    def close(self) -> None:
        """Quiesce the underlying segment store."""
        self.store.close()

    def __enter__(self) -> "IncrementalBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------ anchoring

    def _registrations(self) -> dict[str, dict[str, int]]:
        """The resolver's registration map implied by the current state:
        name -> entity text -> summed count, by the build's own rule
        (:func:`repro.pipeline.builder.name_registrations`).  Diffing this
        map across a batch is how affected names are found.
        """
        registrations: dict[str, dict[str, int]] = {}
        titles = (
            (title, record["entity"])
            for title, record in self.state["pages"].items()
        )
        for name, entity_text, count in name_registrations(
            titles, self.state["aliases"]
        ):
            entry = registrations.setdefault(name, {})
            entry[entity_text] = entry.get(entity_text, 0) + count
        return registrations

    def _wiki(self) -> Wiki:
        pages = {
            title: _page_from(title, record)
            for title, record in sorted(self.state["pages"].items())
        }
        return Wiki(
            pages=pages,
            by_entity={page.entity: title for title, page in pages.items()},
        )

    def _alias_map(self) -> dict[Entity, list[str]]:
        return {
            term_from_text(entity_text): list(forms)
            for entity_text, forms in self.state["aliases"].items()
        }

    def _affected_titles(
        self, batch_titles: set[str], affected_names: set[str]
    ) -> set[str]:
        """Pages whose cached candidates could be stale.

        A page outside the batch must be re-extracted iff an *affected
        name* — one whose resolver registration changed with this batch —
        is visible to its extraction:

        * gazetteer matching and mention resolution are exact
          token-sequence affairs, so a sentence is touched only when an
          affected name's token sequence occurs contiguously in it;
        * infobox entity values resolve by exact string lookup, so a row
          is touched only when its value *is* an affected name.

        Everything else about extraction is local to the page, so cached
        candidates of unaffected pages are exact.
        """
        stale = set(batch_titles)
        sequences = [
            [token.text for token in tokenize(name)]
            for name in sorted(affected_names)
        ]
        sequences = [seq for seq in sequences if seq]
        for title, record in self.state["pages"].items():
            if title in stale:
                continue
            if record["candidates"] is None:
                stale.add(title)  # never extracted (shouldn't happen)
                continue
            if any(
                value in affected_names
                for value in record["infobox"].values()
            ):
                stale.add(title)
                continue
            if sequences and any(
                _contains_sequence(
                    [token.text for token in tokenize(text)], sequences
                )
                for text in record["sentences"]
            ):
                stale.add(title)
        return stale

    # --------------------------------------------------------------- ingest

    def ingest(
        self,
        pages: Iterable[WikiPage] = (),
        aliases: Optional[dict[Entity, list[str]]] = None,
        retract: Iterable[tuple[str, str, str]] = (),
        compact: bool = False,
    ) -> IngestReport:
        """Ingest one delta batch and flush it as a new segment generation.

        ``pages`` are new or changed pages (a changed page replaces its
        previous version wholesale); ``aliases`` replaces the alias form
        list of each given entity; ``retract`` adds canonical
        (subject, predicate, object) text triples to the cumulative
        curated-removal set — they are erased from every future snapshot
        and their current records tombstoned in this delta.  With
        ``compact=True`` the generation stack is folded to canonical
        single-segment form afterwards.
        """
        started = time.perf_counter()
        report = IngestReport(epoch_before=self._epoch())
        with _obs.span("pipeline.ingest"):
            batch = list(pages)
            report.batch_pages = len(batch)

            old_registrations = self._registrations()
            for page in batch:
                self.state["pages"][page.title] = _page_record(page)
            for entity, forms in (aliases or {}).items():
                self.state["aliases"][term_to_text(entity)] = list(forms)
            retracted = {tuple(key) for key in self.state["retracted"]}
            retracted.update(tuple(key) for key in retract)
            self.state["retracted"] = sorted(retracted)
            new_registrations = self._registrations()

            affected_names = {
                name
                for name in old_registrations.keys()
                | new_registrations.keys()
                if old_registrations.get(name) != new_registrations.get(name)
            }
            report.affected_names = len(affected_names)
            report.total_pages = len(self.state["pages"])

            # Re-extract the batch plus every page an affected name can
            # reach; reuse cached candidates everywhere else.
            stale = self._affected_titles(
                {page.title for page in batch}, affected_names
            )
            report.reextracted_pages = len(stale)
            report.cached_pages = report.total_pages - len(stale)
            wiki = self._wiki()
            builder = KnowledgeBaseBuilder(wiki, aliases=self._alias_map())
            if stale:
                extractor = PageExtractor(builder.resolver)
                for title in sorted(stale):
                    self.state["pages"][title]["candidates"] = [
                        _candidate_record(candidate)
                        for candidate in extractor.extract(wiki.pages[title])
                    ]

            # Full-corpus candidate list in sorted-title order — exactly
            # what the batch pipeline's extraction stage would produce.
            candidates = [
                _candidate_from(record)
                for title in sorted(self.state["pages"])
                for record in self.state["pages"][title]["candidates"]
            ]

            # Rebuild the logical KB through the unchanged downstream
            # stages.
            kb, report.build = builder.build(candidates=candidates)
            if report.build.consistency is not None:
                report.components = report.build.consistency.components

            # Curated removals: set-minus after the pipeline, so the
            # invariant stays "full rebuild minus the same retractions".
            for key in self.state["retracted"]:
                if kb.remove(_retraction_probe(*key)):
                    report.retracted += 1

            # Delta derivation: diff the rebuilt KB against the segment
            # stack's logical content.  Changed or new keys become delta
            # records, disappeared keys become tombstones.
            current = self.store.logical_parts()
            rebuilt: dict[bytes, tuple] = {}
            additions: list[Triple] = []
            for triple in kb:
                fields = record_fields(triple)
                key = spo_key_bytes(fields)
                rebuilt[key] = fields
                if current.get(key) != fields:
                    additions.append(triple)
            tombstones = [
                current[key][:3] for key in current if key not in rebuilt
            ]
            report.added = len(additions)
            report.tombstones = len(tombstones)
            report.segment = self.store.flush(additions, tombstones=tombstones)
            if compact:
                report.compacted = self.store.compact() is not None
            self._save_state()

            report.epoch_after = self._epoch()
            report.triples = len(kb)
            report.elapsed = time.perf_counter() - started
            if _obs.ENABLED:
                _obs.count("pipeline.ingest.batches")
                _obs.count("pipeline.ingest.added", report.added)
                _obs.count("pipeline.ingest.tombstones", report.tombstones)
        return report

    # -------------------------------------------------------------- queries

    def _epoch(self) -> str:
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            return epoch_hex(EMPTY_EPOCH)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            return json.load(handle)["epoch"]


def _contains_sequence(haystack: list[str], needles: list[list[str]]) -> bool:
    """True if any needle occurs as a contiguous run inside haystack."""
    for needle in needles:
        span = len(needle)
        if span > len(haystack):
            continue
        first = needle[0]
        for i in range(len(haystack) - span + 1):
            if haystack[i] == first and haystack[i : i + span] == needle:
                return True
    return False


def _retraction_probe(
    subject_text: str, predicate_text: str, object_text: str
) -> Triple:
    """A key-only triple used to remove a fact by canonical (s, p, o)."""
    return Triple(
        term_from_text(subject_text),
        term_from_text(predicate_text, relation_position=True),
        term_from_text(object_text),
    )


def attach_posts(
    wiki: Wiki, posts: Iterable[Post]
) -> list[WikiPage]:
    """Fold social posts into changed product pages for ingestion.

    The social stream's unit of arrival is a post *about* a product; the
    incremental pipeline's unit of change is a page.  This adapter appends
    each post's text as a new sentence to (a copy of) the product's page,
    returning the changed pages — ready to pass to
    :meth:`IncrementalBuilder.ingest` as a delta batch.  Posts about
    entities with no page are skipped (there is nothing to anchor them to).
    """
    by_title: dict[str, list[Post]] = {}
    for post in posts:
        title = wiki.by_entity.get(post.product)
        if title is not None:
            by_title.setdefault(title, []).append(post)
    changed: list[WikiPage] = []
    for title in sorted(by_title):
        page = wiki.pages[title]
        extra = [
            Sentence(post.text)
            for post in sorted(by_title[title], key=lambda p: p.post_id)
        ]
        changed.append(
            WikiPage(
                title=page.title,
                entity=page.entity,
                document=Document(
                    doc_id=page.document.doc_id,
                    sentences=list(page.document.sentences) + extra,
                ),
                infobox=dict(page.infobox),
                categories=list(page.categories),
                interlanguage=dict(page.interlanguage),
            )
        )
    return changed
