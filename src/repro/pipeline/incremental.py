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
* **Tombstoned deltas** — the rebuilt records are diffed against what the
  segment stack holds for them (its whole logical content on the full
  path, the recomputed subjects' records otherwise; see *Subject
  locality* below); disappeared keys (retractions,
  re-resolution flips, consistency reversals) become tombstone records in
  the delta flushed through :meth:`SegmentStore.flush`, erased for good at
  ``compact()``.  The manifest's ``epoch`` rolls forward, so a
  ``QueryEngine`` built over the new snapshot tags its answers with the
  new generation's identity; an engine over the old snapshot keeps
  serving the old one.

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

**Subject locality.**  A builder's first ingest, fresh or reopened, runs
the whole pipeline and diffs the whole KB (the *full path*).  It leaves
what it already has in memory (:class:`_Products`): the pages, their
parsed candidates and each subject's component count from the build's
own clean.  The next delta indexes them once — per-page type triples and
bridged types, a subject -> emitting-pages index, the taxonomy — and
every ingest after the first recomputes only the subjects the delta
touches:

* every record of the KB belongs to one subject, and each family is
  per subject: schema and hypernym-chain triples are fixed, a page's
  type, label and prefLabel triples name the page's entity or
  category classes, and the merge is per (s, p, o) key;
* no consistency clause crosses a subject and component seeds come from
  component content (:mod:`repro.extraction.consistency`), so cleaning the
  facts of a subject set accepts exactly what a global clean accepts of
  them — given the same taxonomy;
* so a subject's records change only if its candidates change (the
  subjects of the stale pages' old and new candidates), its own page
  changes (the old and new entity and category classes of each changed
  page), or the types of an entity one of its candidates names change.

Those subjects are reassembled through the build's own stage functions
and family order, and their records are diffed against what the segment
snapshot holds for them.  A retraction is a set-minus after reasoning and
recomputes nothing: a newly retracted key outside the recomputed subjects
is tombstoned directly when it is live.  A delta that changes the class hierarchy — a
category subclass edge appears or vanishes, as with a new category head —
would change the taxonomy every subject is checked against, so it takes
the full path instead (``IngestReport.full_rebuild``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Iterable, Optional

from ..corpus.document import Document, Sentence
from ..corpus.social import Post
from ..corpus.wiki import Category, Wiki, WikiPage
from ..extraction.base import Candidate
from ..extraction.consistency import ConsistencyReasoner
from ..kb import (
    Entity,
    Taxonomy,
    TimeSpan,
    Triple,
    canonical_triples,
    ns,
)
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
from ..taxonomy.integration import hypernym_triples, page_type_triples
from ..world.schema import SCHEMA_TRIPLES
from . import builder as _builder
from .builder import (
    MIN_CONFIDENCE,
    KnowledgeBaseBuilder,
    PageExtractor,
    bridged_page_types,
    kb_families,
    name_registrations,
    pref_label_triples,
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
    #: Consistency components of the whole KB, summed from the per-subject
    #: counts (what a full rebuild's reasoner reports).
    components: int = 0
    #: Subjects whose records this ingest recomputed: every subject of the
    #: KB on a full rebuild.
    recomputed_subjects: int = 0
    #: Whether this ingest ran the whole pipeline: a builder's first ingest,
    #: or a delta that changed the class hierarchy.
    full_rebuild: bool = False
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
    #: Manifest epoch before/after — the ``kb_epoch`` an engine over
    #: the snapshot reports.
    epoch_before: str = ""
    epoch_after: str = ""
    #: Logical triple count after this ingest.
    triples: int = 0
    #: Wall-clock seconds spent in this ingest.
    elapsed: float = 0.0


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


# ------------------------------------------------------ in-memory products


@cache
def _schema_by_subject() -> dict:
    """The schema triples grouped by subject, in schema order."""
    grouped: dict = {}
    for triple in SCHEMA_TRIPLES:
        grouped.setdefault(triple.subject, []).append(triple)
    return grouped


class _Products:
    """What the full path leaves in memory for later deltas: the pipeline's
    per-page products, indexed by page and by subject.

    ``pages`` stays in title order, as the full path's wiki is.  A page's
    *subjects* are its entity, its candidates' subjects and its type
    triples' subjects (the entity and its category classes): every record
    the page contributes to belongs to one of them.  The full path hands
    over only what it already has; the indexes are built by :meth:`index`
    on the first delta that reads them, so a builder that ingests once
    never pays for them.
    """

    def __init__(
        self,
        pages: dict[str, WikiPage],
        candidates: dict[str, list[Candidate]],
        components: dict,
        retracted_hits: set[tuple[str, str, str]],
    ) -> None:
        self.pages = pages
        self.candidates = candidates
        #: Subject -> consistency components (subjects with none left out).
        self.components = components
        #: Retracted keys the last rebuild held (so they were removed).
        self.retracted_hits = retracted_hits
        #: Per page: :func:`page_type_triples` and the bridged types.
        self.types: dict[str, list[Triple]] = {}
        self.bridged: dict[str, list[Triple]] = {}
        #: Subject -> the pages with a product about it.
        self.emitters: dict = {}
        #: Candidate object -> the pages with a candidate naming it.
        self.naming: dict = {}
        #: Category subclass edge key -> how many pages emit it.
        self.edges: dict[tuple, int] = {}
        #: The hypernym-chain triples, by subject (fixed while the
        #: category edges are).
        self.chains: dict = {}
        #: The consistency taxonomy; None until read, and again once an
        #: entity's types changed.
        self.taxonomy: Optional[Taxonomy] = None
        #: Built on the first delta that extracts, dropped when a name
        #: registration changes.
        self.extractor: Optional[PageExtractor] = None
        self.indexed = False

    def index(self) -> None:
        """Index every page by type triples, subjects and candidate
        objects, and collect the hypernym chains (once)."""
        if self.indexed:
            return
        linked: set[str] = set()
        for title, page in self.pages.items():
            types, synsets = page_type_triples(page)
            self._index_page(title, types)
            linked.update(synsets)
        for triple in hypernym_triples(linked):
            self.chains.setdefault(triple.subject, []).append(triple)
        self.indexed = True

    # ------------------------------------------------------------ pages

    def subjects_of(self, title: str) -> set:
        return (
            {self.pages[title].entity}
            | {candidate.subject for candidate in self.candidates[title]}
            | {triple.subject for triple in self.types[title]}
        )

    def put(
        self,
        title: str,
        page: WikiPage,
        candidates: list[Candidate],
        types: list[Triple],
    ) -> None:
        self.pages[title] = page
        self.candidates[title] = candidates
        self._index_page(title, types)

    def _index_page(self, title: str, types: list[Triple]) -> None:
        page, candidates = self.pages[title], self.candidates[title]
        self.types[title] = types
        self.bridged[title] = bridged_page_types(page)
        for subject in self.subjects_of(title):  # det: allow-unordered -- fills sets
            self.emitters.setdefault(subject, set()).add(title)
        for candidate in candidates:
            self.naming.setdefault(candidate.object, set()).add(title)
        for key in _edge_keys(types):
            self.edges[key] = self.edges.get(key, 0) + 1

    def drop(self, title: str) -> None:
        for subject in self.subjects_of(title):  # det: allow-unordered -- empties sets
            _discard(self.emitters, subject, title)
        for candidate in self.candidates[title]:
            _discard(self.naming, candidate.object, title)
        for key in _edge_keys(self.types[title]):
            self.edges[key] -= 1
            if not self.edges[key]:
                del self.edges[key]
        for products in (self.pages, self.candidates, self.types, self.bridged):
            del products[title]

    def hierarchy_changes(self, types: dict[str, list[Triple]]) -> bool:
        """Whether replacing these pages' type triples makes a category
        subclass edge appear or vanish."""
        delta: dict[tuple, int] = {}
        for title, new in types.items():
            for key in _edge_keys(self.types.get(title, ())):
                delta[key] = delta.get(key, 0) - 1
            for key in _edge_keys(new):
                delta[key] = delta.get(key, 0) + 1
        return any(
            (self.edges.get(key, 0) > 0) != (self.edges.get(key, 0) + d > 0)
            for key, d in delta.items()
        )

    # ------------------------------------------------------------ types

    def direct_types(self, entity) -> set:
        """The classes the taxonomy types ``entity`` with directly."""
        return {
            triple.object
            for title in self.emitters.get(entity, ())  # det: allow-unordered -- builds a set
            if self.pages[title].entity == entity
            for triple in chain(self.types[title], self.bridged[title])
            if triple.predicate == ns.TYPE and triple.subject == entity
        }

    def naming_subjects(self, entities: set) -> set:
        """The subjects of every candidate whose object is one of
        ``entities``."""
        return {
            candidate.subject
            for entity in entities  # det: allow-unordered -- builds a set
            for title in self.naming.get(entity, ())  # det: allow-unordered -- builds a set
            for candidate in self.candidates[title]
            if candidate.object == entity
        }

    def reasoner(self) -> ConsistencyReasoner:
        """The consistency reasoner over the current taxonomy, which is
        rebuilt the way a build loads it when types changed."""
        if self.taxonomy is None:
            self.taxonomy = Taxonomy(
                chain(
                    SCHEMA_TRIPLES,
                    *self.types.values(),
                    *self.chains.values(),
                    *self.bridged.values(),
                )
            )
        return ConsistencyReasoner(self.taxonomy)

    # ---------------------------------------------------------- records

    def records(self, subjects: list) -> tuple[list[Triple], dict]:
        """The KB triples of ``subjects`` before retraction, as a full
        build assembles them, plus the per-subject component counts.

        Every stage runs through the build's own functions on exactly the
        subjects' inputs, in the build's page and family order, so
        duplicate keys elect the same witnesses.
        """
        wanted = set(subjects)
        titles = sorted(
            {title for subject in subjects for title in self.emitters.get(subject, ())}
        )
        candidates = [
            candidate
            for title in titles
            for candidate in self.candidates[title]
            if candidate.subject in wanted
        ]
        merged = _builder.candidates_to_store(
            _builder.attach_scopes(candidates), MIN_CONFIDENCE
        )
        facts, consistency = self.reasoner().clean(merged)
        own = {
            title: self.pages[title]
            for title in titles
            if self.pages[title].entity in wanted
        }
        schema = _schema_by_subject()
        triples = canonical_triples(
            kb_families(
                (t for s in subjects for t in schema.get(s, ())),
                chain(
                    (
                        t
                        for title in titles
                        for t in self.types[title]
                        if t.subject in wanted
                    ),
                    (t for s in subjects for t in self.chains.get(s, ())),
                ),
                facts,
                _builder.harvest_labels(Wiki(pages=own)),
                pref_label_triples(own),
            )
        )
        return triples, consistency.subject_components


def _edge_keys(types: Iterable[Triple]) -> list[tuple]:
    return [t.spo() for t in types if t.predicate == ns.SUBCLASS_OF]


def _discard(index: dict, key, title: str) -> None:
    titles = index.get(key)
    if titles is not None:
        titles.discard(title)
        if not titles:
            del index[key]


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
        #: The full path's products, kept for later deltas (None until this
        #: builder's first ingest).
        self._products: Optional[_Products] = None

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

        The builder's first ingest runs the full path; later ones
        recompute only the subjects the delta touches (see the module
        docstring), unless the class hierarchy changes.
        """
        started = time.perf_counter()
        report = IngestReport(epoch_before=self._identity()[0])
        with _obs.span("pipeline.ingest"):
            batch = list(pages)
            report.batch_pages = len(batch)

            old_registrations = self._registrations()
            for page in batch:
                self.state["pages"][page.title] = _page_record(page)
            for entity, forms in (aliases or {}).items():
                self.state["aliases"][term_to_text(entity)] = list(forms)
            retracted = {tuple(key) for key in self.state["retracted"]}
            fresh = {tuple(key) for key in retract} - retracted
            self.state["retracted"] = sorted(retracted | fresh)
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
            batch_titles = {page.title for page in batch}
            stale = self._affected_titles(batch_titles, affected_names)
            report.reextracted_pages = len(stale)
            report.cached_pages = report.total_pages - len(stale)

            # The products describe the KB only once this delta is on
            # disk: an ingest that raises leaves none, so the next one
            # takes the full path.
            products, self._products = self._products, None
            delta = None
            if products is not None:
                delta = self._local_delta(
                    products, batch_titles, stale, bool(affected_names),
                    fresh, report,
                )
            if delta is None:
                products, delta = self._full_delta(stale, report)
            additions, tombstones = delta
            report.added = len(additions)
            report.tombstones = len(tombstones)
            report.segment = self.store.flush(additions, tombstones=tombstones)
            if compact:
                report.compacted = self.store.compact() is not None
            self._save_state()
            self._products = products

            report.epoch_after, report.triples = self._identity()
            report.elapsed = time.perf_counter() - started
            if _obs.ENABLED:
                _obs.count("pipeline.ingest.batches")
                _obs.count("pipeline.ingest.added", report.added)
                _obs.count("pipeline.ingest.tombstones", report.tombstones)
        return report

    def _extract(self, extractor: PageExtractor, page: WikiPage) -> list[list]:
        """Extract one page into its state record; return the record's
        candidate list."""
        records = [_candidate_record(c) for c in extractor.extract(page)]
        self.state["pages"][page.title]["candidates"] = records
        return records

    def _full_delta(
        self, stale: set[str], report: IngestReport
    ) -> tuple["_Products", tuple[list[Triple], list[tuple[str, str, str]]]]:
        """Rebuild the whole KB and diff it against the segment stack's
        logical content; return the rebuild's products and the delta."""
        wiki = self._wiki()
        builder = KnowledgeBaseBuilder(wiki, aliases=self._alias_map())
        if stale:
            extractor = PageExtractor(builder.resolver)
            for title in sorted(stale):
                self._extract(extractor, wiki.pages[title])

        # Per-page candidates in sorted-title order — exactly what the
        # batch pipeline's extraction stage would produce.
        candidates = {
            title: [_candidate_from(r) for r in record["candidates"]]
            for title, record in sorted(self.state["pages"].items())
        }
        kb, build = builder.build(
            candidates=[c for page in candidates.values() for c in page]
        )
        report.components = build.consistency.components
        report.full_rebuild = True

        # Curated removals: set-minus after the pipeline, so the
        # invariant stays "full rebuild minus the same retractions".
        hits = {
            tuple(key)
            for key in self.state["retracted"]
            if kb.remove(_retraction_probe(*key))
        }
        report.retracted = len(hits)

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
        report.recomputed_subjects = len(
            {fields[0] for fields in rebuilt.values()}
        )
        products = _Products(
            wiki.pages, candidates, build.consistency.subject_components, hits
        )
        return products, (additions, tombstones)

    def _local_delta(
        self,
        products: "_Products",
        batch_titles: set[str],
        stale: set[str],
        names_changed: bool,
        fresh: set[tuple[str, str, str]],
        report: IngestReport,
    ) -> Optional[tuple[list[Triple], list[tuple[str, str, str]]]]:
        """Recompute the subjects the delta touches and diff their records
        against the snapshot's; None (nothing changed yet) when the delta
        changes the class hierarchy."""
        products.index()
        state_pages = self.state["pages"]
        changed = {
            title: _page_from(title, state_pages[title])
            for title in sorted(batch_titles)
        }
        types = {
            title: page_type_triples(page)[0] for title, page in changed.items()
        }
        if products.hierarchy_changes(types):
            return None

        # The subjects the old products of the touched pages belong to, and
        # the types of the changed pages' entities before the change.
        touched: set = set()
        for title in stale:  # det: allow-unordered -- fills a set
            if title in products.pages:
                touched |= products.subjects_of(title)
        entities = {page.entity for page in changed.values()} | {
            products.pages[title].entity
            for title in changed
            if title in products.pages
        }
        typed = {entity: products.direct_types(entity) for entity in entities}  # det: allow-unordered -- builds a dict

        if names_changed:
            products.extractor = None
        pages = {**products.pages, **changed}
        if pages.keys() != products.pages.keys():
            pages = dict(sorted(pages.items()))
        for title in sorted(stale):
            if products.extractor is None:
                products.extractor = PageExtractor(
                    KnowledgeBaseBuilder(
                        Wiki(pages=pages), aliases=self._alias_map()
                    ).resolver
                )
            candidates = [
                _candidate_from(record)
                for record in self._extract(products.extractor, pages[title])
            ]
            if title in types:
                page_types = types[title]
            else:   # re-extracted only: its own content is unchanged
                page_types = products.types[title]
            if title in products.pages:
                products.drop(title)
            products.put(title, pages[title], candidates, page_types)
            touched |= products.subjects_of(title)
        products.pages = pages

        retyped = {e for e in entities if products.direct_types(e) != typed[e]}  # det: allow-unordered -- builds a set
        if retyped:
            products.taxonomy = None
            touched |= products.naming_subjects(retyped)

        ordered = sorted(touched, key=term_to_text)
        triples, components = products.records(ordered)
        for subject in ordered:
            products.components.pop(subject, None)
        products.components.update(components)
        report.components = sum(products.components.values())
        report.recomputed_subjects = len(ordered)
        return self._diff_subjects(products, ordered, triples, fresh, report)

    def _diff_subjects(
        self,
        products: "_Products",
        subjects: list,
        triples: list[Triple],
        fresh: set[tuple[str, str, str]],
        report: IngestReport,
    ) -> tuple[list[Triple], list[tuple[str, str, str]]]:
        """The delta: the recomputed subjects' records against the ones
        the snapshot holds for them, plus a tombstone for each newly
        retracted key of another subject that is live."""
        retracted = {tuple(key) for key in self.state["retracted"]}
        texts = {term_to_text(subject) for subject in subjects}
        hits = {key for key in products.retracted_hits if key[0] not in texts}
        rebuilt: dict[bytes, tuple] = {}
        for triple in triples:
            fields = record_fields(triple)
            if fields[:3] in retracted:
                hits.add(fields[:3])
            else:
                rebuilt[spo_key_bytes(fields)] = (fields, triple)
        additions: list[Triple] = []
        tombstones: list[tuple[str, str, str]] = []
        if not os.path.exists(os.path.join(self.directory, MANIFEST_NAME)):
            additions = [triple for __, triple in rebuilt.values()]
        else:
            with self.store.snapshot() as snapshot:
                for subject in subjects:
                    for fields in snapshot.records(subject=subject):
                        key = spo_key_bytes(fields)
                        if key not in rebuilt:
                            tombstones.append(fields[:3])
                        elif rebuilt[key][0] == fields:
                            del rebuilt[key]
                additions = [triple for __, triple in rebuilt.values()]
                for key in sorted(fresh):
                    if key[0] in texts:
                        continue
                    probe = _retraction_probe(*key)
                    if snapshot.records(
                        probe.subject, probe.predicate, probe.object
                    ):
                        tombstones.append(key)
                        hits.add(key)
        products.retracted_hits = hits
        report.retracted = len(hits)
        return additions, tombstones

    # -------------------------------------------------------------- queries

    def _identity(self) -> tuple[str, int]:
        """The manifest's epoch and logical triple count."""
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            return epoch_hex(EMPTY_EPOCH), 0
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        return manifest["epoch"], manifest["triples"]


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
