"""The end-to-end knowledge-base construction pipeline.

This is "a YAGO built from the synthetic Wikipedia": category integration
supplies the class taxonomy, infobox and sentence extractors supply the
facts, temporal tagging supplies scopes, interlanguage links supply
multilingual labels, and MaxSat consistency reasoning cleans the result.
Per-page extraction is a map job: with ``BuildConfig.workers > 1`` it fans
out over a process pool.  The parent writes the corpus once as a mmap-able
corpus file; each worker opens it by path, builds the name resolver and
gazetteer once in its initializer, extracts page batches, and ships its
telemetry back to the parent.  Batch results concatenate in input order,
so the resulting KB is byte-identical to a serial build.  Every later stage
runs in the parent.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from ..kb import Entity, Taxonomy, Triple, TripleStore, ns
from ..corpus.corpusfile import CorpusReader, open_corpus, write_corpus
from ..corpus.wiki import Wiki, WikiPage
from ..bigdata.backends import ExecutionBackend, chunked, get_backend
from ..extraction.base import Candidate
from ..extraction.consistency import ConsistencyReasoner, ConsistencyReport
from ..extraction.infobox import InfoboxExtractor
from ..extraction.occurrences import sentence_occurrences
from ..extraction.patterns import PatternExtractor
from ..extraction.resolution import NameResolver
from ..extraction.temporal import attach_scopes, extract_year_attributes
from ..nlp.pipeline import analyze
from ..obs import core as _obs
from ..world import schema as ws

# The list-emitting stage functions, bound under the stage names a build
# calls them by (and that external tracers hook in this module):
# ``integrate`` -> type triples, ``candidates_to_store`` -> merged facts,
# ``harvest_labels`` -> label triples.  Their store-returning namesakes in
# the stage modules are thin wrappers over the same code.
from ..extraction.base import merged_triples as candidates_to_store
from ..extraction.multilingual import label_triples as harvest_labels
from ..taxonomy.integration import integration_triples as integrate


@dataclass(frozen=True, slots=True)
class BuildConfig:
    """Pipeline switches."""

    use_infobox: bool = True
    use_patterns: bool = True
    use_year_attributes: bool = True
    use_temporal_scoping: bool = True
    use_consistency: bool = True
    use_multilingual: bool = True
    min_confidence: float = 0.5
    # Execution policy — never byte-affecting: workers > 1 extracts pages
    # in a process pool that reads the corpus file.
    workers: int = 0                        # <= 1 = in-process execution
    corpus_file: Optional[str] = None       # write/reuse the corpus file here
    # Keep a copy of the merged pre-consistency fact store on the report
    # (``BuildReport.merged_store``) so quality harnesses can score the
    # extraction stage separately from the reasoned KB.  Observation only —
    # never byte-affecting.
    keep_merged_store: bool = False


@dataclass(slots=True)
class BuildReport:
    """What the pipeline produced at each stage."""

    pages: int = 0
    sentences: int = 0
    type_triples: int = 0
    infobox_candidates: int = 0
    pattern_candidates: int = 0
    year_candidates: int = 0
    merged_facts: int = 0
    accepted_facts: int = 0
    label_triples: int = 0
    consistency: Optional[ConsistencyReport] = None
    backend: str = "serial"
    workers: int = 1
    #: The merged pre-consistency fact store (only when
    #: ``BuildConfig.keep_merged_store`` is set).
    merged_store: Optional[TripleStore] = None


def _build_resolver(
    wiki: Wiki, aliases: Optional[dict[Entity, list[str]]]
) -> NameResolver:
    """The shared resolver construction: page titles plus alias forms.

    Every alias form resolves except the one that *is* the page title
    (already registered with full weight) — comparing against the title,
    not positionally, so a single-element alias list still contributes.
    """
    resolver = NameResolver()
    for title, page in wiki.pages.items():
        resolver.add(title, page.entity, count=5)
    if aliases:
        for entity, forms in aliases.items():
            title = wiki.by_entity.get(entity)
            if title is None:
                continue
            for form in forms:
                if form != title:
                    resolver.add(form, entity)
    return resolver


class PageExtractor:
    """The per-page fact extraction context.

    Holds the extractor instances (infobox, patterns) alongside the
    resolver and gazetteer so they are constructed once per worker, not
    once per page — this is the unit the execution backends instantiate in
    their worker initializer.
    """

    def __init__(self, resolver: NameResolver, config: BuildConfig) -> None:
        self.resolver = resolver
        self.config = config
        self.gazetteer = resolver.to_gazetteer()
        self.infobox = InfoboxExtractor(resolver)
        self.patterns = PatternExtractor()

    def extract(self, page: WikiPage) -> list[Candidate]:
        """All fact candidates one page contributes (the map function)."""
        candidates: list[Candidate] = []
        if self.config.use_infobox:
            with _obs.span("pipeline.extract.infobox") as tracing:
                extracted = self.infobox.extract_page(page)
                tracing.add("candidates", len(extracted))
                candidates.extend(extracted)
        if self.config.use_patterns or self.config.use_year_attributes:
            with _obs.span("pipeline.extract.sentences") as tracing:
                pattern_found = 0
                year_found = 0
                for sentence in page.document.sentences:
                    analysis = analyze(sentence.text, self.gazetteer)
                    if self.config.use_patterns:
                        occurrences = list(
                            sentence_occurrences(analysis, self.resolver)
                        )
                        extracted = self.patterns.extract(occurrences)
                        pattern_found += len(extracted)
                        candidates.extend(extracted)
                    if self.config.use_year_attributes:
                        for triple in extract_year_attributes(
                            page.entity, sentence.text
                        ):
                            year_found += 1
                            candidates.append(
                                Candidate(
                                    subject=triple.subject,
                                    relation=triple.predicate,
                                    object=triple.object,
                                    confidence=triple.confidence,
                                    extractor="year-attributes",
                                    evidence=sentence.text,
                                )
                            )
                tracing.add("sentences", len(page.document.sentences))
                tracing.add("patterns", pattern_found)
                tracing.add("year_attributes", year_found)
        return candidates


# Worker-side extraction context, installed in each pool process by
# :func:`_extraction_worker_init_corpus`.
_WORKER = threading.local()


def _corpus_resolver(reader: CorpusReader) -> NameResolver:
    """:func:`_build_resolver` reconstructed from a corpus file's catalog:
    same registrations, same order, no in-memory wiki required."""
    titles, by_entity, aliases = reader.catalog()
    resolver = NameResolver()
    for title, entity in titles.items():
        resolver.add(title, entity, count=5)
    for entity, forms in aliases:
        title = by_entity.get(entity)
        if title is None:
            continue
        for form in forms:
            if form != title:
                resolver.add(form, entity)
    return resolver


def _extraction_worker_init_corpus(corpus_path: str, config: BuildConfig) -> None:
    """Build one worker's resolver/gazetteer/extractors (runs once per
    worker, before any page batch).

    The worker receives a *path*, not a pickled wiki: it mmaps the shared
    read-only corpus file (process-cached across map calls) and loads
    pages by title on demand — the OS page cache shares the bytes between
    every worker on the host.
    """
    reader = open_corpus(corpus_path)
    _WORKER.load_page = reader.page
    _WORKER.extractor = PageExtractor(_corpus_resolver(reader), config)


def _extract_batch(titles: list[str]) -> list[Candidate]:
    """Extract one batch of pages inside a worker (titles in input order)."""
    extractor: PageExtractor = _WORKER.extractor
    load_page = _WORKER.load_page
    candidates: list[Candidate] = []
    for title in titles:
        candidates.extend(extractor.extract(load_page(title)))
    return candidates


class KnowledgeBaseBuilder:
    """Build a KB from an encyclopedia."""

    def __init__(
        self,
        wiki: Wiki,
        aliases: Optional[dict[Entity, list[str]]] = None,
        config: Optional[BuildConfig] = None,
    ) -> None:
        self.wiki = wiki
        self.aliases = aliases
        self.config = config if config is not None else BuildConfig()
        self.resolver = _build_resolver(wiki, aliases)
        self._extractor = PageExtractor(self.resolver, self.config)
        self._gazetteer = self._extractor.gazetteer
        self._corpus_path: Optional[str] = None

    # -------------------------------------------------------------- stages

    def _page_candidates(self, page: WikiPage) -> list[Candidate]:
        """All fact candidates one page contributes (the map function)."""
        return self._extractor.extract(page)

    def build(
        self, candidates: Optional[list[Candidate]] = None
    ) -> tuple[TripleStore, BuildReport]:
        """Run the full pipeline; returns (knowledge base, report).

        ``candidates`` injects a pre-computed extraction-stage result (the
        incremental build's mix of cached and re-extracted page
        candidates); the extraction stage is skipped and every later stage
        runs unchanged, so the output is the same function of (wiki,
        candidates) either way.
        """
        report = BuildReport(pages=len(self.wiki.pages))
        report.sentences = sum(
            len(p.document.sentences) for p in self.wiki.pages.values()
        )

        # Resolve the extraction backend once per build; a process pool is
        # closed when the build finishes.
        backend = get_backend(self.config.workers)
        report.backend = backend.name
        report.workers = backend.workers
        corpus_tmp = self._prepare_corpus(backend, skip=candidates is not None)
        try:
            return self._build_with(backend, report, candidates)
        finally:
            backend.close()
            self._corpus_path = None
            if corpus_tmp is not None:
                import shutil

                shutil.rmtree(corpus_tmp, ignore_errors=True)

    def _prepare_corpus(
        self, backend: ExecutionBackend, skip: bool = False
    ) -> Optional[str]:
        """Write (or reuse) the corpus file this build's workers will mmap.

        Returns the temp directory to clean up afterwards, if one was
        created.  No file is produced for serial builds or injected
        candidates (``skip``) unless the caller pinned ``corpus_file``,
        which always materializes the artifact for reuse.
        """
        uses_file = backend.workers > 1 and not skip
        if not uses_file and self.config.corpus_file is None:
            return None
        tmp_dir: Optional[str] = None
        if self.config.corpus_file is not None:
            path = self.config.corpus_file
        else:
            tmp_dir = tempfile.mkdtemp(prefix="repro-corpus-")
            path = os.path.join(tmp_dir, "corpus.rprocrp")
        with _obs.span("pipeline.corpus") as tracing:
            manifest = self._ensure_corpus_file(path)
            tracing.add("pages", manifest["pages"])
            tracing.add("bytes", manifest["bytes"])
            tracing.add("reused", manifest.get("reused", False))
        if uses_file:
            self._corpus_path = path
        return tmp_dir

    def _ensure_corpus_file(self, path: str) -> dict:
        """Write the corpus file, or validate and reuse an existing one.

        Reuse checks identity cheaply via the file's resolver catalog
        (see :meth:`CorpusReader.matches`); a mismatched or unreadable
        file is rewritten in place (atomic replace; open mmaps keep the
        old inode).
        """
        if os.path.exists(path):
            try:
                reader = CorpusReader(path)
            except (ValueError, OSError):
                reader = None
            if reader is not None:
                with reader:
                    if reader.matches(self.wiki, self.aliases):
                        manifest = reader.manifest()
                        manifest["reused"] = True
                        if _obs.ENABLED:
                            _obs.count("corpus.file.reuses")
                        return manifest
        return write_corpus(self.wiki, path, aliases=self.aliases)

    def _build_with(
        self,
        backend: ExecutionBackend,
        report: BuildReport,
        candidates: Optional[list[Candidate]] = None,
    ) -> tuple[TripleStore, BuildReport]:
        with _obs.span("pipeline.build") as building:
            building.add("pages", report.pages)
            building.add("sentences", report.sentences)

            # Every stage emits a triple list in canonical (s, p, o) order;
            # the KB is the one store of the build, filled once at the end.
            with _obs.span("pipeline.schema"):
                schema = ws.SCHEMA_TRIPLES

            # 1. Classes: category integration (types + subclass hierarchy).
            with _obs.span("pipeline.taxonomy") as tracing:
                type_triples, __ = integrate(self.wiki)
                report.type_triples = len(type_triples)
                tracing.add("type_triples", report.type_triples)

            # 2. Facts: per-page extraction, in-process or over the pool.
            with _obs.span("pipeline.extract") as tracing:
                tracing.add("workers", backend.workers)
                if candidates is None:
                    candidates = self._extract_pages(backend)
                for candidate in candidates:
                    if candidate.extractor == "infobox":
                        report.infobox_candidates += 1
                    elif candidate.extractor == "year-attributes":
                        report.year_candidates += 1
                    else:
                        report.pattern_candidates += 1
                tracing.add("candidates", len(candidates))
                if _obs.ENABLED:
                    _obs.count(
                        "pipeline.candidates.infobox", report.infobox_candidates
                    )
                    _obs.count(
                        "pipeline.candidates.patterns", report.pattern_candidates
                    )
                    _obs.count(
                        "pipeline.candidates.year", report.year_candidates
                    )

            # 3. Temporal scoping from the evidence sentences.
            if self.config.use_temporal_scoping:
                with _obs.span("pipeline.temporal") as tracing:
                    before = sum(1 for c in candidates if c.scope is not None)
                    candidates = attach_scopes(candidates)
                    scoped = sum(1 for c in candidates if c.scope is not None)
                    tracing.add("scoped", scoped - before)

            with _obs.span("pipeline.merge"):
                facts = candidates_to_store(
                    candidates, self.config.min_confidence
                )
                report.merged_facts = len(facts)
                if self.config.keep_merged_store:
                    report.merged_store = TripleStore(facts)

            # 4. Consistency reasoning against the harvested + schema
            #    taxonomy.
            if self.config.use_consistency:
                with _obs.span("pipeline.consistency") as tracing:
                    with _obs.span("pipeline.consistency.taxonomy"):
                        taxonomy = Taxonomy(
                            chain(schema, type_triples, _bridged_types(self.wiki))
                        )
                    reasoner = ConsistencyReasoner(taxonomy)
                    facts, report.consistency = reasoner.clean(facts)
                    tracing.add("accepted", report.consistency.accepted)
                    tracing.add("rejected", report.consistency.rejected)
                    tracing.add("components", report.consistency.components)
            report.accepted_facts = len(facts)

            # 5. Multilingual labels.
            labels: list[Triple] = []
            if self.config.use_multilingual:
                with _obs.span("pipeline.multilingual") as tracing:
                    labels = harvest_labels(self.wiki)
                    report.label_triples = len(labels)
                    tracing.add("labels", report.label_triples)
            with _obs.span("pipeline.labels"):
                pref_labels = [
                    Triple(page.entity, ns.PREF_LABEL, _literal(title))
                    for title, page in self.wiki.pages.items()
                ]

            with _obs.span("pipeline.assemble"):
                kb = TripleStore(
                    chain(schema, type_triples, facts, labels, pref_labels)
                )
            building.add("triples", len(kb))
        return kb, report

    def _extract_pages(self, backend: ExecutionBackend) -> list[Candidate]:
        """Per-page extraction over the backend, in page-title order.

        Batches are contiguous title ranges and results concatenate in
        batch order, so the pool yields the same candidate list as the
        in-process loop.
        """
        titles = sorted(self.wiki.pages)
        if backend.workers <= 1:
            candidates: list[Candidate] = []
            for title in titles:
                candidates.extend(self._page_candidates(self.wiki.pages[title]))
            return candidates
        batches = backend.map(
            _extract_batch,
            chunked(titles, backend.workers * 4),
            initializer=_extraction_worker_init_corpus,
            initargs=(self._corpus_path, self.config),
        )
        return [candidate for batch in batches for candidate in batch]


def _bridged_types(wiki: Wiki) -> list[Triple]:
    """A coarse ``cls:`` type assignment for consistency checking.

    Harvested wcat/wordnet types do not line up with the schema's ``cls:``
    domain/range classes by themselves; the bridge is the category-class
    naming (the head lemma matches the schema class noun).  Real systems
    maintain exactly such a mapping between harvested classes and the
    ontology.  Unmapped entities stay untyped (open world).
    """
    from ..corpus.templates import CLASS_NOUNS
    from ..taxonomy.categories import classify_category

    noun_to_class = {
        singular: cls for cls, (singular, __) in CLASS_NOUNS.items()
    }
    noun_to_class["person"] = ws.PERSON
    noun_to_class["product"] = ws.PRODUCT
    bridged = []
    for page in wiki.pages.values():
        for category in page.categories:
            decision = classify_category(category.name)
            if not decision.conceptual:
                continue
            mapped = noun_to_class.get(decision.head_lemma)
            if mapped is not None:
                bridged.append(Triple(page.entity, ns.TYPE, mapped))
    return bridged


def _literal(text: str):
    from ..kb import string_literal

    return string_literal(text)


def emit_segments(kb: TripleStore, directory: str) -> dict:
    """Emit a built KB as a byte-pinned segment directory.

    The build-side entry point for the on-disk storage engine
    (:mod:`repro.kb.segments`): a fresh single-segment directory that is
    a pure function of the KB's logical content, traced as its own
    pipeline stage.  Returns the written manifest.
    """
    from ..kb.segments import write_segments

    with _obs.span("pipeline.segments") as tracing:
        manifest = write_segments(kb, directory)
        if tracing:
            _obs.annotate("segments.triples", manifest["triples"])
            _obs.annotate("segments.files", 4 * len(manifest["segments"]) + 1)
    return manifest
