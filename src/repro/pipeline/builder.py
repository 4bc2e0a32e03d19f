"""The end-to-end knowledge-base construction pipeline.

This is "a YAGO built from the synthetic Wikipedia": category integration
supplies the class taxonomy, infobox and sentence extractors supply the
facts, temporal tagging supplies scopes, interlanguage links supply
multilingual labels, and MaxSat consistency reasoning cleans the result.
Every stage runs in-process; per-page extraction walks the pages in title
order, so a build is a pure function of (wiki, aliases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from ..kb import Entity, Taxonomy, Triple, TripleStore, ns
from ..corpus.wiki import Wiki, WikiPage
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


#: Merged facts whose noisy-or confidence falls below this are dropped
#: before consistency reasoning.
MIN_CONFIDENCE = 0.5


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
    #: The merged pre-consistency facts in canonical (s, p, o) order: what
    #: extraction produced before any cleaning, for quality harnesses that
    #: score the stages apart.
    merged: list[Triple] = field(default_factory=list)


def name_registrations(
    titles: Iterable[tuple[str, Hashable]],
    aliases: Optional[Mapping[Hashable, Iterable[str]]],
) -> Iterator[tuple[str, Hashable, int]]:
    """Every (name, entity, count) a build's resolver registers, in order.

    Page titles count 5; then each alias form counts 1, except the one
    that *is* its entity's page title (already registered with full
    weight) — compared against the title, not positionally, so a
    single-element alias list still contributes.  Aliases of entities
    without a page are skipped.  ``titles`` yields (title, entity) pairs.
    """
    title_of: dict[Hashable, str] = {}
    for title, entity in titles:
        title_of[entity] = title
        yield title, entity, 5
    for entity, forms in (aliases or {}).items():
        title = title_of.get(entity)
        if title is None:
            continue
        for form in forms:
            if form != title:
                yield form, entity, 1


def _build_resolver(
    wiki: Wiki, aliases: Optional[dict[Entity, list[str]]]
) -> NameResolver:
    """The resolver of a build: page titles plus alias forms."""
    resolver = NameResolver()
    pages = ((title, page.entity) for title, page in wiki.pages.items())
    for name, entity, count in name_registrations(pages, aliases):
        resolver.add(name, entity, count=count)
    return resolver


class PageExtractor:
    """The per-page fact extraction context.

    Holds the extractor instances (infobox, patterns) alongside the
    resolver and gazetteer so they are constructed once per extraction
    run, not once per page.
    """

    def __init__(self, resolver: NameResolver) -> None:
        self.resolver = resolver
        self.gazetteer = resolver.to_gazetteer()
        self.infobox = InfoboxExtractor(resolver)
        self.patterns = PatternExtractor()

    def extract(self, page: WikiPage) -> list[Candidate]:
        """All fact candidates one page contributes (the map function)."""
        with _obs.span("pipeline.extract.infobox"):
            candidates = self.infobox.extract_page(page)
        with _obs.span("pipeline.extract.sentences"):
            for sentence in page.document.sentences:
                analysis = analyze(sentence.text, self.gazetteer)
                candidates.extend(
                    self.patterns.extract(
                        list(sentence_occurrences(analysis, self.resolver))
                    )
                )
                for triple in extract_year_attributes(
                    page.entity, sentence.text
                ):
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
        return candidates


class KnowledgeBaseBuilder:
    """Build a KB from an encyclopedia.

    ``use_consistency=False`` skips MaxSat reasoning and keeps every merged
    fact (the unreasoned baseline of the scaling benchmark).
    """

    def __init__(
        self,
        wiki: Wiki,
        aliases: Optional[dict[Entity, list[str]]] = None,
        use_consistency: bool = True,
    ) -> None:
        self.wiki = wiki
        self.aliases = aliases
        self.use_consistency = use_consistency

    @cached_property
    def resolver(self) -> NameResolver:
        """The name resolver, built on first use: a build handed its
        candidates (every ingest delta) never reads it."""
        return _build_resolver(self.wiki, self.aliases)

    # -------------------------------------------------------------- stages

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
        with _obs.span("pipeline.build"):
            # Every stage emits a triple list in canonical (s, p, o) order;
            # the KB is the one store of the build, filled once at the end.
            with _obs.span("pipeline.schema"):
                schema = ws.SCHEMA_TRIPLES

            # 1. Classes: category integration (types + subclass hierarchy).
            with _obs.span("pipeline.taxonomy"):
                type_triples, __ = integrate(self.wiki)
                report.type_triples = len(type_triples)

            # 2. Facts: per-page extraction.
            with _obs.span("pipeline.extract"):
                if candidates is None:
                    candidates = self._extract_pages()
                for candidate in candidates:
                    if candidate.extractor == "infobox":
                        report.infobox_candidates += 1
                    elif candidate.extractor == "year-attributes":
                        report.year_candidates += 1
                    else:
                        report.pattern_candidates += 1

            # 3. Temporal scoping from the evidence sentences.
            with _obs.span("pipeline.temporal"):
                candidates = attach_scopes(candidates)

            with _obs.span("pipeline.merge"):
                facts = report.merged = candidates_to_store(
                    candidates, MIN_CONFIDENCE
                )
                report.merged_facts = len(facts)

            # 4. Consistency reasoning against the harvested + schema
            #    taxonomy.
            if self.use_consistency:
                with _obs.span("pipeline.consistency"):
                    with _obs.span("pipeline.consistency.taxonomy"):
                        taxonomy = Taxonomy(
                            chain(schema, type_triples, _bridged_types(self.wiki))
                        )
                    reasoner = ConsistencyReasoner(taxonomy)
                    facts, report.consistency = reasoner.clean(facts)
            report.accepted_facts = len(facts)

            # 5. Multilingual labels.
            with _obs.span("pipeline.multilingual"):
                labels = harvest_labels(self.wiki)
                report.label_triples = len(labels)
            with _obs.span("pipeline.labels"):
                pref_labels = [
                    Triple(page.entity, ns.PREF_LABEL, _literal(title))
                    for title, page in self.wiki.pages.items()
                ]

            with _obs.span("pipeline.assemble"):
                kb = TripleStore(
                    chain(schema, type_triples, facts, labels, pref_labels)
                )
        return kb, report

    def _extract_pages(self) -> list[Candidate]:
        """Per-page extraction, in page-title order.

        The extractor is built here, not with the builder: a build handed
        its candidates (every ingest delta) never extracts.
        """
        extractor = PageExtractor(self.resolver)
        candidates: list[Candidate] = []
        for title in sorted(self.wiki.pages):
            candidates.extend(extractor.extract(self.wiki.pages[title]))
        return candidates


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

    with _obs.span("pipeline.segments"):
        return write_segments(kb, directory)
