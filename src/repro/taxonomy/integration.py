"""YAGO-style integration of conceptual categories into WordNet.

For every page, each conceptual category becomes a fine-grained class
(``wcat:Arvandian_scientists``); the category's head lemma is anchored to
its most frequent WordNet sense (``wn:scientist.n.01``), and the synset's
hypernym chain supplies the upper taxonomy.  The output is the
``rdf:type`` / ``rdfs:subClassOf`` facts — a canonical triple list
(:func:`integration_triples`, what the pipeline consumes) or an ordinary
triple store (:func:`integrate`) — plus a coverage report, the data behind
experiment E1's integration rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..kb import Entity, Triple, TripleStore, canonical_triples, ns
from ..corpus.wiki import Wiki, WikiPage
from ..world import schema as ws
from ..world.names import identifier_from_name
from .categories import classify_category
from .wordnet_mini import WORDNET, MiniWordNet


@dataclass(slots=True)
class IntegrationReport:
    """What happened during taxonomy integration."""

    pages: int = 0
    conceptual_categories: int = 0
    rejected_categories: int = 0
    anchored_heads: Counter = field(default_factory=Counter)
    unanchored_heads: Counter = field(default_factory=Counter)
    typed_entities: int = 0

    @property
    def anchor_rate(self) -> float:
        """Fraction of conceptual-category uses whose head found a synset."""
        anchored = sum(self.anchored_heads.values())
        total = anchored + sum(self.unanchored_heads.values())
        return anchored / total if total else 0.0


def wordnet_class(synset_id: str) -> Entity:
    """The class entity representing a WordNet synset."""
    return Entity(f"wn:{synset_id}")


def category_class(label: str) -> Entity:
    """The fine-grained class entity representing a category."""
    return Entity(f"wcat:{identifier_from_name(label)}")


#: World class -> the WordNet synset its instances should end up under.
#: (Used by E1's evaluation, not by the integration algorithm itself.)
EXPECTED_SYNSET: dict[Entity, str] = {
    ws.SCIENTIST: "scientist.n.01",
    ws.MUSICIAN: "musician.n.01",
    ws.POLITICIAN: "politician.n.01",
    ws.ENTREPRENEUR: "entrepreneur.n.01",
    ws.ATHLETE: "athlete.n.01",
    ws.WRITER: "writer.n.01",
    ws.COMPANY: "company.n.01",
    ws.UNIVERSITY: "university.n.01",
    ws.CITY: "city.n.01",
    ws.COUNTRY: "country.n.01",
    ws.SMARTPHONE: "smartphone.n.01",
    ws.BOOK: "book.n.01",
    ws.ALBUM: "album.n.01",
    ws.PRIZE: "award.n.01",
}


def integration_triples(
    wiki: Wiki,
    wordnet: MiniWordNet = WORDNET,
    use_plural_heuristic: bool = True,
    use_stoplist: bool = True,
) -> tuple[list[Triple], IntegrationReport]:
    """The category-over-WordNet taxonomy for an encyclopedia, as
    ``rdf:type`` / ``rdfs:subClassOf`` triples in canonical (s, p, o) key
    order, plus the coverage report."""
    triples: list[Triple] = []
    report = IntegrationReport()
    linked_synsets: set[str] = set()
    for page in wiki.pages.values():
        page_triples, synsets = page_type_triples(
            page, wordnet, use_plural_heuristic, use_stoplist, report
        )
        triples.extend(page_triples)
        linked_synsets.update(synsets)
    triples.extend(hypernym_triples(linked_synsets, wordnet))
    return canonical_triples(triples), report


def page_type_triples(
    page: WikiPage,
    wordnet: MiniWordNet = WORDNET,
    use_plural_heuristic: bool = True,
    use_stoplist: bool = True,
    report: Optional[IntegrationReport] = None,
) -> tuple[list[Triple], list[str]]:
    """One page's share of :func:`integration_triples`: the entity's type
    triple and the class's subclass triple for each conceptual category,
    in category order, plus the synset ids those categories anchor to.
    Each category decides alone, so a page's share depends on that page
    only.  Counts go into ``report`` when one is given."""
    report = report if report is not None else IntegrationReport()
    triples: list[Triple] = []
    synsets: list[str] = []
    report.pages += 1
    typed = False
    for category in page.categories:
        decision = classify_category(
            category.name,
            use_plural_heuristic=use_plural_heuristic,
            use_stoplist=use_stoplist,
        )
        if not decision.conceptual:
            report.rejected_categories += 1
            continue
        report.conceptual_categories += 1
        fine_class = category_class(category.name)
        triples.append(Triple(page.entity, ns.TYPE, fine_class))
        typed = True
        synset = wordnet.first_synset(decision.head_lemma)
        if synset is None:
            report.unanchored_heads[decision.head_lemma] += 1
            continue
        report.anchored_heads[decision.head_lemma] += 1
        triples.append(
            Triple(fine_class, ns.SUBCLASS_OF, wordnet_class(synset.id))
        )
        synsets.append(synset.id)
    if typed:
        report.typed_entities += 1
    return triples, synsets


def hypernym_triples(
    synset_ids: Iterable[str], wordnet: MiniWordNet = WORDNET
) -> list[Triple]:
    """The upper taxonomy: the hypernym chain of every linked synset, as
    subclass triples, synsets in sorted id order."""
    triples: list[Triple] = []
    for synset_id in sorted(set(synset_ids)):
        current = synset_id
        for hypernym in wordnet.hypernym_closure(synset_id):
            triples.append(
                Triple(wordnet_class(current), ns.SUBCLASS_OF, wordnet_class(hypernym.id))
            )
            current = hypernym.id
    return triples


def integrate(
    wiki: Wiki,
    wordnet: MiniWordNet = WORDNET,
    use_plural_heuristic: bool = True,
    use_stoplist: bool = True,
) -> tuple[TripleStore, IntegrationReport]:
    """A store of :func:`integration_triples`, plus the coverage report."""
    triples, report = integration_triples(
        wiki, wordnet, use_plural_heuristic, use_stoplist
    )
    return TripleStore(triples), report
