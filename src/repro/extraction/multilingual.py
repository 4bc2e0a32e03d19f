"""Multilingual knowledge: label harvesting and cross-lingual alignment.

Entity names in different languages (tutorial section 3) come from two
sources: *interlanguage links* between language editions (high precision,
incomplete) and *transliteration similarity* between titles (noisy, full
coverage).  E8 measures the three strategies — links only, strings only,
combined — on the synthetic encyclopedia, whose interlanguage links have a
controlled dropout rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kb import Triple, TripleStore, canonical_triples, ns, string_literal
from ..corpus.wiki import Wiki
from ..linkage.strsim import edit_similarity, strip_language_suffix


def label_triples(wiki: Wiki) -> list[Triple]:
    """rdfs:label triples (all languages) from pages and their links, in
    canonical (s, p, o) key order."""
    labels = []
    for page in wiki.pages.values():
        labels.append(
            Triple(page.entity, ns.LABEL, string_literal(page.title, "en"),
                   confidence=1.0, source=page.title)
        )
        for lang, title in page.interlanguage.items():
            labels.append(
                Triple(page.entity, ns.LABEL, string_literal(title, lang),
                       confidence=0.95, source=page.title)
            )
    return canonical_triples(labels)


def harvest_labels(wiki: Wiki) -> TripleStore:
    """A store of :func:`label_triples`."""
    return TripleStore(label_triples(wiki))


@dataclass(frozen=True, slots=True)
class Alignment:
    """One proposed cross-lingual title match."""

    english: str
    foreign: str
    method: str       # "link" | "string"
    score: float


def align_by_links(wiki: Wiki, lang: str) -> list[Alignment]:
    """Alignments read directly off the interlanguage links."""
    alignments = []
    for page in wiki.pages.values():
        foreign = page.interlanguage.get(lang)
        if foreign is not None:
            alignments.append(Alignment(page.title, foreign, "link", 1.0))
    return alignments


def align_by_strings(
    english_titles: list[str],
    foreign_titles: list[str],
    min_similarity: float = 0.55,
) -> list[Alignment]:
    """Greedy one-to-one alignment by transliteration similarity.

    Similarity is edit similarity after stripping the language-typical
    suffix; each title is used at most once, best pairs first.
    """
    scored = []
    for english in english_titles:
        for foreign in foreign_titles:
            score = edit_similarity(
                english.lower(), strip_language_suffix(foreign.lower())
            )
            if score >= min_similarity:
                scored.append((score, english, foreign))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    used_english: set[str] = set()
    used_foreign: set[str] = set()
    alignments = []
    for score, english, foreign in scored:
        if english in used_english or foreign in used_foreign:
            continue
        used_english.add(english)
        used_foreign.add(foreign)
        alignments.append(Alignment(english, foreign, "string", score))
    return alignments


def align_combined(
    wiki: Wiki,
    lang: str,
    foreign_titles: list[str],
    min_similarity: float = 0.55,
) -> list[Alignment]:
    """Links where available; string alignment for the uncovered remainder."""
    link_alignments = align_by_links(wiki, lang)
    covered_english = {a.english for a in link_alignments}
    covered_foreign = {a.foreign for a in link_alignments}
    remaining_english = [t for t in wiki.pages if t not in covered_english]
    remaining_foreign = [t for t in foreign_titles if t not in covered_foreign]
    return link_alignments + align_by_strings(
        remaining_english, remaining_foreign, min_similarity
    )


def merge_alignments_into_labels(
    wiki: Wiki, alignments: list[Alignment], lang: str
) -> TripleStore:
    """Turn title alignments into label triples for the KB."""
    store = TripleStore()
    for alignment in alignments:
        page = wiki.pages.get(alignment.english)
        if page is None:
            continue
        store.add(
            Triple(
                page.entity,
                ns.LABEL,
                string_literal(alignment.foreign, lang),
                confidence=alignment.score,
                source=alignment.method,
            )
        )
    return store
