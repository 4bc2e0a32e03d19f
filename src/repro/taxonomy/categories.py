"""WikiTaxonomy-style classification of Wikipedia categories.

The category system mixes three kinds of label:

* *conceptual* categories whose members are instances of the head class
  ("Arvandian scientists" — every member is a scientist),
* *administrative* categories ("1955 births", "Articles needing cleanup"),
* *topical* categories ("History of Arvandia" — members are *about* the
  topic, not instances of a history).

The classic heuristics (Ponzetto & Strube 2007; used in YAGO): a category
is conceptual iff its head noun is **plural**, minus a stoplist of
administrative plural heads (births, deaths, stubs, articles).  Both
heuristics can be toggled for the E1 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .headparser import ParsedLabel, parse_label

#: Plural heads that are administrative, not conceptual (the YAGO stoplist).
ADMINISTRATIVE_HEADS = frozenset(
    {"births", "deaths", "establishments", "disestablishments", "articles",
     "stubs", "pages", "redirects", "templates", "lists"}
)


@dataclass(frozen=True, slots=True)
class CategoryDecision:
    """The classifier's verdict on one category label."""

    label: str
    conceptual: bool
    head_lemma: str
    parsed: ParsedLabel
    reason: str


def classify_category(
    label: str,
    use_plural_heuristic: bool = True,
    use_stoplist: bool = True,
) -> CategoryDecision:
    """Decide whether a category is conceptual (class-defining).

    With ``use_plural_heuristic`` off, every category is taken as
    conceptual (the naive baseline E1 compares against).  With
    ``use_stoplist`` off, administrative plural heads leak through.
    Decisions are immutable and memoized (a fixed-size LRU), so a label
    classified once — by taxonomy integration, say — costs a lookup the
    next time.
    """
    return _classify(label, use_plural_heuristic, use_stoplist)


@lru_cache(maxsize=4096)
def _classify(
    label: str, use_plural_heuristic: bool, use_stoplist: bool
) -> CategoryDecision:
    """:func:`classify_category` with positional arguments only, so every
    call form shares one cache entry."""
    parsed = parse_label(label)
    if not use_plural_heuristic:
        return CategoryDecision(label, True, parsed.head_lemma, parsed, "baseline:all")
    if not parsed.head_is_plural:
        return CategoryDecision(
            label, False, parsed.head_lemma, parsed, "singular head -> topical"
        )
    if use_stoplist and parsed.head.lower() in ADMINISTRATIVE_HEADS:
        return CategoryDecision(
            label, False, parsed.head_lemma, parsed, "administrative head"
        )
    return CategoryDecision(label, True, parsed.head_lemma, parsed, "plural head")


def class_label_of(decision: CategoryDecision) -> Optional[str]:
    """The singular class noun a conceptual category defines, else None."""
    return decision.head_lemma if decision.conceptual else None
