"""Entity-pair occurrences: the shared input of all sentence extractors.

An *occurrence* is one ordered-by-text pair of resolved entity mentions in
one sentence, together with every signal the extractor families key on:
the token sequence between the mentions (surface patterns, Snowball), the
lexicalized dependency paths in both directions (dependency-path
extraction; computed on first read, so an extractor that keys on the
middle tokens alone never parses), and the words just outside the pair
(distant-supervision features).  Extractors that posit the *second*
mention as the subject ("Y was founded by X") say so with a direction
flag; the occurrence itself always keeps textual order.

Computing the occurrences once and feeding every extractor from the same
list keeps the E3 comparison honest — all methods see exactly the same
sentences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from ..kb import Entity
from ..nlp.gazetteer import Gazetteer
from ..nlp.pipeline import Analysis, analyze
from .resolution import NameResolver


@dataclass(frozen=True)
class Occurrence:
    """One textual-order resolved mention pair in one sentence.

    The dependency paths are computed from the sentence's parse on first
    read and then kept; an extractor that never reads them never parses
    the sentence.  Equality is keyed on the mention head token indexes,
    of which (with the sentence) the paths are a function.
    """

    first: Entity
    second: Entity
    middle: tuple[str, ...]            # lowercased tokens between the mentions
    left: str                          # word before the first mention
    right: str                         # word after the second mention
    sentence: str
    first_text: str
    second_text: str
    first_head: int                    # token index of the first mention's head
    second_head: int                   # token index of the second mention's head
    analysis: Analysis = field(compare=False, repr=False)

    @cached_property
    def path_forward(self) -> Optional[str]:
        """The dependency path first -> second."""
        return self.analysis.parse.path(self.first_head, self.second_head)

    @cached_property
    def path_backward(self) -> Optional[str]:
        """The dependency path second -> first."""
        return self.analysis.parse.path(self.second_head, self.first_head)

    def pair(self, inverse: bool = False) -> tuple[Entity, Entity]:
        """(subject, object) under a direction: forward unless ``inverse``."""
        return (self.second, self.first) if inverse else (self.first, self.second)

    def path(self, inverse: bool = False) -> Optional[str]:
        """The subject-to-object dependency path under a direction."""
        return self.path_backward if inverse else self.path_forward

    def middle_text(self) -> str:
        """The middle tokens joined for display."""
        return " ".join(self.middle)


def sentence_occurrences(
    analysis: Analysis,
    resolver: NameResolver,
    max_gap: int = 8,
) -> Iterator[Occurrence]:
    """All textual-order resolved mention pairs of one analyzed sentence."""
    resolved = []
    for mention in analysis.mentions:
        entity = resolver.resolve(mention.text)
        if entity is not None:
            resolved.append((mention, entity))
    for i, (m1, e1) in enumerate(resolved):
        for m2, e2 in resolved[i + 1:]:
            if e1 == e2:
                continue
            gap = m2.token_start - m1.token_end
            if gap < 0 or gap > max_gap:
                continue
            middle = tuple(
                t.text.lower()
                for t in analysis.tokens[m1.token_end:m2.token_start]
            )
            left = (
                analysis.tokens[m1.token_start - 1].text.lower()
                if m1.token_start > 0
                else ""
            )
            right = (
                analysis.tokens[m2.token_end].text.lower()
                if m2.token_end < len(analysis.tokens)
                else ""
            )
            yield Occurrence(
                first=e1,
                second=e2,
                middle=middle,
                left=left,
                right=right,
                sentence=analysis.text,
                first_text=m1.text,
                second_text=m2.text,
                first_head=m1.token_end - 1,
                second_head=m2.token_end - 1,
                analysis=analysis,
            )


def corpus_occurrences(
    sentences: Iterable[str],
    resolver: NameResolver,
    gazetteer: Optional[Gazetteer] = None,
    max_gap: int = 8,
) -> list[Occurrence]:
    """Analyze raw sentences and collect every occurrence."""
    if gazetteer is None:
        gazetteer = resolver.to_gazetteer()
    occurrences: list[Occurrence] = []
    for sentence in sentences:
        analysis = analyze(sentence, gazetteer)
        occurrences.extend(sentence_occurrences(analysis, resolver, max_gap))
    return occurrences
