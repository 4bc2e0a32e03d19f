"""The document model: sentences with gold mention and fact annotations.

Every synthetic document carries its own ground truth — which character
spans mention which entity, and which facts (true or deliberately false)
each sentence expresses.  Extractors never see the gold annotations; the
evaluation harnesses do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..kb import Entity, Relation, Term


@dataclass(frozen=True, slots=True)
class GoldMention:
    """A character span of a sentence that denotes an entity."""

    start: int
    end: int
    entity: Entity
    surface: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad mention span [{self.start}, {self.end})")


@dataclass(frozen=True, slots=True)
class GoldFact:
    """A fact a sentence expresses; ``truthful`` is False for injected noise."""

    subject: Entity
    relation: Relation
    object: Term
    truthful: bool = True

    def spo(self) -> tuple[Entity, Relation, Term]:
        """The (s, p, o) key of the expressed fact."""
        return (self.subject, self.relation, self.object)


@dataclass(slots=True)
class Sentence:
    """One sentence with its gold annotations."""

    text: str
    mentions: list[GoldMention] = field(default_factory=list)
    facts: list[GoldFact] = field(default_factory=list)

    def entities(self) -> set[Entity]:
        """The entities mentioned in this sentence."""
        return {m.entity for m in self.mentions}


@dataclass(slots=True)
class Document:
    """A sequence of sentences, optionally entity-centric and timestamped."""

    doc_id: str
    sentences: list[Sentence] = field(default_factory=list)
    topic: Optional[Entity] = None
    year: Optional[int] = None

    @property
    def text(self) -> str:
        """The full document text (sentences joined with spaces)."""
        return " ".join(s.text for s in self.sentences)

    def all_facts(self) -> Iterator[GoldFact]:
        """Every expressed fact in order (may repeat across sentences)."""
        for sentence in self.sentences:
            yield from sentence.facts

    def entities(self) -> set[Entity]:
        """The set of entities mentioned anywhere in the document."""
        found: set[Entity] = set()
        for sentence in self.sentences:
            found |= sentence.entities()
        return found


def corpus_gold_facts(documents: list[Document], truthful_only: bool = True) -> set:
    """The (s, p, o) keys of all facts expressed in a corpus."""
    keys = set()
    for document in documents:
        for fact in document.all_facts():
            if fact.truthful or not truthful_only:
                keys.add(fact.spo())
    return keys
