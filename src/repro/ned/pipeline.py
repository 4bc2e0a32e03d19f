"""The NED pipeline: prior-only, local, and graph-coherence methods.

This is the comparison E9 runs — the canonical result shape of the NED
literature the tutorial surveys:

* ``prior`` — always the most popular candidate of the surface form;
* ``local`` — prior combined with keyphrase context similarity;
* ``graph`` — local scores plus joint coherence via the greedy
  dense-subgraph reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..kb import Entity
from ..corpus.document import Document
from ..corpus.wiki import Wiki
from ..obs import core as _obs
from .candidates import CandidateDictionary, dictionary_from_wiki
from .context import EntityContextIndex
from .coherence import CoherenceIndex

METHODS = ("prior", "local", "graph")


@dataclass(frozen=True, slots=True)
class NEDConfig:
    """Score combination weights."""

    prior_weight: float = 0.4
    similarity_weight: float = 0.6
    coherence_weight: float = 1.2
    max_candidates: int = 8


@dataclass(frozen=True, slots=True)
class MentionTask:
    """One mention to disambiguate within a document context."""

    mention_id: object
    surface: str


class NEDSystem:
    """A complete NED system derived from an encyclopedia."""

    def __init__(
        self,
        wiki: Wiki,
        aliases: Optional[dict[Entity, list[str]]] = None,
        config: Optional[NEDConfig] = None,
    ) -> None:
        self.config = config if config is not None else NEDConfig()
        self.dictionary: CandidateDictionary = dictionary_from_wiki(wiki, aliases)
        self.context_index = EntityContextIndex(wiki)
        self.coherence_index = CoherenceIndex(wiki)

    # ------------------------------------------------------------- scoring

    def _scored_candidates(
        self,
        surface: str,
        context_words: list[str],
        method: str,
        memo: Optional[dict[str, list[tuple[Entity, float]]]] = None,
    ) -> list[tuple[Entity, float]]:
        # ``memo`` batches scoring across one document's mentions: the
        # score depends only on (surface, method, context), and context is
        # fixed per document — repeated surfaces (a page mentions its
        # subject many times) score once instead of once per mention.
        if memo is not None and surface in memo:
            if _obs.ENABLED:
                _obs.count("ned.surface_cache_hits")
            return memo[surface]
        candidates = self.dictionary.candidates(surface)[: self.config.max_candidates]
        scored = []
        for candidate in candidates:
            score = self.config.prior_weight * candidate.prior
            if method != "prior":
                similarity = self.context_index.similarity(
                    candidate.entity, context_words
                )
                score += self.config.similarity_weight * similarity
            scored.append((candidate.entity, score))
        if _obs.ENABLED:
            _obs.count("ned.candidates_scored", len(scored))
        if memo is not None:
            memo[surface] = scored
        return scored

    # --------------------------------------------------------------- solve

    def disambiguate(
        self,
        tasks: list[MentionTask],
        context_text: str,
        method: str = "graph",
    ) -> dict[object, Optional[Entity]]:
        """Resolve each mention of one document; returns id -> entity."""
        if method not in METHODS:
            raise ValueError(f"unknown NED method: {method!r}")
        with _obs.span("ned.disambiguate"):
            if _obs.ENABLED:
                _obs.count("ned.mentions", len(tasks))
                _obs.count(f"ned.mentions.{method}", len(tasks))
            context_words = self.context_index.context_of(context_text)
            memo: dict[str, list[tuple[Entity, float]]] = {}

            if method in ("prior", "local"):
                result: dict[object, Optional[Entity]] = {}
                for task in tasks:
                    scored = self._scored_candidates(
                        task.surface, context_words, method, memo
                    )
                    result[task.mention_id] = (
                        max(scored, key=lambda pair: (pair[1], pair[0].id))[0]
                        if scored
                        else None
                    )
                return result

            from .graph import DisambiguationGraph

            graph = DisambiguationGraph(
                coherence_weight=self.config.coherence_weight
            )
            all_candidates: set[Entity] = set()
            for task in tasks:
                scored = self._scored_candidates(
                    task.surface, context_words, "local", memo
                )
                graph.add_mention(task.mention_id, task.surface, scored)
                all_candidates |= {entity for entity, __ in scored}
            ordered = sorted(all_candidates, key=lambda e: e.id)
            coherence_edges = 0
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    relatedness = self.coherence_index.relatedness(a, b)
                    if relatedness > 0.0:
                        graph.add_entity_edge(a, b, relatedness)
                        coherence_edges += 1
            if _obs.ENABLED:
                _obs.count("ned.coherence_edges", coherence_edges)
            return graph.solve()

    def disambiguate_document(
        self, document: Document, method: str = "graph"
    ) -> dict[object, Optional[Entity]]:
        """Disambiguate a gold-annotated document's mentions.

        Mention ids are (sentence index, mention start) pairs; evaluation
        compares against each gold mention's entity.
        """
        tasks = []
        for s_index, sentence in enumerate(document.sentences):
            for mention in sentence.mentions:
                tasks.append(MentionTask((s_index, mention.start), mention.surface))
        return self.disambiguate(tasks, document.text, method=method)


def evaluate_document(
    system: NEDSystem, document: Document, method: str
) -> tuple[int, int]:
    """(correct, total) over a document's gold mentions."""
    predictions = system.disambiguate_document(document, method=method)
    correct = 0
    total = 0
    for s_index, sentence in enumerate(document.sentences):
        for mention in sentence.mentions:
            total += 1
            if predictions.get((s_index, mention.start)) == mention.entity:
                correct += 1
    return correct, total
