"""The one-call NLP pipeline: tokenize, tag, lemmatize, chunk, parse, NER.

Only tokens, tags and NER mentions are computed by :func:`analyze`.  The
lemmas, NP and verb chunks and the dependency parse are computed on first
read and then kept, so a caller pays only for the signals it reads: the
KB build's surface-pattern extractor reads none of them, while open IE
reads the chunks and dependency-path extraction reads the parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .chunk import Chunk, noun_phrases, verb_groups
from .dependency import Parse, parse
from .gazetteer import Gazetteer
from .lemmatize import lemma
from .ner import MentionSpan, detect_mentions
from .pos import tag
from .sentences import split_sentences
from .tokenizer import Token, tokenize


@dataclass
class Analysis:
    """Everything the pipeline knows about one sentence.

    ``text``, ``tokens``, ``tags`` and ``mentions`` are eager;
    ``lemmas``, ``nps``, ``verb_groups`` and ``parse`` are computed from
    the tokens and tags on first read and then kept.
    """

    text: str
    tokens: list[Token]
    tags: list[str]
    mentions: list[MentionSpan] = field(default_factory=list)

    @cached_property
    def lemmas(self) -> list[str]:
        """One lemma per token."""
        return [lemma(t.text) for t in self.tokens]

    @cached_property
    def nps(self) -> list[Chunk]:
        """The noun-phrase chunks."""
        return noun_phrases(self.tokens, self.tags)

    @cached_property
    def verb_groups(self) -> list[Chunk]:
        """The verb-group chunks."""
        return verb_groups(self.tokens, self.tags)

    @cached_property
    def parse(self) -> Parse:
        """The dependency parse, over this analysis's own chunks."""
        return parse(self.tokens, self.tags, self.nps, self.verb_groups)

    def mention_at_char(self, char_start: int) -> Optional[MentionSpan]:
        """The detected mention starting at a character offset, if any."""
        for mention in self.mentions:
            if mention.char_start == char_start:
                return mention
        return None

    def token_index_at_char(self, offset: int) -> Optional[int]:
        """Index of the token covering a character offset."""
        for i, token in enumerate(self.tokens):
            if token.start <= offset < token.end:
                return i
        return None


def analyze(text: str, gazetteer: Optional[Gazetteer] = None) -> Analysis:
    """Tokenize, tag and detect mentions in one sentence."""
    tokens = tokenize(text)
    tags = tag(tokens)
    return Analysis(text, tokens, tags, detect_mentions(tokens, tags, gazetteer))


def analyze_document(text: str, gazetteer: Optional[Gazetteer] = None) -> list[Analysis]:
    """Split a document into sentences and analyze each."""
    return [
        analyze(text[a:b], gazetteer) for a, b in split_sentences(text)
    ]
