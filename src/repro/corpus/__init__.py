"""Corpus substrates: annotated documents, synthetic Wikipedia, social stream."""

from .document import Document, GoldFact, GoldMention, Sentence, corpus_gold_facts
from .synthesis import (
    CorpusConfig,
    class_sentences,
    corrupt_fact,
    distractor_sentence,
    render_fact_sentence,
    surface_form,
    synthesize,
)
from .templates import (
    CLASS_NOUNS,
    DISTRACTOR_PATTERNS,
    HEARST_PATTERNS,
    TEMPLATES,
    FactTemplate,
    templates_for,
)
from .wiki import Category, Wiki, WikiConfig, WikiPage, build_wiki
from .social import Post, SocialConfig, SocialStream, generate_stream
from .querylog import (
    GOLD_ATTRIBUTES,
    QueryLog,
    QueryLogConfig,
    QueryRecord,
    generate_query_log,
)

__all__ = [
    "Document",
    "GoldFact",
    "GoldMention",
    "Sentence",
    "corpus_gold_facts",
    "CorpusConfig",
    "class_sentences",
    "corrupt_fact",
    "distractor_sentence",
    "render_fact_sentence",
    "surface_form",
    "synthesize",
    "CLASS_NOUNS",
    "DISTRACTOR_PATTERNS",
    "HEARST_PATTERNS",
    "TEMPLATES",
    "FactTemplate",
    "templates_for",
    "Category",
    "Wiki",
    "WikiConfig",
    "WikiPage",
    "build_wiki",
    "Post",
    "SocialConfig",
    "SocialStream",
    "generate_stream",
    "GOLD_ATTRIBUTES",
    "QueryLog",
    "QueryLogConfig",
    "QueryRecord",
    "generate_query_log",
]
