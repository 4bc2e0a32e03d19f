"""Harvesting facts at Web scale (tutorial section 3)."""

from .base import Candidate, candidates_to_store, merge_candidates
from .resolution import NameEntry, NameResolver, resolver_from_aliases
from .occurrences import Occurrence, corpus_occurrences, sentence_occurrences
from .patterns import SEED_PATTERNS, PatternExtractor, SurfacePattern
from .snowball import LearnedPattern, SnowballExtractor, SnowballReport
from .dependency_paths import DependencyPathExtractor, PathRule
from .distant import (
    NONE_LABEL,
    DistantSupervisionExtractor,
    TrainingSummary,
    occurrence_features,
)
from .deepdive import DeepDivePipeline, InferenceStats, default_rules
from .consistency import ConsistencyReasoner, ConsistencyReport
from .openie import OpenTriple, ReVerbExtractor, cluster_relation_phrases
from .temporal import (
    SCOPED_RELATIONS,
    TemporalTag,
    attach_scopes,
    extract_year_attributes,
    infer_scope_bounds,
    lifespan_violations,
    scope_candidate,
    sentence_scope,
    tag_temporal,
)
from .multilingual import (
    Alignment,
    align_by_links,
    align_by_strings,
    align_combined,
    harvest_labels,
    merge_alignments_into_labels,
)
from .commonsense import (
    GOLD_PARTS,
    GOLD_PROPERTIES,
    GOLD_SHAPES,
    HAS_PROPERTY,
    HAS_SHAPE,
    PART_OF,
    AcquisitionReport,
    acquire,
    concept,
    generate_sentences,
    gold_store,
)
from .infobox import ATTRIBUTE_MAPPING, InfoboxExtractor, InfoboxReport
from .fusion import FusedFact, KnowledgeFusion
from .nell import IterationRecord, NeverEndingLearner, cumulative_precision

__all__ = [
    "Candidate",
    "candidates_to_store",
    "merge_candidates",
    "NameEntry",
    "NameResolver",
    "resolver_from_aliases",
    "Occurrence",
    "corpus_occurrences",
    "sentence_occurrences",
    "SEED_PATTERNS",
    "PatternExtractor",
    "SurfacePattern",
    "LearnedPattern",
    "SnowballExtractor",
    "SnowballReport",
    "DependencyPathExtractor",
    "PathRule",
    "NONE_LABEL",
    "DistantSupervisionExtractor",
    "TrainingSummary",
    "occurrence_features",
    "DeepDivePipeline",
    "InferenceStats",
    "default_rules",
    "ConsistencyReasoner",
    "ConsistencyReport",
    "OpenTriple",
    "ReVerbExtractor",
    "cluster_relation_phrases",
    "SCOPED_RELATIONS",
    "TemporalTag",
    "attach_scopes",
    "extract_year_attributes",
    "infer_scope_bounds",
    "lifespan_violations",
    "scope_candidate",
    "sentence_scope",
    "tag_temporal",
    "Alignment",
    "align_by_links",
    "align_by_strings",
    "align_combined",
    "harvest_labels",
    "merge_alignments_into_labels",
    "GOLD_PARTS",
    "GOLD_PROPERTIES",
    "GOLD_SHAPES",
    "HAS_PROPERTY",
    "HAS_SHAPE",
    "PART_OF",
    "AcquisitionReport",
    "acquire",
    "concept",
    "generate_sentences",
    "gold_store",
    "ATTRIBUTE_MAPPING",
    "InfoboxExtractor",
    "InfoboxReport",
    "FusedFact",
    "KnowledgeFusion",
    "IterationRecord",
    "NeverEndingLearner",
    "cumulative_precision",
]
