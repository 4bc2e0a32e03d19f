"""End-to-end knowledge-base construction."""

from .builder import BuildReport, KnowledgeBaseBuilder, emit_segments
from .incremental import IncrementalBuilder, IngestReport, attach_posts

__all__ = [
    "BuildReport",
    "IncrementalBuilder",
    "IngestReport",
    "KnowledgeBaseBuilder",
    "attach_posts",
    "emit_segments",
]
