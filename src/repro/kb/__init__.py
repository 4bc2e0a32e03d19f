"""The knowledge-base substrate: RDF-style terms, triples, store, queries.

This subpackage is the SPO data model the tutorial's section 2 opens with:
everything the harvesting, reasoning, and analytics layers produce or consume
is a :class:`~repro.kb.triple.Triple` living in a
:class:`~repro.kb.store.TripleStore`.
"""

from . import ns
from .terms import (
    Entity,
    Literal,
    Relation,
    Term,
    Resource,
    string_literal,
    integer_literal,
    year_literal,
    decimal_literal,
)
from .triple import ALWAYS, TimeSpan, Triple
from .store import ReadableStore, TripleStore, canonical_triples
from .segments import (
    SegmentSnapshot,
    SegmentStore,
    diff_segment_dirs,
    open_snapshot,
    write_segments,
)
from .query import Pattern, Query, Var, ask, slot_to_text
from .schema import Taxonomy, schema_triples
from .sameas import UnionFind, canonicalize, sameas_closure
from .rdfio import load, save, triple_from_line, triple_to_line
from .graphutil import degree_statistics, relation_path, to_networkx

__all__ = [
    "ns",
    "Entity",
    "Literal",
    "Relation",
    "Term",
    "Resource",
    "string_literal",
    "integer_literal",
    "year_literal",
    "decimal_literal",
    "ALWAYS",
    "TimeSpan",
    "Triple",
    "ReadableStore",
    "TripleStore",
    "canonical_triples",
    "SegmentSnapshot",
    "SegmentStore",
    "diff_segment_dirs",
    "open_snapshot",
    "write_segments",
    "Pattern",
    "Query",
    "Var",
    "ask",
    "slot_to_text",
    "Taxonomy",
    "schema_triples",
    "UnionFind",
    "canonicalize",
    "sameas_closure",
    "load",
    "save",
    "triple_from_line",
    "triple_to_line",
    "degree_statistics",
    "relation_path",
    "to_networkx",
]
