"""Serialization of triple stores: an N-Triples-like line format.

The line format is a pragmatic subset of N-Triples extended with the
attributes our triples carry (confidence, source, temporal scope), kept
line-oriented so stores can be streamed and diffed.  A line looks like::

    <world:Steve_Jobs> <world:foundedCompany> <world:Apple> . # conf=0.93 src=doc_17 scope=[1976,1976]

Literals are quoted with backslash escaping; language tags and datatypes use
the usual ``@lang`` / ``^^type`` suffixes.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, TextIO

from .terms import Entity, Literal, Relation, Term
from .triple import TimeSpan, Triple
from .store import TripleStore

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}

_LITERAL_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"(?:@([a-zA-Z-]+)|\^\^(\w+))?$')
_SCOPE_RE = re.compile(r"^\[(-?\d*),(-?\d*)\]$")
# Annotations are emitted in conf / src / scope order; conf and scope values
# never contain spaces, so a source *may* (it is the document title) and
# still parse unambiguously as the lazy middle capture.
_ANNOTATION_RE = re.compile(
    r"^(?:conf=(?P<conf>\S+))?\s*"
    r"(?:src=(?P<src>.*?))?\s*"
    r"(?:scope=(?P<scope>\[[^\]]*\]))?$"
)


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def _unescape(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        two = value[i:i + 2]
        if two in _UNESCAPES:
            out.append(_UNESCAPES[two])
            i += 2
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


def term_to_text(term: Term) -> str:
    """Render a term in the line format.

    Relations use ``<<id>>`` so a relation in subject or object position
    (schema triples) round-trips with its type intact.
    """
    if isinstance(term, Relation):
        return f"<<{term.id}>>"
    if isinstance(term, Entity):
        return f"<{term.id}>"
    if isinstance(term, Literal):
        body = f'"{_escape(term.value)}"'
        if term.lang:
            return f"{body}@{term.lang}"
        if term.datatype != "string":
            return f"{body}^^{term.datatype}"
        return body
    raise TypeError(f"not a term: {term!r}")


def term_from_text(text: str, relation_position: bool = False) -> Term:
    """Parse a term; ``relation_position`` chooses Relation over Entity."""
    text = text.strip()
    if text.startswith("<<") and text.endswith(">>"):
        return Relation(text[2:-2])
    if text.startswith("<") and text.endswith(">"):
        identifier = text[1:-1]
        return Relation(identifier) if relation_position else Entity(identifier)
    match = _LITERAL_RE.match(text)
    if match is None:
        raise ValueError(f"cannot parse term: {text!r}")
    value, lang, datatype = match.groups()
    return Literal(_unescape(value), datatype or "string", lang)


def annotations_to_text(triple: Triple) -> str:
    """The annotation suffix (confidence/source/scope) as canonical text.

    Empty string when every attribute is at its default — the same
    predicate the line format uses to decide whether to emit a ``# ...``
    comment, reused verbatim by the segment record format so both
    serializations stay in lock-step.
    """
    annotations = []
    if triple.confidence != 1.0:
        annotations.append(f"conf={triple.confidence:.6g}")
    if triple.source is not None:
        annotations.append(f"src={triple.source}")
    if triple.scope is not None:
        annotations.append(f"scope={triple.scope}")
    return " ".join(annotations)


def triple_from_parts(
    subject_text: str,
    predicate_text: str,
    object_text: str,
    annotation_text: str = "",
) -> Triple:
    """Build a triple from term texts plus an annotation suffix.

    The inverse of (``term_to_text`` × 3, :func:`annotations_to_text`);
    segment records store exactly these four strings.
    """
    subject = term_from_text(subject_text)
    predicate = term_from_text(predicate_text, relation_position=True)
    obj = term_from_text(object_text)
    if not isinstance(subject, (Entity, Relation)):
        raise ValueError(f"literal in subject position: {subject_text!r}")
    confidence, source, scope = 1.0, None, None
    matched = _ANNOTATION_RE.match(annotation_text.strip())
    if matched is not None:
        if matched.group("conf") is not None:
            confidence = float(matched.group("conf"))
        if matched.group("src") is not None:
            source = matched.group("src")
        if matched.group("scope") is not None:
            scope = _parse_scope(matched.group("scope"))
    else:
        # Tolerant fallback for hand-written annotations in any order —
        # sources cannot contain spaces down this path.
        for item in annotation_text.split():
            key, __, value = item.partition("=")
            if key == "conf":
                confidence = float(value)
            elif key == "src":
                source = value
            elif key == "scope":
                scope = _parse_scope(value)
    return Triple(subject, predicate, obj, confidence, source, scope)


def triple_to_line(triple: Triple) -> str:
    """Render one triple as a single line."""
    line = " ".join(
        [
            term_to_text(triple.subject),
            term_to_text(triple.predicate),
            term_to_text(triple.object),
            ".",
        ]
    )
    annotation_text = annotations_to_text(triple)
    if annotation_text:
        line += " # " + annotation_text
    return line


def triple_from_line(line: str) -> Optional[Triple]:
    """Parse one line; blank lines and pure comments return None."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if " . # " in line:
        body, annotation_text = line.rsplit(" . # ", 1)
        sep = True
    else:
        body, annotation_text, sep = line, "", False
    tokens = _split_terms(body)
    if len(tokens) < 3:
        raise ValueError(f"malformed triple line: {line!r}")
    return triple_from_parts(
        tokens[0], tokens[1], tokens[2], annotation_text if sep else ""
    )


def _parse_scope(text: str) -> TimeSpan:
    match = _SCOPE_RE.match(text)
    if match is None:
        raise ValueError(f"malformed scope: {text!r}")
    begin_text, end_text = match.groups()
    begin = int(begin_text) if begin_text else None
    end = int(end_text) if end_text else None
    return TimeSpan(begin, end)


def _split_terms(body: str) -> list[str]:
    """Split a triple body into term tokens, respecting quoted literals."""
    tokens, current, in_quote, escaped = [], [], False, False
    for ch in body:
        if in_quote:
            current.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
            continue
        if ch == '"':
            in_quote = True
            current.append(ch)
        elif ch.isspace():
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    if tokens and tokens[-1] == ".":
        tokens.pop()
    return tokens


def write_ntriples(store: Iterable[Triple], handle: TextIO) -> int:
    """Write every triple as one line; return the number written."""
    written = 0
    for triple in store:
        handle.write(triple_to_line(triple) + "\n")
        written += 1
    return written


def read_ntriples(handle: TextIO) -> Iterator[Triple]:
    """Yield triples from a line-format stream, skipping blanks/comments."""
    for line in handle:
        triple = triple_from_line(line)
        if triple is not None:
            yield triple


def save(store: TripleStore, path: str) -> int:
    """Save a store to a file; return the number of triples written."""
    with open(path, "w", encoding="utf-8") as handle:
        return write_ntriples(store, handle)


def load(path: str) -> TripleStore:
    """Load a store from a file produced by :func:`save`."""
    store = TripleStore()
    with open(path, "r", encoding="utf-8") as handle:
        store.add_all(read_ntriples(handle))
    return store

