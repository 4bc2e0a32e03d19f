"""A deterministic rule-based dependency parser.

The tutorial's fact-harvesting section lists dependency parsing as the
computational-linguistics member of the extraction-method spectrum.  This
parser produces a single-rooted arc set good enough for dependency-*path*
extraction over the corpus grammar: NP-internal arcs (det, amod, compound),
verb groups (aux), subjects (nsubj / nsubjpass with passive detection),
objects (dobj, or attr in copular clauses), prepositional attachment
(prep + pobj, noun-attached when the preposition directly follows a
post-verbal nominal), and NP coordination (cc, conj).

The payoff is :meth:`Parse.path`, the lexicalized shortest-path signature
between two tokens — the feature dependency-path extractors key on, which
keeps working when surface patterns break (passives, inversions).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import lexicon as lx
from .chunk import Chunk, noun_phrases, verb_groups
from .lemmatize import lemma
from .tokenizer import Token

ROOT = -1

_PASSIVE_AUX = frozenset({"was", "were", "is", "are", "been", "be", "being", "am"})


@dataclass
class Parse:
    """A dependency parse: one head index and label per token."""

    tokens: list[Token]
    tags: list[str]
    heads: list[int]
    labels: list[str]

    def children(self, index: int) -> list[int]:
        """Token indexes whose head is ``index``."""
        return [i for i, h in enumerate(self.heads) if h == index]

    def root(self) -> int:
        """The root token index (or -1 for an empty parse)."""
        for i, h in enumerate(self.heads):
            if h == ROOT:
                return i
        return ROOT

    def path(self, start: int, end: int, max_length: int = 6) -> str | None:
        """The lexicalized dependency path between two tokens.

        Rendered as alternating direction+label steps with the lemmas of
        intermediate nodes, e.g. ``^nsubj:found:vdobj`` for "X founded Y".
        Returns None when no path exists within ``max_length`` edges.
        """
        if start == end:
            return ""
        neighbors = self._neighbors
        queue = deque([(start, [])])
        seen = {start}
        while queue:
            node, steps = queue.popleft()
            if len(steps) >= max_length:
                continue
            for neighbor, label, direction in neighbors.get(node, ()):
                if neighbor in seen:
                    continue
                next_steps = steps + [(direction, label, neighbor)]
                if neighbor == end:
                    return self._render_path(next_steps)
                seen.add(neighbor)
                queue.append((neighbor, next_steps))
        return None

    @cached_property
    def _neighbors(self) -> dict[int, list[tuple[int, str, str]]]:
        """Token -> (neighbor, label, direction) over every arc, built once."""
        neighbors: dict[int, list[tuple[int, str, str]]] = {}
        for i, (h, label) in enumerate(zip(self.heads, self.labels)):
            if h == ROOT:
                continue
            neighbors.setdefault(i, []).append((h, label, "^"))   # up-arc
            neighbors.setdefault(h, []).append((i, label, "v"))   # down-arc
        return neighbors

    def _render_path(self, steps: list[tuple[str, str, int]]) -> str:
        parts = []
        for i, (direction, label, node) in enumerate(steps):
            parts.append(f"{direction}{label}")
            if i < len(steps) - 1:  # intermediate node: include its lemma
                parts.append(lemma(self.tokens[node].text))
        return ":".join(parts)


def parse(
    tokens: list[Token],
    tags: list[str],
    nps: Optional[list[Chunk]] = None,
    vgs: Optional[list[Chunk]] = None,
) -> Parse:
    """Parse one sentence (tokens + POS tags) into a dependency tree.

    ``nps`` and ``vgs`` are the sentence's noun-phrase and verb-group
    chunks when the caller already has them; they are chunked here when
    not given.
    """
    n = len(tokens)
    heads = [ROOT] * n
    labels = ["dep"] * n
    if n == 0:
        return Parse(tokens, tags, heads, labels)

    if nps is None:
        nps = noun_phrases(tokens, tags)
    if vgs is None:
        vgs = verb_groups(tokens, tags)

    np_heads = _attach_np_internals(tokens, tags, nps, heads, labels)
    verb_head, passive = _attach_verb_group(tokens, tags, vgs, heads, labels)
    main = verb_head if verb_head is not None else (np_heads[0] if np_heads else 0)
    heads[main] = ROOT
    labels[main] = "root"

    copular = verb_head is not None and tags[verb_head] == lx.AUX
    _attach_arguments(
        tokens, tags, nps, np_heads, heads, labels, main, verb_head, passive, copular
    )
    _attach_coordination(tokens, tags, np_heads, heads, labels)
    _attach_leftovers(heads, labels, main)
    return Parse(tokens, tags, heads, labels)


def _attach_np_internals(tokens, tags, nps, heads, labels) -> list[int]:
    """det/amod/compound arcs inside each NP; returns NP head indexes."""
    np_heads = []
    for np in nps:
        head = np.end - 1
        # The head is the last NOUN/PROPN; a trailing NUM modifies it
        # ("Nova 3" keeps 3 as nummod of Nova... unless the NP is all-numeric).
        last_nominal = None
        for j in range(np.start, np.end):
            if tags[j] in (lx.NOUN, lx.PROPN):
                last_nominal = j
        if last_nominal is not None:
            head = last_nominal
            for j in range(np.start, np.end):
                if j == head:
                    continue
                if tags[j] == lx.DET:
                    heads[j], labels[j] = head, "det"
                elif tags[j] == lx.ADJ:
                    heads[j], labels[j] = head, "amod"
                elif tags[j] == lx.NUM:
                    heads[j], labels[j] = head, "nummod"
                else:
                    heads[j], labels[j] = head, "compound"
        np_heads.append(head)
    return np_heads


def _attach_verb_group(tokens, tags, vgs, heads, labels):
    """aux arcs inside the first verb group; returns (head, passive?)."""
    if not vgs:
        return None, False
    group = vgs[0]
    content = None
    for j in range(group.start, group.end):
        if tags[j] == lx.VERB:
            content = j
    head = content if content is not None else group.end - 1
    passive = False
    for j in range(group.start, group.end):
        if j == head:
            continue
        label = "aux"
        if (
            content is not None
            and tags[j] == lx.AUX
            and tokens[j].text.lower() in _PASSIVE_AUX
            and _looks_past_participle(tokens[content].text)
        ):
            label = "auxpass"
            passive = True
        heads[j], labels[j] = head, label
    return head, passive


def _looks_past_participle(word: str) -> bool:
    lower = word.lower()
    return lower.endswith("ed") or lower.endswith("en") or lower in (
        "born", "written", "held", "made", "won", "given", "known", "broken",
    )


def _attach_arguments(
    tokens, tags, nps, np_heads, heads, labels, main, verb_head, passive, copular
) -> None:
    n = len(tokens)
    boundary = verb_head if verb_head is not None else n

    # Pre-verbal prepositional phrases: "The capital of X ...", "In 1955, ...".
    # Attach each ADP to the nominal before it (or the verb) and the NP after
    # it as its pobj, so those nominals stop competing for subject-hood.
    for i in range(boundary):
        if tags[i] != lx.ADP:
            continue
        np = _np_starting_at(nps, i + 1)
        if np is None:
            continue
        pobj_head = _np_head(nps, np_heads, np)
        left_nominal = max(
            (h for h in np_heads if h < i and heads[h] == ROOT), default=None
        )
        heads[i] = left_nominal if left_nominal is not None else main
        labels[i] = "prep"
        if heads[pobj_head] == ROOT and pobj_head != main:
            heads[pobj_head], labels[pobj_head] = i, "pobj"

    # Subject: the unattached NP head nearest before the verb.
    subject = None
    for h in np_heads:
        if h < boundary and heads[h] == ROOT and h != main:
            subject = h
    if subject is not None:
        heads[subject] = main
        labels[subject] = "nsubjpass" if passive else "nsubj"

    # Walk the post-verbal zone: prepositions and NPs.
    object_assigned = False
    last_site = main  # where the next preposition attaches
    pending_prep = None
    i = (verb_head + 1) if verb_head is not None else 0
    while i < n:
        if tags[i] == lx.ADP:
            heads[i] = last_site
            labels[i] = "prep"
            pending_prep = i
            i += 1
            continue
        np = _np_starting_at(nps, i)
        if np is not None:
            head = _np_head(nps, np_heads, np)
            if heads[head] == ROOT and head != main:
                if pending_prep is not None:
                    heads[head], labels[head] = pending_prep, "pobj"
                    pending_prep = None
                elif not object_assigned:
                    heads[head] = main
                    labels[head] = "attr" if copular else "dobj"
                    object_assigned = True
                else:
                    heads[head], labels[head] = main, "nmod"
            # A nominal directly before a preposition becomes the
            # attachment site ("the founder of Y", "a city in X").
            last_site = head
            i = np.end
            continue
        i += 1


def _np_starting_at(nps, index):
    for np in nps:
        if np.start == index:
            return np
    return None


def _np_head(nps, np_heads, np):
    return np_heads[nps.index(np)]


def _attach_coordination(tokens, tags, np_heads, heads, labels) -> None:
    """"X and Y" — conj arc from Y to X, cc arc for the conjunction."""
    for i, tag in enumerate(tags):
        if tag != lx.CCONJ:
            continue
        left = max((h for h in np_heads if h < i), default=None)
        right = min((h for h in np_heads if h > i), default=None)
        if left is None or right is None:
            continue
        if labels[right] == "dep" or heads[right] == ROOT:
            heads[right], labels[right] = left, "conj"
        elif heads[left] == ROOT:
            # The right conjunct claimed the argument slot ("X and Y married"):
            # hang the left one off it so both reach the verb via conj.
            heads[left], labels[left] = right, "conj"
        heads[i], labels[i] = left, "cc"


def _attach_leftovers(heads, labels, main) -> None:
    for i, h in enumerate(heads):
        if h == ROOT and i != main:
            heads[i] = main
