"""Class taxonomy and schema reasoning over a triple store.

Every entity in a KB belongs to one or multiple classes, and those classes
are organized into a taxonomy where more special classes are subsumed by more
general ones (tutorial section 2).  :class:`Taxonomy` materializes that view
from ``rdf:type`` / ``rdfs:subClassOf`` triples and answers subsumption,
instance, and disjointness questions; it also exposes relation signatures
(domain, range, functionality) to the consistency reasoner of section 3.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import chain
from typing import Iterable, Optional

from . import ns
from .terms import Entity, Relation
from .store import TripleStore
from .triple import Triple


#: The predicates a :class:`Taxonomy` reads; every other triple is ignored.
_TAXONOMY_PREDICATES = (
    ns.SUBCLASS_OF,
    ns.TYPE,
    ns.DOMAIN,
    ns.RANGE,
    ns.FUNCTIONAL,
    ns.DISJOINT_WITH,
    ns.DISJOINT_CLASS_WITH,
)


class Taxonomy:
    """A class hierarchy plus relation signatures, derived from triples.

    The taxonomy is a frozen snapshot: it is loaded once, from a store or
    from any iterable of triples, and never changes afterwards.  That is
    what lets every closure it computes — superclasses, subclasses, an
    entity's transitive types — be memoized per class or entity on first
    use.  Public methods hand out fresh sets, so a caller mutating an
    answer can never change the next one.  Cycles in ``subClassOf`` are
    tolerated (each class simply ends up subsuming the others in its
    cycle).
    """

    def __init__(self, source: "TripleStore | Iterable[Triple]") -> None:
        self._parents: dict[Entity, set[Entity]] = defaultdict(set)
        self._children: dict[Entity, set[Entity]] = defaultdict(set)
        self._instances: dict[Entity, set[Entity]] = defaultdict(set)
        self._types: dict[Entity, set[Entity]] = defaultdict(set)
        self._domain: dict[Relation, Entity] = {}
        self._range: dict[Relation, Entity] = {}
        self._functional: set[Relation] = set()
        self._disjoint_relations: set[frozenset[Relation]] = set()
        self._disjoint_classes: set[frozenset[Entity]] = set()
        # Memoized closures (see the class docstring): class -> proper
        # superclasses / subclasses, entity -> transitive types, and
        # class -> the classes it excludes (see ``_excluded_by``).
        self._up: dict[Entity, frozenset[Entity]] = {}
        self._down: dict[Entity, frozenset[Entity]] = {}
        self._type_closure: dict[Entity, frozenset[Entity]] = {}
        self._excluded: dict[Entity, frozenset[Entity]] = {}
        if hasattr(source, "match"):
            store = source
            source = chain.from_iterable(
                store.match(None, predicate, None)
                for predicate in _TAXONOMY_PREDICATES
            )
        self._load(source)

    def _load(self, triples: Iterable[Triple]) -> None:
        for t in triples:
            predicate, subject, obj = t.predicate, t.subject, t.object
            if predicate == ns.SUBCLASS_OF:
                if isinstance(subject, Entity) and isinstance(obj, Entity):
                    self._parents[subject].add(obj)
                    self._children[obj].add(subject)
            elif predicate == ns.TYPE:
                if isinstance(subject, Entity) and isinstance(obj, Entity):
                    self._instances[obj].add(subject)
                    self._types[subject].add(obj)
            elif predicate == ns.DOMAIN:
                if isinstance(subject, Relation) and isinstance(obj, Entity):
                    self._domain[subject] = obj
            elif predicate == ns.RANGE:
                if isinstance(subject, Relation) and isinstance(obj, Entity):
                    self._range[subject] = obj
            elif predicate == ns.FUNCTIONAL:
                if isinstance(subject, Relation):
                    self._functional.add(subject)
            elif predicate == ns.DISJOINT_WITH:
                if isinstance(subject, Relation) and isinstance(obj, Relation):
                    self._disjoint_relations.add(frozenset((subject, obj)))
            elif predicate == ns.DISJOINT_CLASS_WITH:
                if isinstance(subject, Entity) and isinstance(obj, Entity):
                    self._disjoint_classes.add(frozenset((subject, obj)))

    # -------------------------------------------------------------- hierarchy

    def classes(self) -> set[Entity]:
        """Every class mentioned in the hierarchy or as a type."""
        found = set(self._parents) | set(self._children) | set(self._instances)
        for parents in self._parents.values():
            found |= parents
        return found

    def superclasses(self, cls: Entity, include_self: bool = False) -> set[Entity]:
        """The transitive superclasses of ``cls`` (BFS over subClassOf)."""
        found = set(self._ancestors(cls))
        if include_self:
            found.add(cls)
        return found

    def subclasses(self, cls: Entity, include_self: bool = False) -> set[Entity]:
        """The transitive subclasses of ``cls``."""
        found = set(self._descendants(cls))
        if include_self:
            found.add(cls)
        return found

    def _ancestors(self, cls: Entity) -> frozenset[Entity]:
        """The memoized proper superclasses of ``cls`` (shared: never hand
        it out)."""
        return self._closure(cls, self._parents, self._up)

    def _descendants(self, cls: Entity) -> frozenset[Entity]:
        """The memoized proper subclasses of ``cls`` (shared)."""
        return self._closure(cls, self._children, self._down)

    @staticmethod
    def _closure(
        start: Entity,
        edges: dict[Entity, set[Entity]],
        memo: dict[Entity, frozenset[Entity]],
    ) -> frozenset[Entity]:
        """Every node reachable from ``start`` (BFS), ``start`` excluded
        even when a cycle leads back to it; computed once per ``memo``."""
        closure = memo.get(start)
        if closure is not None:
            return closure
        seen: set[Entity] = set()
        queue = deque(edges.get(start, ()))
        visited = {start}
        while queue:
            node = queue.popleft()
            if node in visited:
                continue
            visited.add(node)
            seen.add(node)
            queue.extend(edges.get(node, ()))
        closure = memo[start] = frozenset(seen)
        return closure

    def is_subclass_of(self, sub: Entity, sup: Entity) -> bool:
        """True if ``sub`` is ``sup`` or a transitive subclass of it."""
        return sub == sup or sup == ns.THING or sup in self._ancestors(sub)

    # -------------------------------------------------------------- instances

    def types_of(self, entity: Entity, transitive: bool = True) -> set[Entity]:
        """The classes an entity belongs to (transitive closure by default)."""
        if not transitive:
            return set(self._types.get(entity, ()))
        return set(self._all_types(entity))

    def _all_types(self, entity: Entity) -> frozenset[Entity]:
        """The memoized transitive types of ``entity`` (shared)."""
        closure = self._type_closure.get(entity)
        if closure is None:
            direct = self._types.get(entity, ())
            full = set(direct)
            for cls in direct:  # det: allow-unordered -- set union commutes
                full |= self._ancestors(cls)
            closure = self._type_closure[entity] = frozenset(full)
        return closure

    def instances_of(self, cls: Entity, transitive: bool = True) -> set[Entity]:
        """The entities of a class (including subclass instances by default)."""
        found = set(self._instances.get(cls, ()))
        if transitive:
            for sub in self._descendants(cls):  # det: allow-unordered -- set union commutes
                found |= self._instances.get(sub, set())
        return found

    def is_instance_of(self, entity: Entity, cls: Entity) -> bool:
        """True if the entity is a (transitive) instance of the class."""
        if cls == ns.THING:
            return True
        return cls in self._all_types(entity)

    def admits(self, entity: Entity, cls: Entity) -> bool:
        """Open-world type check: may ``entity`` stand where ``cls`` is
        expected?

        Only *known conflicting* types violate: an untyped entity and an
        instance of ``cls`` pass, and so does an entity none of whose
        types is :meth:`disjoint <are_disjoint_classes>` with ``cls``.
        An entity's types include their superclasses, so that is one
        intersection with the classes ``cls`` excludes.
        """
        types = self._all_types(entity)
        if not types or cls == ns.THING or cls in types:
            return True
        return self._excluded_by(cls).isdisjoint(types)

    # ---------------------------------------------------------------- schema

    def domain_of(self, relation: Relation) -> Optional[Entity]:
        """The declared domain class of a relation, if any."""
        return self._domain.get(relation)

    def range_of(self, relation: Relation) -> Optional[Entity]:
        """The declared range class of a relation, if any."""
        return self._range.get(relation)

    def is_functional(self, relation: Relation) -> bool:
        """True if the relation admits at most one object per subject."""
        return relation in self._functional

    def are_disjoint_relations(self, r1: Relation, r2: Relation) -> bool:
        """True if the two relations were declared mutually exclusive."""
        return frozenset((r1, r2)) in self._disjoint_relations

    def relations_with_disjointness(self) -> frozenset[Relation]:
        """Every relation that appears in some declared-disjoint pair.

        The consistency reasoner's pre-filter: facts of any other relation
        can never participate in a disjointness clause, so their (s, o)
        groups need no pairwise expansion.
        """
        members: set[Relation] = set()
        for pair in self._disjoint_relations:  # det: allow-unordered -- commutative union
            members |= pair
        return frozenset(members)

    def are_disjoint_classes(self, c1: Entity, c2: Entity) -> bool:
        """True if some declared-disjoint pair subsumes (c1, c2)."""
        excluded = self._excluded_by(c2)
        return c1 in excluded or not excluded.isdisjoint(self._ancestors(c1))

    def _excluded_by(self, cls: Entity) -> frozenset[Entity]:
        """The classes declared disjoint with ``cls`` or a superclass of
        it, memoized: a class is disjoint with ``cls`` iff it or one of
        its superclasses is in this set.  A declared pair {a, b} that
        meets ``cls``'s superclasses contributes its other member, or
        both when both are superclasses (a single-class pair, its
        class)."""
        excluded = self._excluded.get(cls)
        if excluded is None:
            ancestors = self.superclasses(cls, include_self=True)
            excluded = self._excluded[cls] = frozenset(
                member
                for pair in self._disjoint_classes  # det: allow-unordered -- builds a set
                if not pair.isdisjoint(ancestors)
                for member in (pair - ancestors or pair)
            )
        return excluded

    def type_violations(self, store: TripleStore) -> list:
        """Triples whose subject/object types violate domain/range declarations.

        Entities with *no* known type are not flagged (open-world reading).
        """
        violations = []
        for triple in store:
            relation = triple.predicate
            if not isinstance(relation, Relation):
                continue
            domain = self._domain.get(relation)
            if domain is not None and isinstance(triple.subject, Entity):
                types = self.types_of(triple.subject)
                if types and domain not in types and domain != ns.THING:
                    violations.append(triple)
                    continue
            rng = self._range.get(relation)
            if rng is not None and isinstance(triple.object, Entity):
                types = self.types_of(triple.object)
                if types and rng not in types and rng != ns.THING:
                    violations.append(triple)
        return violations


def schema_triples(
    relation: Relation,
    domain: Optional[Entity] = None,
    range_: Optional[Entity] = None,
    functional: bool = False,
) -> list:
    """Build the schema triples declaring a relation's signature."""
    from .terms import Literal

    triples = []
    if domain is not None:
        triples.append(Triple(relation, ns.DOMAIN, domain))
    if range_ is not None:
        triples.append(Triple(relation, ns.RANGE, range_))
    if functional:
        triples.append(Triple(relation, ns.FUNCTIONAL, Literal("true")))
    return triples
