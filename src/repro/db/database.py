"""Finite relational databases.

A :class:`Database` is a finite interpretation of a :class:`~repro.db.schema.Schema`:
each relation symbol is mapped to a finite set of tuples over the universe.
The universe itself is the countably infinite set of Python hashable values
(in practice integers and strings); a database only ever stores finitely many
of them.  The *active domain* ``dom(D)`` is the set of values that occur in
some tuple of ``D`` — exactly the paper's notion.

Databases are immutable value objects: all update operations return new
databases.  This makes them safe to use as inputs to transactions (which are
*functions* from databases to databases in the paper) and trivially supports
the roll-back baseline in the integrity-maintenance benchmark.
"""

from __future__ import annotations

import itertools
import weakref
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .schema import GRAPH_SCHEMA, RelationSchema, Schema, SchemaError

__all__ = ["Database", "DatabaseError"]

Tuple_ = Tuple[object, ...]

_EMPTY_ROWS: FrozenSet[Tuple_] = frozenset()


class DatabaseError(ValueError):
    """Raised for malformed database contents or schema mismatches."""


class Database:
    """An immutable finite relational structure over a schema.

    Parameters
    ----------
    schema:
        The relational schema.
    relations:
        A mapping from relation name to an iterable of tuples.  Missing
        relations are interpreted as empty.
    """

    # __weakref__ lets the query engine key its result memo weakly on the
    # database, so memoised extensions die with the database they describe.
    # (The compiled backend additionally pins a small bounded LRU of recent
    # databases strongly — the node-level states incremental delta evaluation
    # resumes from; see CompiledBackend._states.)
    __slots__ = (
        "_schema", "_relations", "_domain", "_domain_counts", "_hash",
        "_hash_accs", "_canonical_key", "_sorted_rows", "_indexes",
        "_delta_base", "_delta_skip", "_stats", "__weakref__",
    )

    #: skip links stop composing once the accumulated delta reaches this many
    #: rows — beyond that, re-anchoring at a closer ancestor is cheaper than
    #: dragging an ever-growing composed delta along the stream
    _SKIP_DELTA_CAP = 512

    def __init__(
        self,
        schema: Schema,
        relations: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
    ):
        if not isinstance(schema, Schema):
            raise DatabaseError(f"expected Schema, got {type(schema).__name__}")
        self._schema = schema
        rels: Dict[str, AbstractSet[Tuple_]] = {}
        relations = relations or {}
        unknown = set(relations) - set(schema.relation_names)
        if unknown:
            raise DatabaseError(
                f"relations {sorted(unknown)} are not part of the schema"
            )
        for rel_schema in schema:
            rows = relations.get(rel_schema.name, ())
            validated = frozenset(rel_schema.validate_tuple(row) for row in rows)
            rels[rel_schema.name] = validated
        self._init_caches(rels)

    def _init_caches(self, relations: Mapping[str, AbstractSet[Tuple_]]) -> None:
        # the one row representation: persistent row sets, so a successor
        # state shares every partition its delta does not touch
        self._relations: Dict[str, RowSet] = {
            name: RowSet.of(rows) for name, rows in relations.items()
        }
        # lazily computed caches — databases are immutable, so none of these
        # ever needs invalidation
        self._domain: Optional[FrozenSet[object]] = None
        self._domain_counts: Optional[Dict[object, int]] = None
        self._hash: Optional[int] = None
        self._hash_accs: Optional[Dict[str, int]] = None
        self._canonical_key: Optional[Tuple] = None
        self._sorted_rows: Dict[str, Tuple[Tuple_, ...]] = {}
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], BucketMap] = {}
        self._delta_base: Optional[Tuple["weakref.ref[Database]", "Delta"]] = None
        self._delta_skip: Optional[Tuple["weakref.ref[Database]", "Delta"]] = None
        self._stats = None  # lazily built DatabaseStats (see stats())

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema = GRAPH_SCHEMA) -> "Database":
        """The empty database over ``schema``."""
        return cls(schema, {})

    @classmethod
    def graph(cls, edges: Iterable[Sequence[object]]) -> "Database":
        """Build a graph database (single binary predicate ``E``) from edges."""
        return cls(GRAPH_SCHEMA, {"E": [tuple(e) for e in edges]})

    @classmethod
    def _from_validated(
        cls, schema: Schema, relations: Mapping[str, AbstractSet[Tuple_]]
    ) -> "Database":
        """Trusted constructor: ``relations`` is complete and already validated.

        This is the internal fast path every functional update goes through —
        unchanged relations are *shared* (the same row-set objects) with the
        parent database and no row is re-validated.
        """
        db = cls.__new__(cls)
        db._schema = schema
        db._init_caches(relations)
        return db

    # -- basic accessors ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def active_domain(self) -> FrozenSet[object]:
        """``dom(D)``: all values occurring in some tuple of the database (cached)."""
        if self._domain is None:
            self._domain = frozenset(self.occurrence_counts())
        return self._domain

    def occurrence_counts(self) -> Mapping[object, int]:
        """How many tuple positions each active-domain value occupies (cached).

        The counts are what make the active domain *incrementally*
        maintainable: a value leaves the domain exactly when its count
        reaches zero, so :meth:`apply_delta` looks at the delta's values
        only.  The dict itself is *copied* for the successor — one
        O(|dom(D)|) copy per update, proportional to the distinct values,
        not the rows — and then patched in O(|delta|); a predecessor's
        counts are never mutated.  The returned view is read-only.
        """
        if self._domain_counts is None:
            counts: Dict[object, int] = {}
            for rows in self._relations.values():
                for row in rows:
                    for value in row:
                        counts[value] = counts.get(value, 0) + 1
            self._domain_counts = counts
        return MappingProxyType(self._domain_counts)

    def stats(self):
        """Per-relation cardinality/distinct/most-common-value statistics.

        Built lazily on first request (one pass over the database) and from
        then on carried forward through :meth:`apply_delta` without a rescan —
        see :class:`repro.engine.stats.DatabaseStats`.  The cost-based plan
        optimizer is the consumer; databases that are never optimized
        against never pay for statistics.
        """
        if self._stats is None:
            from ..engine.stats import DatabaseStats

            self._stats = DatabaseStats.from_database(self)
        return self._stats

    def delta_base(self) -> Optional[Tuple["Database", "Delta"]]:
        """The ``(parent, delta)`` provenance of an :meth:`apply_delta` result.

        The parent is held weakly (an update stream must not retain its whole
        history), so this returns ``None`` once the parent is gone — callers
        (the incremental query engine, :meth:`Delta.between`) then fall back
        to full evaluation.
        """
        if self._delta_base is None:
            return None
        parent = self._delta_base[0]()
        if parent is None:
            return None
        return parent, self._delta_base[1]

    def provenance_step(self) -> Optional[Tuple["Database", "Delta"]]:
        """One live step up the update ancestry: the parent, or the skip link.

        The direct parent of an update chain is often transient (the
        intermediate states of a multi-statement transaction die as soon as
        the final state exists), so every ``apply_delta`` result also carries
        a *skip link*: a composed delta to the nearest longer-lived ancestor.
        Walkers prefer the parent (more ancestors to find cached state on)
        and fall back to the skip link when the parent is gone.
        """
        link = self.delta_base()
        if link is not None:
            return link
        if self._delta_skip is not None:
            anchor = self._delta_skip[0]()
            if anchor is not None:
                return anchor, self._delta_skip[1]
        return None

    def relation(self, name: str) -> AbstractSet[Tuple_]:
        """The set of tuples currently in relation ``name``.

        An immutable set equal to the ``frozenset`` of the rows: a real
        ``frozenset`` while the relation is small or has never been updated,
        a persistent :class:`~repro.db.delta.RowSet` (same read-only set
        surface, same hash) once an update partitioned it.  Never copied to
        be handed out.
        """
        try:
            return self._relations[name].plain()
        except KeyError as exc:
            raise DatabaseError(f"no relation named {name!r}") from exc

    def index(self, name: str, columns) -> Mapping[Tuple_, Tuple[Tuple_, ...]]:
        """A hash index on relation ``name`` keyed by the given column(s).

        ``columns`` is a 0-based column index or a tuple of them; the result
        maps each key tuple to the rows carrying that key (a tuple of distinct
        full rows, in no particular order).
        Indexes are built lazily (one pass over the relation), cached on the
        database, and never need invalidation because databases are
        immutable.  The result is a read-only persistent
        :class:`~repro.db.delta.BucketMap`: :meth:`apply_delta` hands the
        successor a map that shares every partition the delta does not touch
        with this one, so keeping an index current costs O(√keys) per changed
        row rather than a copy of the index.  Indexes back the query engine's
        constant-bound scans and the graph neighbourhood accessors.
        """
        if isinstance(columns, int):
            columns = (columns,)
        key = (name, tuple(columns))
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        rows = self.relation(name)  # DatabaseError for unknown relations
        arity = self._schema[name].arity
        if any(c < 0 or c >= arity for c in key[1]):
            raise DatabaseError(
                f"index columns {list(key[1])} out of range for {name!r} (arity {arity})"
            )
        built = BucketMap.build(rows, row_key(key[1]))
        self._indexes[key] = built
        return built

    def has_index(self, name: str, columns: Tuple[int, ...]) -> bool:
        """Has :meth:`index` built (or inherited) this index already?"""
        return (name, tuple(columns)) in self._indexes

    def __getitem__(self, name: str) -> AbstractSet[Tuple_]:
        return self.relation(name)

    def relations(self) -> Dict[str, AbstractSet[Tuple_]]:
        """A copy of the relation-name -> tuple-set mapping (see :meth:`relation`)."""
        return {name: rows.plain() for name, rows in self._relations.items()}

    def contains(self, name: str, row: Sequence[object]) -> bool:
        """Does relation ``name`` contain ``row``?"""
        rel_schema = self._schema[name]
        return rel_schema.validate_tuple(row) in self._relations[name]

    def cardinality(self, name: Optional[str] = None) -> int:
        """Number of tuples in relation ``name`` (or in the whole database)."""
        if name is not None:
            return len(self.relation(name))
        return sum(len(rows) for rows in self._relations.values())

    def is_empty(self) -> bool:
        return all(not rows for rows in self._relations.values())

    # -- graph view --------------------------------------------------------------

    @property
    def edges(self) -> AbstractSet[Tuple[object, object]]:
        """Edge set for graph databases (relation ``E``)."""
        return self.relation("E")  # type: ignore[return-value]

    @property
    def nodes(self) -> FrozenSet[object]:
        """Node set for graph databases: the active domain."""
        return self.active_domain

    def successors(self, node: object) -> FrozenSet[object]:
        """Out-neighbours of ``node`` in a graph database (index-backed)."""
        return frozenset(y for (_x, y) in self.index("E", 0).get((node,), ()))

    def predecessors(self, node: object) -> FrozenSet[object]:
        """In-neighbours of ``node`` in a graph database (index-backed)."""
        return frozenset(x for (x, _y) in self.index("E", 1).get((node,), ()))

    def out_degree(self, node: object) -> int:
        return len(self.index("E", 0).get((node,), ()))

    def in_degree(self, node: object) -> int:
        return len(self.index("E", 1).get((node,), ()))

    # -- functional updates --------------------------------------------------------

    def apply_delta(self, delta: "Delta") -> "Database":
        """Apply a :class:`~repro.db.delta.Delta`, sharing everything untouched.

        This is the trusted update fast path.  Untouched relations, their
        hash indexes and their canonical orderings are *shared* with the
        parent without re-validation.  For a touched relation:

        * the rows are a persistent :class:`~repro.db.delta.RowSet` and each
          hash index a persistent :class:`~repro.db.delta.BucketMap`; both
          are patched per partition — O(√n) per changed row, every other
          partition shared by identity with the parent, which stays valid;
        * the content hash and the optimizer's counters are patched in
          O(|delta|) (the per-column value counters are copied, O(distinct
          values)).

        The active-domain occurrence counts, when the parent has them, are
        copied (O(|dom(D)|)) and patched — with the column counters, the
        terms still proportional to the data.  The result records its ``(parent,
        delta)`` provenance (weakly), which is what the incremental query
        engine and the transactional store's replay path consume.

        An ineffective delta returns ``self`` unchanged.
        """
        delta = delta.normalized(self)
        if delta.is_empty():
            return self
        touched = delta.touched()
        relations = dict(self._relations)
        for name in touched:
            relations[name] = relations[name].patched(
                delta.inserted.get(name, _EMPTY_ROWS),
                delta.deleted.get(name, _EMPTY_ROWS),
            )
        child = Database._from_validated(self._schema, relations)
        # hash indexes: share the untouched ones, patch the rest per partition
        for (name, columns), index in self._indexes.items():
            if name in touched:
                index = index.patched(
                    row_key(columns),
                    delta.inserted.get(name, _EMPTY_ROWS),
                    delta.deleted.get(name, _EMPTY_ROWS),
                )
            child._indexes[(name, columns)] = index
        # canonical per-relation orderings of untouched relations stay valid
        for name, ordered in self._sorted_rows.items():
            if name not in touched:
                child._sorted_rows[name] = ordered
        # content hash: XOR accumulators patch in O(delta)
        if self._hash_accs is not None:
            accs = dict(self._hash_accs)
            for name in touched:
                acc = accs[name]
                for row in delta.inserted.get(name, _EMPTY_ROWS):
                    acc ^= hash(row)
                for row in delta.deleted.get(name, _EMPTY_ROWS):
                    acc ^= hash(row)
                accs[name] = acc
            child._hash_accs = accs
        # active domain: patch the occurrence counts when the parent has them
        if self._domain_counts is not None:
            counts = dict(self._domain_counts)
            added: list = []
            removed: list = []
            for value, change in delta.occurrence_delta().items():
                before = counts.get(value, 0)
                after = before + change
                if after <= 0:
                    counts.pop(value, None)
                    if before > 0:
                        removed.append(value)
                else:
                    counts[value] = after
                    if before == 0:
                        added.append(value)
            child._domain_counts = counts
            if self._domain is not None:
                if not added and not removed:
                    child._domain = self._domain
                else:
                    child._domain = (self._domain | frozenset(added)) - frozenset(removed)
        # optimizer statistics: clone-and-patch the touched relations'
        # counters, share the rest (same discipline as every cache above)
        if self._stats is not None:
            child._stats = self._stats.patched(delta)
        child._delta_base = (weakref.ref(self), delta)
        # skip link: extend the parent's anchor while the composed delta stays
        # small, otherwise re-anchor at the parent itself
        skip = None
        if self._delta_skip is not None:
            anchor_ref, to_parent = self._delta_skip
            if anchor_ref() is not None:
                composed = to_parent.then(delta)
                if len(composed) <= Database._SKIP_DELTA_CAP:
                    skip = (anchor_ref, composed)
        if skip is None and self._delta_base is not None:
            parent_ref, to_self = self._delta_base
            if parent_ref() is not None:
                skip = (parent_ref, to_self.then(delta))
        child._delta_skip = skip
        return child

    def with_relation(
        self, name: str, rows: Iterable[Sequence[object]]
    ) -> "Database":
        """Return a copy of the database with relation ``name`` replaced by ``rows``.

        Only the replacement rows are validated; every other relation is
        shared with this database as-is (no O(database) re-validation).
        """
        rel_schema = self._schema[name]
        wanted = frozenset(rel_schema.validate_tuple(row) for row in rows)
        current = self._relations[name]
        return self.apply_delta(
            Delta(inserted={name: wanted - current}, deleted={name: current - wanted})
        )

    def insert(self, name: str, *rows: Sequence[object]) -> "Database":
        """Return a copy with ``rows`` inserted into relation ``name``."""
        self._schema[name]  # SchemaError for unknown relations
        return self.apply_delta(Delta(inserted={name: rows}))

    def delete(self, name: str, *rows: Sequence[object]) -> "Database":
        """Return a copy with ``rows`` removed from relation ``name``."""
        self._schema[name]  # SchemaError for unknown relations
        return self.apply_delta(Delta(deleted={name: rows}))

    def map_domain(self, mapping: Mapping[object, object]) -> "Database":
        """Apply a renaming of domain elements to every tuple.

        Elements not mentioned in ``mapping`` are left unchanged.  This is the
        action of a (partial) permutation of the universe on the database and
        is used to test *genericity* of transactions; a mapping that is not
        injective on the active domain (two domain elements mapped to the same
        value, or a mapped value colliding with an unmapped element) would
        silently merge tuples instead of permuting them, so it is rejected.
        """
        preimages: Dict[object, object] = {}
        for value in self.active_domain:
            image = mapping.get(value, value)
            previous = preimages.setdefault(image, value)
            if previous != value:
                raise DatabaseError(
                    f"map_domain mapping is not injective on the active domain: "
                    f"{previous!r} and {value!r} both map to {image!r}"
                )

        def rename(value: object) -> object:
            return mapping.get(value, value)

        new_rels = {
            name: frozenset(tuple(rename(v) for v in row) for row in rows)
            for name, rows in self._relations.items()
        }
        return Database._from_validated(self._schema, new_rels)

    def restrict_domain(self, keep: Iterable[object]) -> "Database":
        """Keep only tuples all of whose components lie in ``keep``."""
        keep_set = set(keep)
        new_rels = {
            name: frozenset(row for row in rows if all(v in keep_set for v in row))
            for name, rows in self._relations.items()
        }
        return Database._from_validated(self._schema, new_rels)

    def union(self, other: "Database") -> "Database":
        """Relation-wise union of two databases over the same schema."""
        self._check_same_schema(other)
        return self.apply_delta(
            Delta(
                inserted={
                    name: other._relations[name] - self._relations[name]
                    for name in self._schema.relation_names
                }
            )
        )

    def difference(self, other: "Database") -> "Database":
        """Relation-wise difference of two databases over the same schema."""
        self._check_same_schema(other)
        return self.apply_delta(
            Delta(
                deleted={
                    name: self._relations[name] & other._relations[name]
                    for name in self._schema.relation_names
                }
            )
        )

    def _check_same_schema(self, other: "Database") -> None:
        if not isinstance(other, Database):
            raise DatabaseError(f"expected Database, got {type(other).__name__}")
        if other._schema != self._schema:
            raise DatabaseError("databases have different schemas")

    # -- isomorphism-invariant encodings ------------------------------------------

    def _sorted_relation(self, name: str) -> Tuple[Tuple_, ...]:
        """Relation ``name`` in canonical (repr) order — cached per relation.

        Caching per relation (rather than one monolithic key) lets
        :meth:`apply_delta` carry the orderings of untouched relations over to
        the successor database, so a single-tuple update never re-sorts the
        rest of the database.
        """
        cached = self._sorted_rows.get(name)
        if cached is None:
            cached = tuple(sorted(self._relations[name], key=repr))
            self._sorted_rows[name] = cached
        return cached

    def canonical_key(self) -> Tuple:
        """A hashable key identifying the database *up to equality* (not isomorphism).

        Cached: the key is derived from immutable contents and is requested
        repeatedly (hashing, enumeration dedup, memo keys in the query engine).
        """
        if self._canonical_key is None:
            self._canonical_key = tuple(
                (name, self._sorted_relation(name))
                for name in self._schema.relation_names
            )
        return self._canonical_key

    def is_isomorphic(self, other: "Database") -> bool:
        """Decide isomorphism by brute force over domain bijections.

        Only intended for small databases (the diagonalisation construction
        and the bounded decision procedures); the finite-model-theory toolkit
        has a faster path for graphs.
        """
        self._check_same_schema(other)
        dom_a = sorted(self.active_domain, key=repr)
        dom_b = sorted(other.active_domain, key=repr)
        if len(dom_a) != len(dom_b):
            return False
        for name in self._schema.relation_names:
            if len(self._relations[name]) != len(other._relations[name]):
                return False
        for perm in itertools.permutations(dom_b):
            mapping = dict(zip(dom_a, perm))
            if self.map_domain(mapping) == other:
                return True
        return len(dom_a) == 0

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._schema == other._schema and self._relations == other._relations

    def _hash_accumulators(self) -> Dict[str, int]:
        """Per-relation XOR of row hashes — an order-free content digest.

        Rows are sets, so XOR-ing the (unique) row hashes is well defined and,
        crucially, *patchable*: :meth:`apply_delta` derives the successor's
        accumulators in O(|delta|), which keeps content hashing off the
        per-update critical path (the engine's result memo hashes every
        database it sees).
        """
        if self._hash_accs is None:
            accs: Dict[str, int] = {}
            for name, rows in self._relations.items():
                acc = 0
                for row in rows:
                    acc ^= hash(row)
                accs[name] = acc
            self._hash_accs = accs
        return self._hash_accs

    def __hash__(self) -> int:
        if self._hash is None:
            accs = self._hash_accumulators()
            self._hash = hash(
                (self._schema,)
                + tuple(accs[name] for name in self._schema.relation_names)
            )
        return self._hash

    def __iter__(self) -> Iterator[Tuple[str, Tuple_]]:
        """Iterate over ``(relation_name, tuple)`` facts."""
        for name in self._schema.relation_names:
            for row in self._sorted_relation(name):
                yield name, row

    def __len__(self) -> int:
        return self.cardinality()

    def __repr__(self) -> str:
        parts = []
        for name in self._schema.relation_names:
            parts.append(f"{name}={list(self._sorted_relation(name))}")
        return f"Database({', '.join(parts)})"


# late import: Delta only depends on duck-typed databases, Database needs the
# class at update time — importing here keeps ``repro.db.delta`` import-light
from .delta import BucketMap, Delta, RowSet, row_key  # noqa: E402
