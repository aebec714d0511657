"""Hash-partitioned sharded databases.

A :class:`ShardedDatabase` is a :class:`~repro.db.database.Database` whose
rows are additionally *hash-partitioned* into ``N`` disjoint shard databases.
Every relation is partitioned on its **partition column** (the first column —
the entity key of every schema in the repo: the source node of an edge, the
account id of a ledger row), so all rows about one entity live on one shard:

* point lookups and constant-bound scans touch a single shard;
* equi-joins whose join key *is* the partition key are **co-partitioned** —
  each shard joins locally, no data crosses shard boundaries;
* an update :class:`~repro.db.delta.Delta` splits into one sub-delta per
  shard (:func:`split_delta`), so :meth:`Database.apply_delta` advances only
  the touched shards and every untouched shard is carried over **as the same
  object** — which is what makes shard-level result caching in
  :class:`repro.engine.parallel.ShardedBackend` O(touched shards), and what a
  later multi-process deployment will ship over the wire.

The merged view *is* the sharded database: ``ShardedDatabase`` subclasses
``Database`` and keeps the full relations, so every existing consumer
(the naive interpreter, the compiled engine, the store, the algebra layer)
works on it unchanged, and a sharded database equals the plain database with
the same contents.  The per-shard decomposition is an additional, lazily
maintained index over the same immutable value.

Routing is **stable across processes**: :func:`shard_of` hashes the
``repr`` of the partition value through CRC-32 rather than Python's
per-process salted ``hash``, so two processes (or two runs of a benchmark)
agree on every row's home shard.
"""

from __future__ import annotations

import numbers
import os
import warnings
import zlib
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .database import Database, DatabaseError
from .delta import Delta, RowSet
from .schema import Schema

__all__ = [
    "SHARDS_ENV",
    "DEFAULT_SHARDS",
    "shards_from_env",
    "shard_of",
    "split_delta",
    "ShardedDatabase",
    "ShardStateMachine",
]

Row = Tuple[object, ...]
Rows = FrozenSet[Row]

#: environment knob: shard count of the ``sharded`` backend and of sharded stores
SHARDS_ENV = "REPRO_SHARDS"

#: default shard count when ``REPRO_SHARDS`` is unset
DEFAULT_SHARDS = 4

#: every relation is partitioned on this column (the entity-key convention)
PARTITION_COLUMN = 0


def shards_from_env(default: int = DEFAULT_SHARDS) -> int:
    """The shard count selected by ``REPRO_SHARDS`` (default 4, minimum 1)."""
    raw = os.environ.get(SHARDS_ENV, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {SHARDS_ENV}={raw!r}; expected a positive "
            f"integer — using {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if value < 1:
        warnings.warn(
            f"ignoring {SHARDS_ENV}={value}; shard count must be >= 1 — "
            f"using {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return value


def _stable_key(value: object) -> int:
    """An equality-consistent, process-stable routing digest for ``value``.

    Rows are compared by Python equality, so cross-type-equal keys
    (``0`` / ``0.0`` / ``True``, ``Decimal(1)`` / ``1``, ``(1,)`` /
    ``(1.0,)``) must digest identically; and the digest must not depend on
    ``PYTHONHASHSEED``, so the same database partitions identically in
    every process.  Numbers therefore route through ``hash()`` (defined by
    Python to agree across numeric types, and unsalted); strings and bytes
    — whose built-in hashes *are* salted — route through CRC-32; tuples
    and frozensets (row sets included) recurse so equal composites agree
    element-wise.
    """
    if isinstance(value, numbers.Number):
        return hash(value) if value == value else 0  # NaN: stable bucket
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, tuple):
        acc = 1000003
        for item in value:
            acc = (acc * 69069 + _stable_key(item)) & 0xFFFFFFFFFFFFFFFF
        return acc
    if isinstance(value, (frozenset, RowSet)):
        acc = 0
        for item in value:  # XOR: order-free, matching set equality
            acc ^= _stable_key(item)
        return acc
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


def shard_of(value: object, num_shards: int) -> int:
    """The home shard of a partition-key ``value`` (see :func:`_stable_key`)."""
    if num_shards <= 1:
        return 0
    # isinstance, not type-is: ``bool`` is an ``int`` subtype with
    # ``True == 1`` and ``hash(True) == hash(1)``, so it must take the same
    # path as the int it equals — rows are compared by equality, and equal
    # keys routed to different shards would break the disjoint-routing
    # invariant of split_delta.  (IntEnum and friends ride along for the
    # same reason.)  hash(int) is unsalted, so the route stays process-stable.
    if isinstance(value, int):  # the hot path for entity ids; hash(int) is cheap
        return hash(value) % num_shards
    return _stable_key(value) % num_shards


def split_delta(delta: Delta, num_shards: int) -> Dict[int, Delta]:
    """Split ``delta`` into per-shard sub-deltas by partition-key routing.

    The union of the returned sub-deltas is ``delta`` and they touch disjoint
    row sets, so applying each sub-delta to its shard is exactly applying the
    whole delta to the partitioned database.  Only shards actually touched
    appear in the result — this is the "one composed delta per shard per
    batch" the group-commit scheduler applies.
    """
    if num_shards <= 1:
        return {0: delta} if not delta.is_empty() else {}
    inserted: Dict[int, Dict[str, List[Row]]] = {}
    deleted: Dict[int, Dict[str, List[Row]]] = {}
    for name, rows in delta.inserted.items():
        for row in rows:
            shard = shard_of(row[PARTITION_COLUMN], num_shards)
            inserted.setdefault(shard, {}).setdefault(name, []).append(row)
    for name, rows in delta.deleted.items():
        for row in rows:
            shard = shard_of(row[PARTITION_COLUMN], num_shards)
            deleted.setdefault(shard, {}).setdefault(name, []).append(row)
    return {
        shard: Delta(inserted.get(shard), deleted.get(shard))
        for shard in set(inserted) | set(deleted)
    }


class ShardedDatabase(Database):
    """An immutable database that is also hash-partitioned into shards.

    The instance *is* a full :class:`Database` (merged relations, shared
    caches, provenance); :attr:`shards` exposes the per-shard decomposition
    as plain ``Database`` objects over the same schema.  Functional updates
    through :meth:`Database.apply_delta` preserve shardedness and advance
    only the touched shards, keeping untouched shard objects identical —
    the invariant the parallel engine's shard-level caches key on.

    ``map_domain`` and ``restrict_domain`` re-partition from scratch (a
    renamed value may change its home shard); they are O(database) anyway.
    """

    __slots__ = ("_num_shards", "_shard_dbs")

    def __init__(
        self,
        schema: Schema,
        relations: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
        num_shards: Optional[int] = None,
    ):
        super().__init__(schema, relations)
        self._num_shards = shards_from_env() if num_shards is None else int(num_shards)
        if self._num_shards < 1:
            raise DatabaseError(f"shard count must be >= 1, got {self._num_shards}")

    def _init_caches(self, relations) -> None:
        super()._init_caches(relations)
        # per-shard decomposition is lazy: derived by apply_delta's
        # _derive_from_parent hook, or rebuilt by partitioning on demand
        self._shard_dbs: Optional[Tuple[Database, ...]] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_database(cls, db: Database, num_shards: Optional[int] = None) -> "ShardedDatabase":
        """Wrap an existing database (sharing its validated relation sets)."""
        if isinstance(db, ShardedDatabase) and (
            num_shards is None or num_shards == db.num_shards
        ):
            return db
        sharded = cls._from_validated(db.schema, db.relations())
        sharded._num_shards = shards_from_env() if num_shards is None else int(num_shards)
        if sharded._num_shards < 1:
            raise DatabaseError(f"shard count must be >= 1, got {sharded._num_shards}")
        # optimizer statistics depend only on the merged contents, which are
        # identical — promotion must not force a from-scratch rebuild
        sharded._stats = db._stats
        return sharded

    @classmethod
    def graph(cls, edges, num_shards: Optional[int] = None) -> "ShardedDatabase":
        from .schema import GRAPH_SCHEMA

        return cls(GRAPH_SCHEMA, {"E": [tuple(e) for e in edges]}, num_shards)

    # -- the per-shard decomposition ---------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def shards(self) -> Tuple[Database, ...]:
        """The per-shard databases (disjoint, union = this database); lazy."""
        if self._shard_dbs is None:
            self._shard_dbs = self._partition()
        return self._shard_dbs

    def _partition(self) -> Tuple[Database, ...]:
        n = self._num_shards
        if n == 1:
            return (Database._from_validated(self._schema, dict(self._relations)),)
        buckets: List[Dict[str, set]] = [
            {name: set() for name in self._schema.relation_names} for _ in range(n)
        ]
        for name, rows in self._relations.items():
            for row in rows:
                buckets[shard_of(row[PARTITION_COLUMN], n)][name].add(row)
        return tuple(
            Database._from_validated(
                self._schema, {name: frozenset(rows) for name, rows in bucket.items()}
            )
            for bucket in buckets
        )

    def shard_index(self, relation: str, row: Sequence[object]) -> int:
        """The home shard of ``row`` in ``relation``."""
        self._schema[relation]  # SchemaError for unknown relations
        return shard_of(tuple(row)[PARTITION_COLUMN], self._num_shards)

    def shard_sizes(self) -> Tuple[int, ...]:
        """Total row count per shard (the balance diagnostic)."""
        return tuple(shard.cardinality() for shard in self.shards)

    # -- functional updates -------------------------------------------------------

    def _derive_from_parent(self, parent: Database, delta: Delta) -> None:
        """Carry the shard decomposition across :meth:`Database.apply_delta`.

        The delta splits per shard; untouched shards are shared *by object*
        with the parent, touched shards advance through their own
        ``apply_delta`` (keeping per-shard provenance and patched caches).
        """
        self._num_shards = parent._num_shards  # type: ignore[attr-defined]
        parent_shards = parent._shard_dbs  # type: ignore[attr-defined]
        if parent_shards is None:
            return  # parent never partitioned: stay lazy, partition on demand
        shards = list(parent_shards)
        for index, sub in split_delta(delta, self._num_shards).items():
            shards[index] = shards[index].apply_delta(sub)
        self._shard_dbs = tuple(shards)

    def map_domain(self, mapping: Mapping[object, object]) -> "ShardedDatabase":
        return ShardedDatabase.from_database(super().map_domain(mapping), self._num_shards)

    def restrict_domain(self, keep: Iterable[object]) -> "ShardedDatabase":
        return ShardedDatabase.from_database(
            super().restrict_domain(keep), self._num_shards
        )

    def __repr__(self) -> str:
        return f"Sharded[{self._num_shards}]{super().__repr__()}"


class ShardStateMachine:
    """Worker-side shard state: the db half of the shard-state protocol.

    A process-mode worker (:mod:`repro.engine.executors`) owns a subset of a
    sharded database's shards *persistently*: the coordinator attaches each
    shard once and thereafter ships only :class:`Delta` wire values, so a
    re-check after a commit transfers ``O(|delta|)``, never whole relations.
    This class is that state, kept deliberately free of any engine or IPC
    machinery so it can be tested (and reused — e.g. by a durable WAL
    replayer) in isolation:

    ``attach``
        install a full shard database under an index (first contact, or
        recovery after the coordinator lost track of the worker's state);
    ``apply``
        advance one shard by a delta (accepts a :class:`Delta` or its
        :meth:`~repro.db.delta.Delta.to_wire` form);
    ``shard`` / ``sizes``
        read access for task execution and stats reporting;
    ``evict``
        drop one shard or all of them (cache-pressure relief).

    Each held shard is tagged with the coordinator-assigned *state id* the
    protocol uses to agree on what the worker holds without shipping or
    hashing contents.
    """

    __slots__ = ("_shards", "_state_ids")

    def __init__(self) -> None:
        self._shards: Dict[int, Database] = {}
        self._state_ids: Dict[int, object] = {}

    def attach(self, index: int, db: Database, state_id: object = None) -> None:
        self._shards[index] = db
        self._state_ids[index] = state_id

    def apply(self, index: int, delta, state_id: object = None) -> None:
        if not isinstance(delta, Delta):
            delta = Delta.from_wire(delta)
        try:
            held = self._shards[index]
        except KeyError:
            raise DatabaseError(
                f"no shard attached at index {index}; attach before apply"
            ) from None
        self._shards[index] = held.apply_delta(delta)
        self._state_ids[index] = state_id

    def shard(self, index: int) -> Database:
        try:
            return self._shards[index]
        except KeyError:
            raise DatabaseError(
                f"no shard attached at index {index}; attach before use"
            ) from None

    def state_id(self, index: int) -> object:
        """The coordinator-assigned id of the held state (None if unheld)."""
        return self._state_ids.get(index)

    def indexes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._shards))

    def sizes(self) -> Dict[int, int]:
        """Row count per held shard (the stats-protocol payload)."""
        return {index: db.cardinality() for index, db in sorted(self._shards.items())}

    def evict(self, index: Optional[int] = None) -> None:
        if index is None:
            self._shards.clear()
            self._state_ids.clear()
        else:
            self._shards.pop(index, None)
            self._state_ids.pop(index, None)
