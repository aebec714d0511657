"""Deltas: first-class descriptions of database updates.

The paper's central workload is a *stream* of transactions against a slowly
changing database.  A :class:`Delta` is the value object describing one step
of that stream — per relation, the set of tuples inserted and the set of
tuples deleted — and is the currency of the whole update fast path:

* :meth:`Database.apply_delta <repro.db.database.Database.apply_delta>`
  consumes a delta and produces the successor database without re-validating
  (or even re-hashing) any untouched row, patching the active-domain,
  hash-index and canonical-ordering caches instead of discarding them;
* the resulting database remembers ``(parent, delta)`` (weakly, so streams
  retain nothing), which lets the transactional store replay a
  transaction's net effect in time proportional to the delta;
* deltas compose (:meth:`then`), invert (:meth:`inverse`) and normalise
  against a concrete database (:meth:`normalized`), so the same object
  serves the write log, the maintenance policies and the benchmarks.

A delta is immutable.  Tuples are stored exactly as
:class:`~repro.db.database.Database` stores them (plain tuples); arity
checking happens on :meth:`normalized`, i.e. when a delta first meets a
schema.
"""

from __future__ import annotations

import pickle
import struct
from collections.abc import Mapping as _MappingABC
from collections.abc import Set as _SetABC
from itertools import chain
from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Delta",
    "DeltaError",
    "BucketMap",
    "RowSet",
    "row_key",
    "encode_wire_value",
    "decode_wire_value",
]

Row = Tuple[object, ...]
Rows = FrozenSet[Row]

_EMPTY: Rows = frozenset()


def row_key(indices: Sequence[int]) -> Callable[[Row], Row]:
    """A ``row -> tuple of its values at indices`` extractor, at C speed.

    The one key extractor behind the database's hash indexes, the join
    family and projections.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (index,) = indices
        return lambda row: (row[index],)
    return lambda row: ()


# ---------------------------------------------------------------------------
# persistent hash-partitioned containers
# ---------------------------------------------------------------------------
#
# Both containers below spread their entries over a table of about √n small
# built-in containers chosen by ``hash(entry) & mask``; a successor copies the
# table and the partitions a delta touches and shares every other partition
# *by identity* with its predecessor, whose contents never change.  The two
# functions here are the one sizing rule they share.

#: below this many entries a table is a single partition: one built-in
#: container with nothing to look up around it
_WHOLE_BELOW = 64


def _table_size(size: int) -> int:
    """Partitions for ``size`` entries: one while small, else the power of two
    near √size (``size`` lies in ``[count²/2, 2·count²)``)."""
    return 1 if size < _WHOLE_BELOW else 1 << (size.bit_length() >> 1)


def _outgrown(size: int, count: int) -> bool:
    """Does a ``count``-partition table hold four times what it was sized for?
    A patch that notices re-partitions."""
    return size >= max(_WHOLE_BELOW, 4 * count * count)


class RowSet(_SetABC):
    """A persistent hash-partitioned immutable set of rows.

    The one representation of rows carried from state to state: a database's
    relations.
    :meth:`patched` is the one place rows are patched — it costs O(√n) per
    changed row where a flat ``frozenset`` would be copied whole, and leaves
    the predecessor valid (rollback resumes from the parent state).

    A set starts whole — :meth:`of` wraps a ``frozenset`` as the single
    partition, so rows that are never patched (a cold database, a one-off
    result) pay nothing — and is partitioned by the first patch that finds
    it outgrown.

    Read-only :class:`~collections.abc.Set` surface; equal, and hashing
    equal, to the ``frozenset`` of the same rows.  Membership probes one
    partition; iteration, comparison and the binary operators (which return
    flat ``frozenset`` values) run partition by partition inside the
    built-in set type.  Pickles as its rows, because ``hash(row)`` — hence
    the partitioning — is not stable across processes.
    """

    __slots__ = ("_parts", "_len", "_hash")

    def __init__(self, parts: List[Rows], size: int):
        # a power-of-two number of frozensets, a row in the one its hash
        # selects.  Only ever replaced as a whole (see patched), so a reader
        # that takes the list once sees one consistent table.
        self._parts = parts
        self._len = size
        self._hash: Optional[int] = None

    @classmethod
    def of(cls, rows: Iterable[Row]) -> "RowSet":
        """``rows`` as a row set (itself when it already is one)."""
        if isinstance(rows, RowSet):
            return rows
        if not isinstance(rows, frozenset):
            rows = frozenset(rows)
        return cls([rows], len(rows))

    def patched(self, added: Iterable[Row], removed: Iterable[Row]) -> "RowSet":
        """``(self - removed) | added``, copying only the touched partitions."""
        if not added and not removed:
            return self
        if _outgrown(self._len, len(self._parts)):
            # the same rows over a table of the right size, kept (one
            # reference store): every later successor of this set, a second
            # child of a rolled-back parent included, finds it partitioned
            count = _table_size(self._len)
            table: List[List[Row]] = [[] for _ in range(count)]
            for row in self:
                table[hash(row) & (count - 1)].append(row)
            self._parts = [frozenset(part) for part in table]
        parts = list(self._parts)
        mask = len(parts) - 1
        changes: Dict[int, Tuple[Iterable[Row], Iterable[Row]]] = {}
        if not mask:
            changes[0] = (added, removed)
        else:
            for row in added:
                changes.setdefault(hash(row) & mask, ([], []))[0].append(row)
            for row in removed:
                changes.setdefault(hash(row) & mask, ([], []))[1].append(row)
        size = self._len
        for slot, (joining, leaving) in changes.items():
            part = parts[slot]
            size -= len(part)
            if leaving:
                part = part.difference(leaving)
            if joining:
                part = part.union(joining)
            size += len(part)
            parts[slot] = part
        return RowSet(parts, size)

    def plain(self) -> AbstractSet[Row]:
        """The cheapest equal set to read from: the sole partition (a real
        ``frozenset``) while there is only one, else this row set."""
        parts = self._parts
        return self if len(parts) > 1 else parts[0]

    def _flat(self) -> Rows:
        parts = self._parts
        return parts[0] if len(parts) == 1 else frozenset().union(*parts)

    # -- the Set surface ---------------------------------------------------------

    _from_iterable = frozenset  # what the inherited operators build

    def __contains__(self, row: object) -> bool:
        parts = self._parts
        return row in parts[hash(row) & (len(parts) - 1)]

    def __iter__(self) -> Iterator[Row]:
        return chain.from_iterable(self._parts)

    def __len__(self) -> int:
        return self._len

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._flat())
        return self._hash

    def __reduce__(self):
        return RowSet.of, (self._flat(),)

    def __repr__(self) -> str:
        return f"RowSet({set(self)!r})"

    def _aligned(self, other: object) -> Optional[Iterable[Tuple[Rows, Rows]]]:
        """Partition pairs, when ``other`` is a row set over an equal table."""
        if isinstance(other, RowSet):
            mine, theirs = self._parts, other._parts
            if len(mine) == len(theirs):
                return zip(mine, theirs)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SetABC):
            return NotImplemented
        if len(other) != self._len:
            return False
        pairs = self._aligned(other)
        if pairs is not None:
            return all(p is q or p == q for p, q in pairs)
        return self <= other

    def __le__(self, other: AbstractSet) -> bool:
        if not isinstance(other, _SetABC):
            return NotImplemented
        if self._len > len(other):
            return False
        pairs = self._aligned(other)
        if pairs is not None:
            return all(p is q or p <= q for p, q in pairs)
        other = _builtin(other)
        return all(part <= other for part in self._parts)

    def __ge__(self, other: AbstractSet) -> bool:
        if not isinstance(other, _SetABC):
            return NotImplemented
        return len(other) <= self._len and not self.__rsub__(other)

    def __and__(self, other: AbstractSet) -> Rows:
        if not isinstance(other, _SetABC):
            return NotImplemented
        parts = self._parts
        if len(other) <= len(parts):
            return frozenset(row for row in other if row in self)
        other = _builtin(other)
        return frozenset().union(*[part & other for part in parts])

    __rand__ = __and__

    def __or__(self, other: AbstractSet) -> Rows:
        if not isinstance(other, _SetABC):
            return NotImplemented
        return frozenset().union(_builtin(other), *self._parts)

    __ror__ = __or__

    def __sub__(self, other: AbstractSet) -> Rows:
        if not isinstance(other, _SetABC):
            return NotImplemented
        other = _builtin(other)
        return frozenset().union(*[part - other for part in self._parts])

    def __rsub__(self, other: AbstractSet) -> Rows:
        if not isinstance(other, _SetABC):
            return NotImplemented
        parts = self._parts
        if len(other) <= len(parts):
            return frozenset(row for row in other if row not in self)
        return frozenset(_builtin(other).difference(*parts))


def _builtin(rows: AbstractSet) -> AbstractSet[Row]:
    """``rows`` as a built-in set, for the C-speed operators."""
    if isinstance(rows, RowSet):
        return rows._flat()
    return rows if isinstance(rows, (frozenset, set)) else frozenset(rows)


class BucketMap(_MappingABC):
    """A persistent hash-partitioned ``key -> tuple-of-rows`` map.

    The representation behind the database's hash indexes
    (:meth:`Database.index <repro.db.database.Database.index>`).  The
    buckets are spread over about √n small dicts by ``hash(key)``;
    :meth:`patched` copies the partition table and only the partitions a
    row delta touches, so a successor costs O(√n) per touched key and
    shares every other partition *by identity* with its predecessor — which
    is never mutated, so predecessors stay valid.  Sized and re-partitioned by the rule
    :class:`RowSet` uses.

    A bucket is a tuple of distinct rows in no particular order: buckets are
    small (most hold one row), a tuple is a third the size of a ``frozenset``,
    and the cyclic collector stops tracking a tuple of plain rows after its
    first pass where it would revisit a ``frozenset`` for life.

    Read-only :class:`~collections.abc.Mapping` surface: ``get``, ``[]``,
    ``in``, ``len`` and iteration; there is no item assignment.
    """

    __slots__ = ("_parts", "_mask", "_len")

    def __init__(self, parts: list, size: int):
        self._parts = parts  # a power-of-two number of ``key -> bucket`` dicts
        self._mask = len(parts) - 1
        self._len = size

    @classmethod
    def _partition(cls, buckets: Iterable[Tuple[Row, Tuple[Row, ...]]], size: int) -> "BucketMap":
        count = _table_size(size)
        mask = count - 1
        parts: list = [{} for _ in range(count)]
        for key, bucket in buckets:
            parts[hash(key) & mask][key] = bucket
        return cls(parts, size)

    @classmethod
    def build(cls, rows: Iterable[Row], key_of) -> "BucketMap":
        """Group ``rows`` (distinct) into buckets by ``key_of(row)``."""
        grouped: Dict[Row, List[Row]] = {}
        for row in rows:
            grouped.setdefault(key_of(row), []).append(row)
        return cls._partition(
            ((key, tuple(bucket)) for key, bucket in grouped.items()), len(grouped)
        )

    def patched(self, key_of, inserted: Iterable[Row], deleted: Iterable[Row]) -> "BucketMap":
        """The map after a row delta: deleted rows leave their bucket (an
        emptied bucket is dropped), inserted rows join theirs."""
        if not inserted and not deleted:
            return self
        parts = list(self._parts)
        mask = self._mask
        size = self._len
        copied = set()  # slots whose partition this patch already owns

        def put(slot: int, key: Row, bucket: Optional[Tuple[Row, ...]]) -> None:
            if slot not in copied:
                parts[slot] = dict(parts[slot])
                copied.add(slot)
            if bucket is None:
                del parts[slot][key]
            else:
                parts[slot][key] = bucket

        for row in deleted:
            key = key_of(row)
            slot = hash(key) & mask
            bucket = parts[slot].get(key)
            if bucket is None or row not in bucket:
                continue
            if len(bucket) == 1:
                put(slot, key, None)
                size -= 1
            else:
                put(slot, key, tuple(kept for kept in bucket if kept != row))
        for row in inserted:
            key = key_of(row)
            slot = hash(key) & mask
            bucket = parts[slot].get(key)
            if bucket is None:
                put(slot, key, (row,))
                size += 1
            elif row not in bucket:
                put(slot, key, bucket + (row,))
        if _outgrown(size, len(parts)):
            return BucketMap._partition(
                (item for part in parts for item in part.items()), size
            )
        return BucketMap(parts, size)

    def get(self, key, default=None):
        return self._parts[hash(key) & self._mask].get(key, default)

    def __getitem__(self, key):
        return self._parts[hash(key) & self._mask][key]

    def __contains__(self, key) -> bool:
        return key in self._parts[hash(key) & self._mask]

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for part in self._parts:
            yield from part


class DeltaError(ValueError):
    """Raised for contradictory or schema-incompatible deltas."""


# ---------------------------------------------------------------------------
# canonical bytes framing for wire values
# ---------------------------------------------------------------------------
#
# The durable log records `Delta.to_wire()` forms as bytes.  The encoding is
# *canonical*: one byte sequence per value, independent of dict ordering or
# interpreter state, so equal deltas serialize to identical bytes (the wire
# form already sorts relations and rows).  The native tags cover every value
# the workloads produce (ints, strings, floats, bytes, bools, None, nested
# tuples); anything else falls back to a pickle-tagged payload, which round
# trips but is only as canonical as pickle itself.

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")


def _encode_into(out: bytearray, value: object) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        out += b"i"
        out += _LEN.pack(len(raw))
        out += raw
    elif type(value) is float:
        out += b"f"
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out += b"s"
        out += _LEN.pack(len(raw))
        out += raw
    elif type(value) is bytes:
        out += b"b"
        out += _LEN.pack(len(value))
        out += value
    elif type(value) is tuple:
        out += b"t"
        out += _LEN.pack(len(value))
        for item in value:
            _encode_into(out, item)
    else:
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out += b"P"
        out += _LEN.pack(len(raw))
        out += raw


def encode_wire_value(value: object) -> bytes:
    """Canonical bytes for a (possibly nested) plain-tuple wire value."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _decode_at(data: bytes, pos: int) -> Tuple[object, int]:
    if pos >= len(data):
        raise DeltaError("truncated wire bytes: value expected")
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"f":
        if pos + 8 > len(data):
            raise DeltaError("truncated wire bytes: float payload")
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag in (b"i", b"s", b"b", b"P", b"t"):
        if pos + 4 > len(data):
            raise DeltaError("truncated wire bytes: length header")
        (length,) = _LEN.unpack_from(data, pos)
        pos += 4
        if tag == b"t":
            items = []
            for _ in range(length):
                item, pos = _decode_at(data, pos)
                items.append(item)
            return tuple(items), pos
        if pos + length > len(data):
            raise DeltaError("truncated wire bytes: payload")
        raw = data[pos:pos + length]
        pos += length
        if tag == b"i":
            return int.from_bytes(raw, "big", signed=True), pos
        if tag == b"s":
            try:
                return raw.decode("utf-8"), pos
            except UnicodeDecodeError as exc:
                raise DeltaError(f"corrupt wire bytes: {exc}") from None
        if tag == b"b":
            return raw, pos
        try:
            return pickle.loads(raw), pos
        except Exception as exc:  # noqa: BLE001 - any unpickling failure is corruption
            raise DeltaError(f"corrupt pickled wire payload: {exc!r}") from None
    raise DeltaError(f"unknown wire tag {tag!r} at offset {pos - 1}")


def decode_wire_value(data: bytes) -> object:
    """Inverse of :func:`encode_wire_value`; rejects trailing bytes."""
    value, pos = _decode_at(bytes(data), 0)
    if pos != len(data):
        raise DeltaError(f"{len(data) - pos} trailing bytes after wire value")
    return value


def _freeze(
    mapping: Optional[Mapping[str, Iterable[Sequence[object]]]]
) -> Dict[str, Rows]:
    frozen: Dict[str, Rows] = {}
    for name, rows in (mapping or {}).items():
        rows = frozenset(tuple(row) for row in rows)
        if rows:
            frozen[name] = rows
    return frozen


class Delta:
    """An immutable set of per-relation insertions and deletions.

    Empty row sets are dropped on construction, so ``touched()`` names
    exactly the relations the delta affects.  A row may not be both inserted
    and deleted by the same delta — that is contradictory, not a no-op.
    """

    __slots__ = ("_inserted", "_deleted")

    def __init__(
        self,
        inserted: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
        deleted: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
    ):
        self._inserted = _freeze(inserted)
        self._deleted = _freeze(deleted)
        for name, rows in self._inserted.items():
            clash = rows & self._deleted.get(name, _EMPTY)
            if clash:
                raise DeltaError(
                    f"delta both inserts and deletes {sorted(clash, key=repr)[:3]} "
                    f"in relation {name!r}"
                )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def insertion(cls, relation: str, *rows: Sequence[object]) -> "Delta":
        """A pure insertion of ``rows`` into ``relation``."""
        return cls(inserted={relation: rows})

    @classmethod
    def deletion(cls, relation: str, *rows: Sequence[object]) -> "Delta":
        """A pure deletion of ``rows`` from ``relation``."""
        return cls(deleted={relation: rows})

    @classmethod
    def from_databases(cls, old: "Database", new: "Database") -> "Delta":
        """The exact difference ``new - old`` (both over the same schema)."""
        if old.schema != new.schema:
            raise DeltaError("databases have different schemas")
        inserted: Dict[str, Rows] = {}
        deleted: Dict[str, Rows] = {}
        for name in old.schema.relation_names:
            before, after = old.relation(name), new.relation(name)
            if before is after:
                continue
            inserted[name] = after - before
            deleted[name] = before - after
        return cls(inserted, deleted)

    @classmethod
    def between(
        cls, base: "Database", target: "Database", max_depth: int = 64
    ) -> Optional["Delta"]:
        """The delta turning ``base`` into ``target`` via provenance, if known.

        Walks ``target``'s ``apply_delta`` ancestry looking for ``base`` *by
        identity* and composes the recorded per-step deltas — O(total delta),
        never O(database).  Returns ``None`` when the chain does not reach
        ``base`` (garbage-collected parent, unrelated database, or a
        construction path that did not go through ``apply_delta``); callers
        then fall back to :meth:`from_databases`.
        """
        if target is base:
            return cls()
        current = target
        to_target: Optional["Delta"] = None
        for _ in range(max_depth):
            link = current.provenance_step()
            if link is None:
                return None
            parent, step = link
            to_target = step if to_target is None else step.then(to_target)
            if parent is base:
                return to_target
            current = parent
        return None

    # -- accessors --------------------------------------------------------------

    @property
    def inserted(self) -> Mapping[str, Rows]:
        return self._inserted

    @property
    def deleted(self) -> Mapping[str, Rows]:
        return self._deleted

    def touched(self) -> FrozenSet[str]:
        """The names of relations this delta affects."""
        return frozenset(self._inserted) | frozenset(self._deleted)

    # -- wire form --------------------------------------------------------------

    #: bump when the wire layout below changes incompatibly
    WIRE_VERSION = "delta/1"

    def to_wire(self) -> Tuple:
        """A versioned, deterministic, plain-tuple form for logs.

        Deltas pickle fine as objects, but the wire form is what the
        durable log records: no class reference, a version tag for
        forward compatibility, and deterministic ordering (relations and
        rows sorted) so equal deltas serialize identically.
        """
        def _rows(rows: Rows) -> Tuple[Row, ...]:
            return tuple(sorted(rows, key=repr))

        return (
            self.WIRE_VERSION,
            tuple(
                (name, _rows(rows)) for name, rows in sorted(self._inserted.items())
            ),
            tuple(
                (name, _rows(rows)) for name, rows in sorted(self._deleted.items())
            ),
        )

    @classmethod
    def from_wire(cls, wire: Tuple) -> "Delta":
        """Rebuild a delta from :meth:`to_wire` output (round-trip equal)."""
        if not (
            isinstance(wire, tuple)
            and len(wire) == 3
            and wire[0] == cls.WIRE_VERSION
        ):
            raise DeltaError(f"not a {cls.WIRE_VERSION} wire value: {wire!r:.80}")
        return cls(
            inserted={name: rows for name, rows in wire[1]},
            deleted={name: rows for name, rows in wire[2]},
        )

    def to_bytes(self) -> bytes:
        """Canonical bytes of :meth:`to_wire` — the durable-log record payload.

        Equal deltas produce identical bytes (the wire form sorts relations
        and rows, the encoding is canonical), which is what lets the WAL
        layer CRC-guard records and compare them across processes.
        """
        return encode_wire_value(self.to_wire())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Delta":
        """Rebuild a delta from :meth:`to_bytes` output (round-trip equal).

        Raises :class:`DeltaError` on truncated, trailing or otherwise
        malformed bytes — the framing layer's contract is *reject, never
        misparse*: recovery stops at the last valid record instead of
        replaying garbage.
        """
        wire = decode_wire_value(data)
        if not isinstance(wire, tuple):
            raise DeltaError(f"wire bytes decode to {type(wire).__name__}, not a tuple")
        try:
            return cls.from_wire(wire)
        except DeltaError:
            raise
        except (TypeError, ValueError) as exc:
            raise DeltaError(f"malformed delta wire structure: {exc!r}") from None

    def rows_in(self, relation: str) -> Rows:
        """Every row this delta touches (inserts or deletes) in ``relation``."""
        return self._inserted.get(relation, _EMPTY) | self._deleted.get(
            relation, _EMPTY
        )

    def overlapping_rows(self, other: "Delta") -> Dict[str, Rows]:
        """Per relation, the rows touched by both ``self`` and ``other``.

        This is the write-write conflict witness of optimistic concurrency
        control: two transactions whose deltas share a touched row cannot both
        commit against the same base state without one clobbering the other.
        Only relations with a non-empty intersection appear in the result.
        """
        common: Dict[str, Rows] = {}
        for name in self.touched() & other.touched():
            shared = self.rows_in(name) & other.rows_in(name)
            if shared:
                common[name] = shared
        return common

    def overlaps(self, other: "Delta") -> bool:
        """Do the two deltas touch a common row in some relation?

        The cheap boolean form of :meth:`overlapping_rows` — O(min(|self|,
        |other|)) set intersections over the commonly-touched relations.
        """
        for name in self.touched() & other.touched():
            if self.rows_in(name) & other.rows_in(name):
                return True
        return False

    def is_empty(self) -> bool:
        return not self._inserted and not self._deleted

    def __len__(self) -> int:
        """Total number of tuple insertions plus deletions."""
        return sum(len(r) for r in self._inserted.values()) + sum(
            len(r) for r in self._deleted.values()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._inserted == other._inserted and self._deleted == other._deleted

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._inserted.items()),
                frozenset(self._deleted.items()),
            )
        )

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.touched()):
            ins = len(self._inserted.get(name, _EMPTY))
            dels = len(self._deleted.get(name, _EMPTY))
            parts.append(f"{name}:+{ins}/-{dels}")
        return f"Delta({', '.join(parts)})"

    # -- algebra ----------------------------------------------------------------

    def inverse(self) -> "Delta":
        """The delta that undoes this one (valid for normalized deltas)."""
        return Delta(inserted=self._deleted, deleted=self._inserted)

    def then(self, later: "Delta") -> "Delta":
        """Compose: the net effect of applying ``self`` and then ``later``.

        Both deltas must be *effective* (normalized) relative to the states
        they were applied to — the invariant every delta produced by
        ``apply_delta`` or the store's write log satisfies.
        """
        inserted: Dict[str, Rows] = {}
        deleted: Dict[str, Rows] = {}
        for name in self.touched() | later.touched():
            ins1 = self._inserted.get(name, _EMPTY)
            del1 = self._deleted.get(name, _EMPTY)
            ins2 = later._inserted.get(name, _EMPTY)
            del2 = later._deleted.get(name, _EMPTY)
            inserted[name] = (ins1 - del2) | (ins2 - del1)
            deleted[name] = (del1 - ins2) | (del2 - ins1)
        return Delta(inserted, deleted)

    def normalized(self, db: "Database") -> "Delta":
        """The effective part of this delta relative to ``db``.

        Validates relation names and tuple arities against the schema, drops
        insertions of rows already present and deletions of rows absent, and
        returns a delta whose insertions are disjoint from ``db`` and whose
        deletions are a subset of it (the invariant ``apply_delta`` relies
        on).  Cost is O(|delta|).
        """
        schema = db.schema
        unknown = self.touched() - set(schema.relation_names)
        if unknown:
            raise DeltaError(f"relations {sorted(unknown)} are not part of the schema")
        inserted: Dict[str, Rows] = {}
        deleted: Dict[str, Rows] = {}
        changed = False
        for name, rows in self._inserted.items():
            rel_schema = schema[name]
            rows = frozenset(rel_schema.validate_tuple(row) for row in rows)
            effective = rows - db.relation(name)
            if effective != self._inserted[name]:
                changed = True
            if effective:
                inserted[name] = effective
        for name, rows in self._deleted.items():
            rel_schema = schema[name]
            rows = frozenset(rel_schema.validate_tuple(row) for row in rows)
            effective = rows & db.relation(name)
            if effective != self._deleted[name]:
                changed = True
            if effective:
                deleted[name] = effective
        if not changed:
            return self
        return Delta(inserted, deleted)

    # -- domain bookkeeping ------------------------------------------------------

    def occurrence_delta(self) -> Dict[object, int]:
        """Net change in the number of occurrences of each domain value."""
        occurrences: Dict[object, int] = {}
        for rows in self._inserted.values():
            for row in rows:
                for value in row:
                    occurrences[value] = occurrences.get(value, 0) + 1
        for rows in self._deleted.values():
            for row in rows:
                for value in row:
                    occurrences[value] = occurrences.get(value, 0) - 1
        return occurrences
