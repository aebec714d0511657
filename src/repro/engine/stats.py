"""Incrementally-maintained relation statistics for the cost-based optimizer.

The optimizer (:mod:`repro.engine.optimize`) prices candidate plans with
cardinality estimates, and estimates need *statistics*: how big each relation
is, and how often each value occurs in each column.  This module keeps those
statistics on the database itself:

* :class:`ColumnStats` — a per-column value-frequency counter.  Because the
  counter is complete (every value, not a sample), single-column equality
  selectivities and distinct counts are exact;
* :class:`RelationStats` — cardinality plus one :class:`ColumnStats` per
  column;
* :class:`DatabaseStats` — one :class:`RelationStats` per relation, built
  lazily by :meth:`repro.db.database.Database.stats` the first time a query
  is optimized against the database.

Freshness never rescans rows: :meth:`Database.apply_delta
<repro.db.database.Database.apply_delta>` derives the successor's statistics
from the parent's via :meth:`DatabaseStats.patched` — untouched relations
share their ``RelationStats`` objects, touched relations clone-and-patch
their counters (one dict copy per column, O(distinct values), then O(|Δ|))
— so a long update stream never rebuilds statistics from scratch.  Like
every other database cache, statistics are never mutated in place:
predecessors stay valid for rollback-style branching.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

__all__ = ["ColumnStats", "RelationStats", "DatabaseStats", "size_bucket"]


def size_bucket(count: int) -> int:
    """The power-of-four bucket of a cardinality (or domain size).

    The single definition of "roughly the same size", the unit of
    :meth:`Database.size_profile <repro.db.database.Database.size_profile>`
    that keys the backend's optimized-plan cache: coarse enough to stay
    stable along realistic update streams, fine enough that join orders
    adapt when a relation changes scale.
    """
    return (int(count).bit_length() + 1) >> 1

Row = Tuple[object, ...]
Rows = FrozenSet[Row]

_EMPTY: Rows = frozenset()


class ColumnStats:
    """Value frequencies of one column of one relation.

    ``counts`` maps each value occurring in the column to the number of rows
    carrying it; the mapping is complete, so :attr:`distinct` and
    :meth:`frequency` are exact.  Instances are immutable by convention —
    :meth:`patched` clones before applying a delta.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Dict[object, int]):
        self.counts = counts

    @property
    def distinct(self) -> int:
        """Number of distinct values in the column (exact)."""
        return len(self.counts)

    def frequency(self, value: object) -> int:
        """How many rows carry ``value`` in this column (exact; 0 if absent)."""
        try:
            return self.counts.get(value, 0)
        except TypeError:  # unhashable probe value matches nothing
            return 0

    def patched(self, added: Iterable[object], removed: Iterable[object]) -> "ColumnStats":
        """A new ``ColumnStats`` with ``added``/``removed`` value occurrences applied."""
        counts = dict(self.counts)
        for value in added:
            counts[value] = counts.get(value, 0) + 1
        for value in removed:
            remaining = counts.get(value, 0) - 1
            if remaining <= 0:
                counts.pop(value, None)
            else:
                counts[value] = remaining
        return ColumnStats(counts)

    def __repr__(self) -> str:
        return f"ColumnStats(distinct={self.distinct})"


class RelationStats:
    """Cardinality and per-column statistics of one relation."""

    __slots__ = ("cardinality", "columns")

    def __init__(self, cardinality: int, columns: Tuple[ColumnStats, ...]):
        self.cardinality = cardinality
        self.columns = columns

    @classmethod
    def from_rows(cls, rows: Rows, arity: int) -> "RelationStats":
        counters: List[Dict[object, int]] = [{} for _ in range(arity)]
        for row in rows:
            for position, value in enumerate(row):
                counts = counters[position]
                counts[value] = counts.get(value, 0) + 1
        return cls(len(rows), tuple(ColumnStats(c) for c in counters))

    def column(self, position: int) -> ColumnStats:
        return self.columns[position]

    def patched(self, inserted: Rows, deleted: Rows) -> "RelationStats":
        """A new ``RelationStats`` for the relation after a (normalized) delta."""
        columns = tuple(
            stats.patched(
                (row[position] for row in inserted),
                (row[position] for row in deleted),
            )
            for position, stats in enumerate(self.columns)
        )
        return RelationStats(
            self.cardinality + len(inserted) - len(deleted), columns
        )

    def __repr__(self) -> str:
        return f"RelationStats(cardinality={self.cardinality}, arity={len(self.columns)})"


class DatabaseStats:
    """Per-relation statistics of a whole database.

    Built once per database (lazily) and carried forward through
    :meth:`~repro.db.database.Database.apply_delta` without a rescan;
    relations a delta does not touch share their ``RelationStats`` with the
    parent.
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Dict[str, RelationStats]):
        self._relations = relations

    @classmethod
    def from_database(cls, db) -> "DatabaseStats":
        relations = {
            name: RelationStats.from_rows(db.relation(name), db.schema[name].arity)
            for name in db.schema.relation_names
        }
        return cls(relations)

    def relation(self, name: str) -> RelationStats:
        return self._relations[name]

    def patched(self, delta) -> "DatabaseStats":
        """The successor database's statistics after ``delta`` (normalized)."""
        relations = dict(self._relations)
        for name in delta.touched():
            relations[name] = relations[name].patched(
                delta.inserted.get(name, _EMPTY), delta.deleted.get(name, _EMPTY)
            )
        return DatabaseStats(relations)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={stats.cardinality}" for name, stats in sorted(self._relations.items())
        )
        return f"DatabaseStats({inner})"
