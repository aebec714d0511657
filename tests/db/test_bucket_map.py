"""The persistent partitioned index: equal to a rebuild, persistent, shared.

``BucketMap`` is the one ``key -> tuple-of-rows`` representation behind
``Database.index()``.  Three
properties carry the commit path's cost claim, and none of them is a timing:

* patched through any delta stream it equals a from-scratch build at every
  step (and re-partitioning on growth does not change its contents);
* every predecessor keeps reading its own contents — rollback-style
  branching resumes from the parent state;
* a child shares all but at most ``|delta|`` partitions with its parent *by
  identity*, so what a patch copies does not grow with the relation.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Database, Delta
from repro.db.delta import BucketMap, _outgrown

from strategies import graphs, maybe_seed, update_streams


def first_column(row):
    return (row[0],)


def contents(index) -> dict:
    """``key -> set of rows``: a bucket is a tuple of distinct rows, unordered."""
    held = {key: set(bucket) for key, bucket in index.items()}
    assert all(len(held[key]) == len(bucket) for key, bucket in index.items())
    return held


def rebuilt(db: Database, columns) -> dict:
    """The index a database built from scratch on the same rows would hold."""
    return contents(Database.graph(db.relation("E")).index("E", columns))


class TestAgainstRebuild:
    @maybe_seed
    @given(graphs(max_value=5, max_edges=14), update_streams(length=10, max_value=5))
    def test_patched_index_equals_rebuild_and_predecessors_persist(self, db, stream):
        columns_under_test = (0, 1, (0, 1))
        for columns in columns_under_test:
            db.index("E", columns)  # built on the root, patched from then on
        history = []
        for delta in stream:
            history.append((db, {c: contents(db.index("E", c)) for c in columns_under_test}))
            db = db.apply_delta(delta)
            for columns in columns_under_test:
                index = db.index("E", columns)
                expected = rebuilt(db, columns)
                assert contents(index) == expected
                assert len(index) == len(expected)
                for key, bucket in expected.items():
                    assert key in index and index[key] is index.get(key)
                    assert set(index[key]) == bucket
        # persistence: no later patch wrote into an earlier state's index
        for predecessor, seen in history:
            for columns in seen:
                assert contents(predecessor.index("E", columns)) == seen[columns]

    @maybe_seed
    @given(
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 40)), max_size=200, unique=True
        )
    )
    def test_growth_from_empty_repartitions_without_changing_contents(self, rows):
        index = BucketMap.build((), first_column)
        assert len(index._parts) == 1
        for row in rows:
            index = index.patched(first_column, [row], ())
        assert contents(index) == contents(BucketMap.build(rows, first_column))
        # never four times the buckets its table was sized for
        assert not _outgrown(len(index), len(index._parts))

    def test_a_small_map_is_one_partition_until_it_outgrows_it(self):
        index = BucketMap.build((), first_column)
        tables = set()
        for key in range(1100):
            index = index.patched(first_column, [(key, 0)], ())
            tables.add(len(index._parts))
            assert not _outgrown(len(index), len(index._parts))
        assert tables == {1, 8, 16, 32}

    def test_mapping_surface_is_read_only(self):
        index = BucketMap.build([(0, 1), (0, 2), (1, 2)], first_column)
        assert set(index[(0,)]) == {(0, 1), (0, 2)}
        assert index.get((9,)) is None and index.get((9,), ()) == ()
        assert (1,) in index and (9,) not in index
        assert len(index) == 2 and sorted(index) == [(0,), (1,)]
        with pytest.raises(KeyError):
            index[(9,)]
        with pytest.raises(TypeError):
            index[(9,)] = frozenset()

    def test_emptied_bucket_is_dropped_and_noop_patch_returns_self(self):
        index = BucketMap.build([(0, 1), (1, 2)], first_column)
        assert index.patched(first_column, (), ()) is index
        shrunk = index.patched(first_column, (), [(0, 1)])
        assert (0,) not in shrunk and len(shrunk) == 1
        assert (0,) in index  # the parent still reads its own bucket


class TestStructuralSharing:
    def test_child_shares_all_but_delta_partitions_by_identity(self):
        rows = [(a, (a * 7 + j) % 5000) for a in range(5000) for j in range(10)]
        db = Database.graph(rows)
        assert db.cardinality("E") == 50_000
        parent = db.index("E", 0)
        delta = Delta(
            inserted={"E": [(17, 6001), (5001, 3), (5002, 4)]},
            deleted={"E": [rows[0], rows[12_345]]},
        )
        child = db.apply_delta(delta).index("E", 0)
        assert len(child._parts) == len(parent._parts) > 32
        copied = sum(1 for old, new in zip(parent._parts, child._parts) if old is not new)
        assert 1 <= copied <= len(delta)
        assert contents(child) == rebuilt(db.apply_delta(delta), 0)
