"""The persistent partitioned row set: equal to a rebuild, persistent, shared.

``RowSet`` is the one representation of rows carried from state to state:
``Database`` relations.
What carries the update path's cost claim is structural, not a timing:

* patched through any stream it equals the rebuilt set at every step, and
  its predecessors keep reading their own rows (a set is partitioned by the
  first patch that finds it outgrown — in place, the rows unchanged);
* a single-row patch of a large set shares all but one partition with its
  parent *by identity*;
* everywhere a set is read it is the ``frozenset`` of its rows: equality,
  hash, ordering and the binary operators in both operand orders, across
  partition boundaries and pickling.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Database, Delta
from repro.db.delta import RowSet, _outgrown

from strategies import maybe_seed

rows = st.tuples(st.integers(0, 60), st.integers(0, 60))
row_sets = st.frozensets(rows, max_size=300)  # both sides of the one-partition floor


def partitions(row_set: RowSet) -> int:
    return len(row_set._parts)


def partitioned(contents) -> RowSet:
    """``contents`` over the table a patch gives it (one partition if small)."""
    row_set = RowSet.of(contents)
    row_set.patched([(99, 99)], ())  # partitions an outgrown set in place
    assert not _outgrown(len(row_set), partitions(row_set))
    return row_set


class TestAgainstRebuild:
    @maybe_seed
    @given(
        row_sets,
        st.lists(
            st.tuples(st.frozensets(rows, max_size=40), st.frozensets(rows, max_size=40)),
            max_size=8,
        ),
    )
    def test_patched_equals_rebuilt_and_predecessors_persist(self, start, steps):
        current, model = RowSet.of(start), start
        history = [(current, model)]
        for added, removed in steps:
            current, model = current.patched(added, removed), (model - removed) | added
            history.append((current, model))
            assert current == model and len(current) == len(model)
            assert frozenset(current) == model
            assert sum(len(part) for part in current._parts) == len(model)
        for seen, expected in history:  # no later patch changed an earlier set's rows
            assert frozenset(seen) == expected and seen == expected
            assert sum(len(part) for part in seen._parts) == len(expected)
        for (parent, _expected), (added, removed) in zip(history, steps):
            if added or removed:  # an effective patch leaves its parent partitioned
                assert not _outgrown(len(parent), partitions(parent))

    def test_growth_repartitions_without_changing_contents(self):
        current, model, tables = RowSet.of(()), set(), set()
        for value in range(1100):
            parent, current = current, current.patched([(value, value + 1)], ())
            model.add((value, value + 1))
            tables.add(partitions(current))
            assert not _outgrown(len(parent), partitions(parent))
        assert current == model
        assert tables == {1, 8, 16, 32}

    def test_a_set_is_partitioned_once_for_all_its_successors(self):
        parent = RowSet.of((value, value) for value in range(500))
        whole = parent._parts
        assert partitions(parent) == 1  # never patched: still the frozenset it wrapped
        first = parent.patched([(1, 2)], ())
        table = parent._parts
        assert len(table) > 1 and parent == frozenset(whole[0]) and len(parent) == 500
        second = parent.patched((), [(3, 3)])  # a rolled-back parent's second child
        assert parent._parts is table
        for child in (first, second):
            assert sum(1 for old, new in zip(table, child._parts) if old is not new) == 1

    def test_noop_patch_returns_self_and_of_is_idempotent(self):
        row_set = RowSet.of({(0, 1)})
        assert row_set.patched((), ()) is row_set
        assert RowSet.of(row_set) is row_set
        # absent rows leave, present rows join: the size stays exact
        assert len(row_set.patched([(0, 1)], [(5, 5)])) == 1

    def test_one_partition_hands_out_the_frozenset_itself(self):
        small = frozenset({(0, 1), (1, 2)})
        assert RowSet.of(small).plain() is small
        large = RowSet.of((value, value) for value in range(500))
        assert large.plain() is large._parts[0]  # whole until a patch partitions it
        large.patched([(1, 2)], ())
        assert partitions(large) > 1 and large.plain() is large


class TestStructuralSharing:
    def test_single_row_patch_shares_all_but_one_partition_by_identity(self):
        parent = RowSet.of((a, (a * 7 + j) % 5000) for a in range(5000) for j in range(10))
        children = (parent.patched([(17, 6001)], ()), parent.patched((), [(0, 0)]))
        assert len(parent) == 50_000 and partitions(parent) > 32
        for child in children:
            assert partitions(child) == partitions(parent)
            copied = [
                slot for slot, (old, new) in enumerate(zip(parent._parts, child._parts))
                if old is not new
            ]
            assert len(copied) == 1
            assert abs(len(child) - len(parent)) == 1
        assert len(parent) == 50_000 and (0, 0) in parent and (17, 6001) not in parent


class TestConcurrentReaders:
    def test_readers_see_every_row_while_writers_partition_the_set(self):
        """A set is partitioned in place by its first patch; service workers
        read and patch one committed snapshot at once.  Whatever table a
        reader catches, it holds exactly the set's rows."""
        import sys
        import threading

        contents = frozenset((value, value * 3) for value in range(4000))
        probes = sorted(contents)[::7]
        failures, deadline = [], threading.Event()

        def read(shared: RowSet) -> None:
            while not deadline.is_set():
                if not all(row in shared for row in probes) or (0, 1) in shared:
                    failures.append("membership")
                if sum(1 for _ in shared) != 4000 or shared != contents:
                    failures.append("contents")

        def write(shared: RowSet, worker: int) -> None:
            child = shared.patched([(worker, -1)], [(worker, worker * 3)])
            if len(child) != 4000 or (worker, -1) not in child:
                failures.append("patched")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(20):
                shared = RowSet.of(contents)  # whole: the first patch partitions it
                readers = [threading.Thread(target=read, args=(shared,)) for _ in range(3)]
                writers = [
                    threading.Thread(target=write, args=(shared, n)) for n in range(4)
                ]
                deadline.clear()
                for thread in readers + writers:
                    thread.start()
                for thread in writers:
                    thread.join(timeout=30)
                deadline.set()
                for thread in readers:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in readers + writers)
                assert partitions(shared) > 1 and shared == contents
        finally:
            sys.setswitchinterval(interval)
        assert not failures


class TestReadsAsTheFrozenset:
    @maybe_seed
    @given(row_sets, row_sets)
    def test_operators_agree_with_frozenset_in_both_operand_orders(self, left, right):
        a, b = partitioned(left), partitioned(right)
        whole = RowSet.of(right)  # never patched: one partition whatever its size
        for x, y, was_x, was_y in (
            (a, right, left, right), (left, b, left, right), (a, b, left, right),
            (a, whole, left, right), (whole, a, right, left),
        ):
            assert (x == y) == (was_x == was_y) and (x != y) == (was_x != was_y)
            assert (x <= y) == (was_x <= was_y) and (x >= y) == (was_x >= was_y)
            assert (x < y) == (was_x < was_y) and (x > y) == (was_x > was_y)
            assert x & y == was_x & was_y
            assert x | y == was_x | was_y
            assert x - y == was_x - was_y
            assert x ^ y == was_x ^ was_y
            assert x.isdisjoint(y) == was_x.isdisjoint(was_y)
            assert type(x & y) is type(x | y) is type(x - y) is frozenset
        assert hash(a) == hash(left)
        assert a == set(left) and not a == sorted(left)
        assert all(row in a for row in left) and (99, 99) not in a
        assert sorted(a) == sorted(left) and len(a) == len(left)
        assert bool(a) == bool(left)

    def test_equal_sets_with_different_tables_are_equal(self):
        grown = RowSet.of(())
        for value in range(70):  # one partition that outgrew itself once
            grown = grown.patched([(value, 0)], ())
        built = RowSet.of((value, 0) for value in range(300)).patched(
            (), [(value, 0) for value in range(70, 300)]
        )
        assert 1 < partitions(grown) < partitions(built)
        assert grown == built and built == grown and hash(grown) == hash(built)
        assert grown <= built <= grown

    @maybe_seed
    @given(row_sets)
    def test_pickle_round_trip(self, contents):
        row_set = partitioned(contents)
        copy = pickle.loads(pickle.dumps(row_set))
        assert isinstance(copy, RowSet) and copy == row_set == contents
        assert copy.patched([(61, 61)], ()) == contents | {(61, 61)}

    def test_there_is_no_mutation_surface(self):
        row_set = RowSet.of({(0, 1)})
        for name in ("add", "discard", "remove", "update", "clear"):
            assert not hasattr(row_set, name)
        with pytest.raises(AttributeError):
            row_set.extra = 1


class TestDatabaseOnRowSets:
    def stream(self):
        db = Database.graph((a, (a * 3 + j) % 700) for a in range(700) for j in range(4))
        yield db
        for step in range(12):
            db = db.apply_delta(
                Delta(
                    inserted={"E": [(step, 900 + step), (900 + step, step)]},
                    deleted={"E": [(step, (step * 3) % 700)]},
                )
            )
            yield db

    def test_patched_database_reads_as_a_rebuilt_one(self):
        states = list(self.stream())
        for db in states:
            relation = db.relation("E")
            if db is not states[-1]:  # partitioned by the patch that made its successor
                assert isinstance(relation, RowSet) and partitions(relation) > 1
            rebuilt = Database.graph(sorted(relation))
            assert db == rebuilt and rebuilt == db
            assert hash(db) == hash(rebuilt)
            assert db.canonical_key() == rebuilt.canonical_key()
            assert db.active_domain == rebuilt.active_domain
            assert db.relations() == rebuilt.relations()
        # the predecessors were not written into
        assert len(states[0].relation("E")) == 2800
        assert Delta.from_databases(states[0], states[-1]) == Delta.between(
            states[0], states[-1]
        )

    def test_successor_shares_untouched_partitions_with_its_parent(self):
        states = list(self.stream())
        parent, child = states[0]._relations["E"], states[1]._relations["E"]
        copied = sum(1 for old, new in zip(parent._parts, child._parts) if old is not new)
        assert 1 <= copied <= 3 < partitions(parent)

    def test_small_or_never_patched_relation_is_a_real_frozenset(self):
        db = Database.graph([(0, 1), (1, 2)])
        assert type(db.relation("E")) is frozenset
        assert type(db.insert("E", (2, 3)).relation("E")) is frozenset
        assert type(next(self.stream()).relation("E")) is frozenset
