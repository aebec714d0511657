"""Rows equal under Python equality are one row, whatever their spelling.

``0 == 0.0 == False``, ``1 == True``, ``2**62 == float(2**62)``, and tuples
or frozensets built from such values compare — and hash — equal.  A row
stored under one spelling must be found, indexed, deleted and recovered
under the other.  Every persistent container picks a partition by
``hash(entry) & mask``, so this holds only because equal values hash alike;
the tests pin it on partitioned tables (enough rows that the first patch
splits them), where a spelling routed to the wrong partition would go
unseen.
"""

from __future__ import annotations

import pytest

from repro.db import Database, GRAPH_SCHEMA, Store, WalStorageEngine
from repro.db.delta import RowSet
from repro.engine import CompiledBackend, NaiveBackend
from repro.logic import parse

#: (stored spelling, probe spelling) — equal and hash-equal, different types
EQUAL_SPELLINGS = [
    pytest.param(0, 0.0, id="int-float-zero"),
    pytest.param(1, True, id="int-bool-true"),
    pytest.param(0, False, id="int-bool-false"),
    pytest.param(2, 2.0, id="int-float"),
    # past 2**61 - 1, where hash(int) starts reducing modulo the prime
    pytest.param(2**62, float(2**62), id="big-int-float"),
    pytest.param((1, "a"), (1.0, "a"), id="tuple"),
    pytest.param(frozenset({1, 2}), frozenset({2.0, 1.0}), id="frozenset"),
]

#: (integer a query spells as a constant, the equal value the row stores)
NUMERIC_SPELLINGS = [
    pytest.param(0, 0.0, id="int-float-zero"),
    pytest.param(1, True, id="int-bool-true"),
    pytest.param(0, False, id="int-bool-false"),
    pytest.param(2, 2.0, id="int-float"),
    pytest.param(2**62, float(2**62), id="big-int-float"),
]

#: rows sharing no value with any spelling above, enough to partition
FILLER = [(f"n{i}", f"m{i}") for i in range(200)]


def with_row(value) -> Database:
    """``FILLER`` plus ``(value, "x")``, the relation already partitioned."""
    db = Database.graph(FILLER).insert("E", (value, "x"))
    assert isinstance(db.relation("E"), RowSet)  # more than one partition
    return db


@pytest.mark.parametrize("stored, probe", EQUAL_SPELLINGS)
def test_row_set_finds_and_removes_either_spelling(stored, probe):
    rows = RowSet.of(FILLER).patched([(stored, "x")], ())
    assert len(rows._parts) > 1
    assert (probe, "x") in rows
    # re-adding under the other spelling adds nothing
    assert len(rows.patched([(probe, "x")], ())) == len(rows)
    removed = rows.patched((), [(probe, "x")])
    assert (stored, "x") not in removed
    assert removed == frozenset(FILLER)


@pytest.mark.parametrize("stored, probe", EQUAL_SPELLINGS)
def test_index_finds_and_drops_either_spelling_of_a_key(stored, probe):
    db = with_row(stored)
    index = db.index("E", 0)
    assert len(index._parts) > 1
    assert index.get((probe,)) == ((stored, "x"),)
    assert db.successors(probe) == {"x"}
    child = db.delete("E", (probe, "x"))
    # the patched index dropped the bucket under the stored spelling
    assert (stored,) not in child.index("E", 0)
    assert child.out_degree(stored) == 0


@pytest.mark.parametrize("stored, probe", EQUAL_SPELLINGS)
def test_database_updates_under_either_spelling(stored, probe):
    db = with_row(stored)
    hash(db), db.active_domain  # so the successors patch both caches
    assert db.contains("E", (probe, "x"))
    assert db.insert("E", (probe, "x")) is db  # ineffective: already there
    emptied = db.delete("E", (probe, "x"))
    fresh = Database.graph(FILLER)
    assert emptied == fresh
    assert hash(emptied) == hash(fresh)
    assert emptied.active_domain == fresh.active_domain
    assert stored not in emptied.active_domain


@pytest.mark.parametrize("stored, probe", EQUAL_SPELLINGS)
def test_wal_replays_a_delete_under_the_other_spelling(tmp_path, stored, probe):
    store = Store(
        GRAPH_SCHEMA, Database.graph(FILLER), engine=WalStorageEngine(str(tmp_path))
    )
    store.begin()
    store.insert("E", (stored, "x"))
    store.commit_unchecked()
    store.begin()
    store.delete("E", (probe, "x"))
    store.commit_unchecked()
    assert store.version == 2
    store.engine.crash()
    with Store(GRAPH_SCHEMA, engine=WalStorageEngine(str(tmp_path))) as reborn:
        assert reborn.version == 2
        assert reborn.committed_snapshot() == Database.graph(FILLER)


@pytest.mark.parametrize("number, stored", NUMERIC_SPELLINGS)
def test_query_constants_match_the_stored_spelling(number, stored):
    formula = parse(f"E({number}, y)")
    backend = CompiledBackend()
    db = with_row(stored)
    expected = NaiveBackend().extension(formula, db, ["y"])
    assert expected == {("x",)}
    assert backend.extension(formula, db, ["y"]) == expected
    # the successor may be answered from db's state; it must lose the row
    emptied = db.delete("E", (number, "x"))
    assert backend.extension(formula, emptied, ["y"]) == frozenset()
