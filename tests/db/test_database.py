"""Tests for the immutable Database value object."""

import gc

import pytest

from repro.db import Database, DatabaseError, Delta, GRAPH_SCHEMA, Schema, random_graph

LEDGER = Schema.of(Account=1, Owner=2, Balance=2)


def ledger(accounts=10) -> Database:
    return Database(
        LEDGER,
        {
            "Account": [(i,) for i in range(accounts)],
            "Owner": [(i, f"u{i}") for i in range(accounts)],
            "Balance": [(i, 100 * i) for i in range(accounts)],
        },
    )


class TestConstruction:
    def test_empty(self):
        db = Database.empty()
        assert db.is_empty()
        assert db.active_domain == frozenset()
        assert db.cardinality() == 0

    def test_graph_constructor(self):
        db = Database.graph([(1, 2), (2, 3)])
        assert db.edges == frozenset({(1, 2), (2, 3)})
        assert db.nodes == frozenset({1, 2, 3})

    def test_unknown_relation_rejected(self):
        with pytest.raises(DatabaseError):
            Database(GRAPH_SCHEMA, {"R": [(1,)]})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(Exception):
            Database(GRAPH_SCHEMA, {"E": [(1, 2, 3)]})

    def test_duplicate_tuples_collapse(self):
        db = Database.graph([(1, 2), (1, 2)])
        assert db.cardinality("E") == 1

    def test_multi_relation_schema(self):
        schema = Schema.of(E=2, Account=2)
        db = Database(schema, {"E": [(1, 2)], "Account": [("alice", 10)]})
        assert db.cardinality() == 2
        assert db.active_domain == frozenset({1, 2, "alice", 10})


class TestAccessors:
    def test_contains(self):
        db = Database.graph([(1, 2)])
        assert db.contains("E", (1, 2))
        assert not db.contains("E", (2, 1))

    def test_getitem(self):
        db = Database.graph([(1, 2)])
        assert db["E"] == frozenset({(1, 2)})
        with pytest.raises(DatabaseError):
            db["Missing"]

    def test_degrees(self):
        db = Database.graph([(1, 2), (1, 3), (2, 3)])
        assert db.out_degree(1) == 2
        assert db.in_degree(3) == 2
        assert db.successors(1) == frozenset({2, 3})
        assert db.predecessors(3) == frozenset({1, 2})

    def test_iteration_yields_facts(self):
        db = Database.graph([(1, 2), (0, 1)])
        facts = list(db)
        assert ("E", (0, 1)) in facts
        assert ("E", (1, 2)) in facts
        assert len(facts) == 2

    def test_len(self):
        assert len(Database.graph([(1, 2), (2, 1)])) == 2


class TestFunctionalUpdates:
    def test_insert_returns_new_database(self):
        db = Database.graph([(1, 2)])
        db2 = db.insert("E", (2, 3))
        assert db.cardinality("E") == 1
        assert db2.cardinality("E") == 2
        assert db2.contains("E", (2, 3))

    def test_delete(self):
        db = Database.graph([(1, 2), (2, 3)])
        db2 = db.delete("E", (1, 2))
        assert db2.edges == frozenset({(2, 3)})
        assert db.cardinality("E") == 2

    def test_with_relation(self):
        db = Database.graph([(1, 2)])
        db2 = db.with_relation("E", [(5, 6)])
        assert db2.edges == frozenset({(5, 6)})

    def test_map_domain(self):
        db = Database.graph([(1, 2), (2, 3)])
        renamed = db.map_domain({1: "a", 2: "b", 3: "c"})
        assert renamed.edges == frozenset({("a", "b"), ("b", "c")})

    def test_map_domain_partial(self):
        db = Database.graph([(1, 2)])
        renamed = db.map_domain({1: 9})
        assert renamed.edges == frozenset({(9, 2)})

    def test_restrict_domain(self):
        db = Database.graph([(1, 2), (2, 3), (3, 1)])
        restricted = db.restrict_domain({1, 2})
        assert restricted.edges == frozenset({(1, 2)})

    def test_union_and_difference(self):
        a = Database.graph([(1, 2)])
        b = Database.graph([(2, 3)])
        assert a.union(b).edges == frozenset({(1, 2), (2, 3)})
        assert a.union(b).difference(b).edges == frozenset({(1, 2)})

    def test_union_schema_mismatch(self):
        a = Database.graph([(1, 2)])
        other = Database(Schema.of(R=1), {"R": [(1,)]})
        with pytest.raises(DatabaseError):
            a.union(other)

    UPDATES = {
        "insert": lambda db: db.insert("E", (3, 4)),
        "delete": lambda db: db.delete("E", (1, 2)),
        "with_relation": lambda db: db.with_relation("E", [(1, 2), (5, 6)]),
        "union": lambda db: db.union(Database.graph([(7, 8)])),
        "difference": lambda db: db.difference(Database.graph([(2, 3)])),
    }

    @pytest.mark.parametrize("update", sorted(UPDATES))
    def test_every_update_records_its_receiver_and_exact_delta(self, update):
        db = Database.graph([(1, 2), (2, 3)])
        child = self.UPDATES[update](db)
        parent, delta = child.delta_base()
        assert parent is db
        assert delta == Delta.from_databases(db, child)
        assert db.apply_delta(delta) == child

    def test_updates_on_one_relation_track_totals_and_domain(self):
        db = ledger(4)
        assert db.cardinality() == 12
        child = db.insert("Owner", (3, "u9")).delete("Account", (0,))
        assert child.cardinality("Owner") == 5
        assert child.cardinality("Account") == 3
        assert child.cardinality() == 12
        assert "u9" in child.active_domain
        # 0 still occurs in Owner and Balance
        assert 0 in child.active_domain
        assert child.relation("Balance") is db.relation("Balance")

    def test_restrict_domain_filters_every_relation(self):
        restricted = ledger(10).restrict_domain(list(range(10)) + ["u1", "u2"])
        assert restricted.relation("Account") == {(i,) for i in range(10)}
        assert restricted.relation("Owner") == {(1, "u1"), (2, "u2")}
        # 100 * i lies in the kept set for i == 0 only
        assert restricted.relation("Balance") == {(0, 0)}

    def test_map_domain_then_its_inverse_restores_the_database(self):
        db = ledger(6)
        renaming = {value: ("v", index) for index, value in enumerate(
            sorted(db.active_domain, key=repr)
        )}
        renamed = db.map_domain(renaming)
        assert renamed.cardinality() == db.cardinality()
        assert renamed.active_domain.isdisjoint(db.active_domain)
        inverse = {image: value for value, image in renaming.items()}
        assert renamed.map_domain(inverse) == db


class TestIndexes:
    def test_composite_index_groups_rows_by_both_columns(self):
        db = Database.graph([(1, 2), (1, 3), (2, 3)])
        index = db.index("E", (0, 1))
        assert len(index) == 3
        assert index[(1, 3)] == ((1, 3),)
        assert (3, 1) not in index

    def test_index_columns_out_of_range_rejected(self):
        db = Database.graph([(1, 2)])
        with pytest.raises(DatabaseError, match="out of range"):
            db.index("E", 2)
        with pytest.raises(DatabaseError, match="out of range"):
            db.index("E", (0, -1))

    def test_index_of_an_unknown_relation_rejected(self):
        with pytest.raises(DatabaseError):
            Database.graph([(1, 2)]).index("R", 0)


class TestContentIdentity:
    def test_equal_content_hashes_alike_whatever_the_history(self):
        target = random_graph(20, 0.4, seed=3)
        assert len(target.edges) > 64  # enough rows that patches partition E
        built = Database.empty()
        hash(built)  # every successor patches the content hash
        for edge in sorted(target.edges):
            built = built.insert("E", edge)
        extra = Database.graph([(100, 101), (101, 102)])
        detour = target.union(extra).difference(extra)
        for db in (built, detour):
            assert db == target
            assert hash(db) == hash(target)
            assert db.canonical_key() == target.canonical_key()
            assert db.active_domain == target.active_domain

    def test_successor_outlives_its_parent(self):
        parent = random_graph(20, 0.4, seed=5)
        parent.index("E", 0)
        hash(parent)
        parent.active_domain
        child = parent.insert("E", (0, 99))
        expected = Database.graph(set(parent.edges) | {(0, 99)})
        del parent
        gc.collect()
        assert child.delta_base() is None
        assert child == expected
        assert hash(child) == hash(expected)
        assert child.successors(0) == expected.successors(0)
        assert child.active_domain == expected.active_domain


class TestEqualityAndIsomorphism:
    def test_equality(self):
        assert Database.graph([(1, 2)]) == Database.graph([(1, 2)])
        assert Database.graph([(1, 2)]) != Database.graph([(2, 1)])

    def test_hashable(self):
        graphs = {Database.graph([(1, 2)]), Database.graph([(1, 2)]), Database.graph([])}
        assert len(graphs) == 2

    def test_isomorphic_chains(self):
        a = Database.graph([(1, 2), (2, 3)])
        b = Database.graph([("x", "y"), ("y", "z")])
        assert a.is_isomorphic(b)

    def test_not_isomorphic(self):
        a = Database.graph([(1, 2), (2, 3)])
        b = Database.graph([(1, 2), (3, 2)])
        assert not a.is_isomorphic(b)

    def test_empty_isomorphic(self):
        assert Database.empty().is_isomorphic(Database.empty())
