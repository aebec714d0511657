"""REPRO_METRICS=off must be invisible: same stats surfaces, empty registry."""

import pytest

from repro.db import Database, GRAPH_SCHEMA, Store
from repro.engine.backend import CompiledBackend
from repro.logic import parse
from repro.obs import metrics

FORMULA_TEXT = "forall x . ~E(x, x)"


@pytest.fixture
def restore_registry():
    yield
    metrics.configure("on")


def _run_backend():
    backend = CompiledBackend()
    db = Database.graph([(1, 2), (2, 3)])
    formula = parse(FORMULA_TEXT)
    backend.evaluate(formula, db)
    backend.evaluate(formula, db)
    return backend


def _run_store():
    store = Store(GRAPH_SCHEMA, Database.graph([(1, 2)]))
    store.begin()
    store.insert("E", (2, 3))
    store.commit_unchecked()
    return store


class TestOffModeParity:
    def test_cache_stats_keys_identical_on_vs_off(self, restore_registry):
        metrics.configure("on")
        on_stats = _run_backend().cache_stats()
        metrics.configure("off")
        off_stats = _run_backend().cache_stats()
        assert sorted(on_stats) == sorted(off_stats)
        assert on_stats == off_stats

    def test_storage_stats_identical_on_vs_off(self, restore_registry):
        metrics.configure("on")
        on_store = _run_store()
        metrics.configure("off")
        off_store = _run_store()
        on_stats = on_store.storage_stats()
        off_stats = off_store.storage_stats()
        # each env-selected WAL engine gets its own temp dir; that path is
        # environmental, not an on/off discrepancy
        on_stats.pop("wal_dir", None)
        off_stats.pop("wal_dir", None)
        assert on_stats == off_stats
        assert on_store.stats.committed == off_store.stats.committed

    def test_off_mode_registry_records_nothing(self, restore_registry):
        metrics.configure("off")
        _run_backend()
        _run_store()
        assert metrics.get_registry().snapshot() == {}

    def test_service_stats_keys_identical_on_vs_off(self, restore_registry):
        from repro.service.scheduler import ServiceStats

        metrics.configure("on")
        on_stats = ServiceStats()
        on_stats.add(submitted=2, committed=1)
        on_stats.saw_batch(3)
        metrics.configure("off")
        off_stats = ServiceStats()
        off_stats.add(submitted=2, committed=1)
        off_stats.saw_batch(3)
        assert on_stats.as_dict() == off_stats.as_dict()
