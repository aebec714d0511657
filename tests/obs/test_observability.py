"""TransactionService.observability(): one merged snapshot of every surface."""

import pytest

from repro.db import Database
from repro.obs import metrics
from repro.service import build_service


@pytest.fixture
def restore_registry():
    yield
    metrics.configure("on")


def _drive(service):
    service.execute(
        lambda txn: txn.insert("E", (3, 4)),
        template="link-forward", params=(3, 4),
    )
    service.execute(lambda txn: txn.contains("E", (1, 2)))
    service.execute(lambda txn: txn.insert("E", (9, 9)))  # aborted: loop


class TestObservability:
    def test_merged_sections(self, restore_registry):
        metrics.configure("on")
        service = build_service(Database.graph([(1, 2), (2, 3)]))
        try:
            _drive(service)
            view = service.observability()
            assert set(view) == {
                "service", "admission", "backend", "store", "metrics", "trace",
                "settings",
            }
            assert view["service"] == service.stats.as_dict()
            assert view["service"]["submitted"] == 3
            assert view["admission"]["templates"] >= 1
            assert "plans" in view["backend"]
            assert view["store"]["transactions"]["committed"] >= 1
            assert view["store"]["engine"]["engine"] in ("memory", "wal")
            assert view["metrics"]["service.submitted"] >= 3
            # tracing may be on via REPRO_TRACE in some CI legs
            assert set(view["trace"]) == {"enabled", "finished_spans"}
            if not view["trace"]["enabled"]:
                assert view["trace"]["finished_spans"] == 0
        finally:
            service.close()

    def test_registry_mirrors_service_counters(self, restore_registry):
        registry = metrics.configure("on")
        service = build_service(Database.graph([(1, 2), (2, 3)]))
        try:
            _drive(service)
            snap = registry.snapshot()
            stats = service.stats.as_dict()
            assert snap["service.submitted"] == stats["submitted"]
            assert snap["service.committed"] == stats["committed"]
            assert snap["service.aborted"] == stats["aborted"]
            assert (
                snap["service.admission.runtime_full_checks"]
                == stats["runtime_full_checks"]
            )
            assert snap["service.commit.batches"] == stats["batches"]
            batch_hist = snap["service.commit.batch_size"]
            assert batch_hist["count"] == stats["batches"]
            assert batch_hist["sum"] == stats["batched_commits"]
            assert snap["service.commit.max_batch"] == stats["max_batch"]
            # validation only runs against a non-empty foreign delta, so the
            # counter may not exist in an uncontended run
            assert snap.get("service.validate.checks", 0) >= 0
            assert snap["store.committed"] >= 1
            assert snap["storage.batches"] >= 1
        finally:
            service.close()

    def test_off_mode_leaves_the_merged_view_usable(self, restore_registry):
        metrics.configure("off")
        service = build_service(Database.graph([(1, 2), (2, 3)]))
        try:
            _drive(service)
            view = service.observability()
            assert view["metrics"] == {}
            assert view["service"]["submitted"] == 3
        finally:
            service.close()
