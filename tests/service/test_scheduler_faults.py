"""Commit-path failures through the scheduler: typed aborts, retry, deadline.

The regression at the heart of this file: a storage-engine failure during
the group-commit apply used to escape as a raw exception from the leader's
``execute`` call.  Now it surfaces as a **typed retryable abort** on every
transaction in the batch — leader and followers alike — with the store
unmutated and all follower threads released.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.db import Database
from repro.db.engines import StorageEngineError
from repro.service import ServiceError, build_service
from repro.service.scheduler import classify_commit_error


@pytest.fixture(autouse=True)
def clean_hooks():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def service():
    svc = build_service(Database.graph([(1, 2), (2, 3)]))
    yield svc
    svc.close()


def add_edge(src, dst):
    return lambda txn: txn.insert("E", (src, dst))


class TestTypedAborts:
    def test_commit_fault_is_a_typed_retryable_abort(self, service):
        service.commit_retries = 0  # surface the failure, no internal retry
        version_before = service.store.version
        faults.install(faults.FaultPlan().site("storage.commit_batch", exc="storage"))
        outcome = service.execute(add_edge(3, 4), template="link-forward", params=(3, 4))
        assert outcome.status == "aborted"
        assert outcome.retryable is True
        assert "commit failed" in outcome.reason
        assert service.store.version == version_before
        assert (3, 4) not in service.snapshot().relation("E")
        assert service.stats.commit_failures >= 1

        # the service survives: with the fault gone the same work commits
        faults.uninstall()
        outcome = service.execute(add_edge(3, 4), template="link-forward", params=(3, 4))
        assert outcome.committed

    def test_injected_fault_default_kind_is_also_retryable(self, service):
        service.commit_retries = 0
        faults.install(faults.FaultPlan().site("storage.commit_batch"))
        outcome = service.execute(add_edge(3, 4), template="link-forward", params=(3, 4))
        assert outcome.status == "aborted"
        assert outcome.retryable is True

    def test_followers_are_released_with_typed_aborts(self, service):
        service.commit_retries = 0
        faults.install(faults.FaultPlan().site("storage.commit_batch", exc="storage"))
        outcomes = {}

        def run(i):
            outcomes[i] = service.execute(
                add_edge(10 + i, 11 + i),
                template="link-forward", params=(10 + i, 11 + i),
            )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads), "follower leaked"
        assert len(outcomes) == 6
        for outcome in outcomes.values():
            assert outcome.status == "aborted"
            assert outcome.retryable is True
        assert service.snapshot().relation("E") == frozenset({(1, 2), (2, 3)})


class TestTransientRetry:
    def test_transient_fault_is_retried_to_success(self, service):
        faults.install(
            faults.FaultPlan().site("storage.commit_batch", exc="storage", hits=(1,))
        )
        outcome = service.execute(add_edge(3, 4), template="link-forward", params=(3, 4))
        assert outcome.committed
        assert service.stats.transient_retries >= 1
        assert (3, 4) in service.snapshot().relation("E")

    def test_retry_budget_exhaustion_aborts(self, service):
        service.commit_retries = 2
        faults.install(faults.FaultPlan().site("storage.commit_batch", exc="storage"))
        outcome = service.execute(add_edge(3, 4), template="link-forward", params=(3, 4))
        assert outcome.status == "aborted"
        assert outcome.retryable is True
        assert service.stats.transient_retries == 2

    def test_transient_retries_do_not_force_serial_fallback(self, service):
        # a transaction that needed transient retries must not burn its
        # optimistic budget: serial fallback keys on conflict attempts only
        faults.install(
            faults.FaultPlan().site("storage.commit_batch", exc="storage", hits=(1, 2))
        )
        outcome = service.execute(add_edge(3, 4), template="link-forward", params=(3, 4))
        assert outcome.committed
        assert service.stats.serial_fallbacks == 0


class TestDeadline:
    def test_expired_deadline_raises_service_error(self, service):
        with pytest.raises(ServiceError):
            service.execute(
                add_edge(3, 4),
                template="link-forward", params=(3, 4),
                deadline=time.monotonic() - 0.001,
            )

    def test_deadline_bounds_transient_retries(self, service):
        service.commit_retries = 50
        faults.install(faults.FaultPlan().site("storage.commit_batch", exc="storage"))
        begun = time.monotonic()
        try:
            outcome = service.execute(
                add_edge(3, 4),
                template="link-forward", params=(3, 4),
                deadline=begun + 0.2,
            )
            assert outcome.status == "aborted"
        except ServiceError:
            pass  # deadline cut the loop before an outcome — also valid
        assert time.monotonic() - begun < 5.0

    def test_generous_deadline_commits_normally(self, service):
        outcome = service.execute(
            add_edge(3, 4),
            template="link-forward", params=(3, 4),
            deadline=time.monotonic() + 30.0,
        )
        assert outcome.committed


class TestLatencySites:
    def test_leader_stall_and_validate_delay_only_slow_things_down(self, service):
        faults.install(
            faults.FaultPlan()
            .site("service.leader.stall", latency=0.01, exc="none")
            .site("service.validate.delay", latency=0.01, exc="none")
        )
        outcome = service.execute(add_edge(3, 4), template="link-forward", params=(3, 4))
        assert outcome.committed


class TestKnobsAndClassifier:
    def test_classify_commit_error(self):
        assert classify_commit_error(StorageEngineError("x"))
        assert classify_commit_error(OSError(5, "io"))
        assert classify_commit_error(TimeoutError())
        assert classify_commit_error(faults.InjectedFault("site"))
        assert not classify_commit_error(ValueError("x"))
        assert not classify_commit_error(KeyError("x"))
