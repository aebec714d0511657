"""The transaction service: outcomes, group commit, retries, fail-fast."""

import threading
import time

import pytest

from repro import faults
from repro.db import Database, Delta, GRAPH_SCHEMA, Store
from repro.service import (
    ServiceError,
    TransactionService,
    TxnItem,
    build_service,
    forward_graph,
    standard_constraints,
)
from repro.service.workloads import NO_LOOPS
from repro.logic import parse
from repro.transactions import DeleteWhere, FOProgram, InsertTuple
from repro.transactions.base import TransactionAbortedSignal


@pytest.fixture
def service():
    return build_service(Database.graph([(1, 2), (2, 3)]))


def link(a, b):
    """An ``(work, template, params)`` request inserting the forward edge."""
    return (lambda txn: txn.insert("E", (a, b)), "link-forward", (a, b))


def execute(service, request):
    work, template, params = request
    return service.execute(work, template=template, params=params)


def run_as_one_batch(service, requests):
    """Queue every request behind a held commit lock, then let one leader drain.

    No leader can emerge while the lock is held, so all the requests pile up
    in the queue and are committed by one drain.  Followers block on the
    condition (no polling), so the release must notify exactly as a leader's
    does.
    """
    import time

    outcomes = [None] * len(requests)

    def client(index, request):
        outcomes[index] = execute(service, request)

    service._commit_lock.acquire()
    try:
        threads = [
            threading.Thread(target=client, args=(index, request))
            for index, request in enumerate(requests)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with service._queue_lock:
                if len(service._queue) == len(requests):
                    break
            time.sleep(0.005)
        with service._queue_lock:
            assert len(service._queue) == len(requests)
    finally:
        with service._commit_cond:
            service._commit_lock.release()
            service._commit_cond.notify_all()
    for thread in threads:
        thread.join()
    return outcomes


class TestOutcomes:
    def test_simple_commit(self, service):
        outcome = service.execute(
            lambda txn: txn.insert("E", (3, 4)),
            template="link-forward", params=(3, 4),
        )
        assert outcome.committed
        assert service.snapshot().relation("E") == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_read_only_fast_path(self, service):
        before = service.store.version
        outcome = service.execute(lambda txn: txn.contains("E", (1, 2)))
        assert outcome.committed
        assert service.store.version == before  # nothing was applied
        assert service.stats.read_only_commits == 1

    def test_guarded_rejection_never_rolls_back(self, service):
        outcome = service.execute(
            lambda txn: txn.insert("E", (5, 5)),
            template="add-edge", params=(5, 5),
        )
        assert outcome.status == "rejected"
        assert "guard" in outcome.reason
        assert service.store.stats.aborted == 0  # nothing touched the store
        assert service.invariant_holds()

    def test_unregistered_shape_checked_at_runtime(self, service):
        outcome = service.execute(lambda txn: txn.insert("E", (6, 6)))
        assert outcome.status == "aborted"
        assert "constraint" in outcome.reason
        assert service.invariant_holds()
        assert service.stats.runtime_checks > 0

    def test_paper_transaction_commits(self, service):
        program = FOProgram([InsertTuple("E", 7, 8)], name="paper")
        outcome = service.execute(program)
        assert outcome.committed
        assert service.snapshot().relation("E") >= frozenset({(7, 8)})

    def test_transaction_named_like_guarded_template_is_judged_by_its_shape(self, service):
        # a bare Transaction carries its own constants: its shape's guard,
        # bound to them, decides — a loop's is false, so it never executes
        legal = FOProgram([InsertTuple("E", 5, 6)], name="add-edge")
        outcome = service.execute(legal)
        assert outcome.committed, outcome
        illegal = FOProgram([InsertTuple("E", 6, 6)], name="add-edge")
        outcome = service.execute(illegal)
        assert outcome.status == "rejected"
        assert service.invariant_holds()

    def test_a_transactions_own_shape_decides_not_its_name(self, service):
        # "unlink" is static for every constraint, but an insert named
        # "unlink" is still an insert: one static skip (no-loops holds for
        # any edge of two distinct constants) and one guard (no-triangles)
        before = service.stats.as_dict()
        outcome = service.execute(FOProgram([InsertTuple("E", 11, 12)], name="unlink"))
        assert outcome.committed
        after = service.stats.as_dict()
        assert after["static_skips"] - before["static_skips"] == 1
        assert after["guard_checks"] - before["guard_checks"] == 1
        assert after["runtime_checks"] == before["runtime_checks"]
        # and a delete named like a guarded template is a delete: no checks
        program = FOProgram(
            [DeleteWhere("E", ("x", "y"), parse("x = 11 & y = 12"))], name="add-edge"
        )
        outcome = service.execute(program)
        assert outcome.committed and not service.snapshot().contains("E", (11, 12))
        final = service.stats.as_dict()
        assert final["static_skips"] - after["static_skips"] == 2
        assert final["guard_checks"] == after["guard_checks"]

    def test_static_template_skips_all_checks(self, service):
        checks_before = (
            service.stats.guard_checks + service.stats.runtime_checks
        )
        outcome = service.execute(
            lambda txn: txn.delete("E", (1, 2)), template="unlink", params=(1, 2)
        )
        assert outcome.committed
        # "unlink" is static for both constraints: no guard, no runtime check
        assert (
            service.stats.guard_checks + service.stats.runtime_checks
            == checks_before
        )
        assert service.stats.static_skips >= 2


class TestConcurrency:
    def test_disjoint_writers_all_commit(self, service):
        outcomes = []
        lock = threading.Lock()

        def client(index):
            edge = (10 + index, 50 + index)
            outcome = service.execute(
                lambda txn: txn.insert("E", edge),
                template="link-forward", params=edge,
            )
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.committed for o in outcomes)
        rows = service.snapshot().relation("E")
        assert all((10 + i, 50 + i) in rows for i in range(8))
        assert service.invariant_holds()

    def test_conflicting_writers_serialize(self, service):
        barrier = threading.Barrier(2)
        outcomes = []
        lock = threading.Lock()

        def client():
            def body(txn):
                # both probe-and-write the same row from the same snapshot
                present = txn.contains("E", (9, 9))
                if not present:
                    txn.insert("E", (4, 9))
                txn.insert("E", (3, 9))

            barrier.wait()
            outcome = service.execute(body)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.committed for o in outcomes)
        # one of the two must have retried or been batched behind the other
        assert service.invariant_holds()

    def test_group_commit_batches_one_apply_per_batch(self):
        service = build_service(forward_graph(50, 2, seed=4), commit_timeout=30.0)
        n = 12
        # one drain — one store transaction, one version bump — for n commits
        run_as_one_batch(service, [link(100 + i, 200 + i) for i in range(n)])
        stats = service.stats.as_dict()
        assert stats["committed"] == n
        assert stats["max_batch"] == n
        assert service.store.stats.committed == 1  # one apply_delta for the batch
        assert service.invariant_holds()

    def test_serial_fallback_guarantees_progress(self):
        # force conflicts: every transaction scans E and writes to it, so
        # optimistic validation can never accept two concurrent writers
        service = build_service(
            Database.graph([(1, 2)]), max_retries=1, commit_timeout=30.0
        )
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def client(index):
            def body(txn):
                txn.scan("E")
                txn.insert("E", (30 + index, 80 + index))

            barrier.wait()
            outcome = service.execute(body)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.committed for o in outcomes)
        rows = service.snapshot().relation("E")
        assert all((30 + i, 80 + i) in rows for i in range(4))


class TestFollowerWait:
    def test_followers_block_on_the_condition_not_a_poll(self):
        """Regression for the follower spin-wait: while a leader is inside
        the commit section, a follower must be parked in
        ``_commit_cond.wait`` (zero CPU, woken by the leader's notify), not
        re-polling ``done.wait(0.002)`` in a loop."""
        import time

        service = build_service(forward_graph(30, 2, seed=9), commit_timeout=30.0)
        stall = threading.Event()
        entered = threading.Event()
        original = service._process

        def slow_process(request, running, batch_delta):
            entered.set()
            assert stall.wait(timeout=10.0)
            return original(request, running, batch_delta)

        service._process = slow_process
        outcomes = []

        def client(edge):
            outcomes.append(
                service.execute(
                    lambda txn, e=edge: txn.insert("E", e),
                    template="link-forward", params=edge,
                )
            )

        leader = threading.Thread(target=client, args=((101, 102),))
        leader.start()
        assert entered.wait(timeout=10.0)   # leader is wedged inside _drain
        follower = threading.Thread(target=client, args=((103, 104),))
        follower.start()
        # the follower loses the election and must end up blocked on the
        # condition; with the old 2ms poll no waiter ever parks there
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with service._commit_cond:
                waiters = len(service._commit_cond._waiters)
            if waiters >= 1:
                break
            time.sleep(0.005)
        assert waiters >= 1, "follower never blocked on the commit condition"
        stall.set()
        leader.join(timeout=10.0)
        follower.join(timeout=10.0)
        assert not leader.is_alive() and not follower.is_alive()
        assert [o.committed for o in outcomes] == [True, True]
        assert service.invariant_holds()
        service.close()

    def test_external_timeout_semantics_survive_the_blocking_wait(self):
        """The deadline still bounds a follower parked on the condition: a
        wedged pipeline surfaces as ServiceError at ~commit_timeout, not a
        hang (the _give_up path is unchanged)."""
        import time

        service = build_service(Database.graph([(1, 2)]), commit_timeout=0.3)
        service._commit_lock.acquire()
        started = time.monotonic()
        try:
            with pytest.raises(ServiceError, match="timed out"):
                service.execute(
                    lambda txn: txn.insert("E", (8, 9)),
                    template="link-forward", params=(8, 9),
                )
        finally:
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()
        elapsed = time.monotonic() - started
        assert elapsed < 10.0   # woke at the deadline, not at lock release
        service.close()


class TestStoreOwnership:
    def test_service_over_a_database_owns_and_closes_its_store(self):
        service = TransactionService(
            Database.graph([(1, 2)]), standard_constraints()
        )
        assert isinstance(service.store, Store)
        assert service.store.committed_snapshot() == Database.graph([(1, 2)])
        service.close()
        assert service.store.closed
        service.close()  # idempotent

    def test_caller_store_stays_open(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(1, 2)]))
        service = TransactionService(store, standard_constraints())
        assert service.store is store
        service.close()
        assert not store.closed
        store.close()

    def test_build_service_owns_the_store_it_builds(self, service):
        outcome = execute(service, link(3, 4))
        assert outcome.committed
        service.close()
        assert service.store.closed
        # a closed store still serves the committed state
        assert service.store.committed_snapshot().contains("E", (3, 4))


class TestOwnBackend:
    def test_every_check_runs_on_the_service_backend(self):
        # the run-time checks (touched tuples and the first full check) and
        # invariant_holds go through the backend the service was given, not
        # through the process-global one
        from repro.core import Constraint
        from repro.engine import CompiledBackend, NaiveBackend, using_backend
        from repro.service.workloads import NO_TRIANGLES

        with using_backend(CompiledBackend()) as global_backend:
            before = global_backend.cache_stats()
            service = TransactionService(
                Database.graph([(1, 2), (2, 3)]),
                [Constraint("no-triangles", NO_TRIANGLES)],
                backend=NaiveBackend(),
            )
            try:
                for edge in ((3, 4), (4, 5)):
                    outcome = service.execute(lambda txn, edge=edge: txn.insert("E", edge))
                    assert outcome.committed
                assert service.stats.as_dict()["runtime_checks"] == 2
                assert service.invariant_holds()
            finally:
                service.close()
            after = global_backend.cache_stats()
        assert (after["prepared"], after["streamed"]) == (before["prepared"], before["streamed"])


def test_forward_graph_saturates_instead_of_hanging():
    # 4 accounts have only 6 distinct forward pairs; asking for 8 must
    # saturate, not spin forever
    db = forward_graph(4, 2)
    assert len(db.relation("E")) == 6


class TestCommitLog:
    def test_commit_order_replay_matches(self, service):
        initial = service.snapshot()
        edges = [(3, 4), (4, 5), (5, 6)]
        for index, edge in enumerate(edges):
            service.execute(
                lambda txn, e=edge: txn.insert("E", e),
                template="link-forward", params=edge, tag=index,
            )
        assert service.commit_log == [0, 1, 2]
        replay = initial
        for index in service.commit_log:
            replay = replay.apply_delta(Delta.insertion("E", edges[index]))
        assert replay == service.snapshot()

    def test_read_only_not_in_commit_log(self, service):
        service.execute(lambda txn: txn.contains("E", (1, 2)), tag="reader")
        assert service.commit_log == []


class TestFailFast:
    def test_failing_constraint_aborts_only_its_transaction(self):
        # a constraint whose evaluation *raises* must sink the offending
        # transaction (aborted, with the error in the reason), not the batch
        # or the service
        from repro.core import Constraint

        class Exploding:
            def holds(self, db):
                raise ValueError("boom")

        service = TransactionService(
            Store(GRAPH_SCHEMA, Database.graph([(1, 2)])),
            [Constraint("exploding", Exploding())],
            commit_timeout=10.0,
        )
        outcome = service.execute(lambda txn: txn.insert("E", (3, 4)))
        assert outcome.status == "aborted"
        assert "boom" in outcome.reason
        # the service remains fully usable afterwards
        follow_up = service.execute(lambda txn: txn.contains("E", (1, 2)))
        assert follow_up.committed

    def test_commit_timeout_raises(self):
        service = build_service(Database.graph([(1, 2)]), commit_timeout=0.2)
        # wedge the pipeline: hold the commit lock so no leader can emerge
        service._commit_lock.acquire()
        try:
            with pytest.raises(ServiceError, match="timed out"):
                service.execute(
                    lambda txn: txn.insert("E", (8, 9)),
                    template="link-forward", params=(8, 9),
                )
        finally:
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()

    def test_window_overflow_retries_then_succeeds(self):
        # a one-commit validation window forces "fell out of the window"
        # conflicts under concurrency, but retries keep making progress
        store = Store(GRAPH_SCHEMA, Database.graph([(1, 2)]))
        service = TransactionService(
            store, standard_constraints(), history_limit=1, commit_timeout=30.0
        )
        def client(index):
            edge = (40 + index, 90 + index)
            outcome = service.execute(lambda txn: txn.insert("E", edge))
            assert outcome.committed

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rows = service.snapshot().relation("E")
        assert all((40 + i, 90 + i) in rows for i in range(6))


class TestOneSuccessorStatePerBatch:
    """The leader's final state becomes the committed snapshot, unpatched."""

    @pytest.fixture
    def service(self):
        svc = build_service(forward_graph(50, 2, seed=4), commit_timeout=30.0)
        yield svc
        svc.close()

    @pytest.fixture
    def spy(self, service, monkeypatch):
        """Successors handed to the store, and top-level apply_delta calls."""
        seen = {"successors": [], "applies": 0}
        commit_unchecked = service.store.commit_unchecked
        apply_delta = Database.apply_delta

        def spying_commit(successor=None):
            seen["successors"].append(successor)
            return commit_unchecked(successor=successor)

        def counting_apply(self, delta):
            seen["applies"] += 1
            return apply_delta(self, delta)

        monkeypatch.setattr(service.store, "commit_unchecked", spying_commit)
        monkeypatch.setattr(Database, "apply_delta", counting_apply)
        return seen

    def assert_promoted(self, service, spy, applies):
        stats = service.store.stats
        assert service.store.pin()[1] is spy["successors"][-1]
        assert stats.snapshot_promoted == len(spy["successors"])
        assert stats.snapshot_repatched == 0
        assert spy["applies"] == applies
        assert service.snapshot().relation("E") == frozenset(service.store.scan("E"))
        assert service.invariant_holds()

    def test_single_request(self, service, spy):
        assert execute(service, link(100, 200)).committed
        self.assert_promoted(service, spy, applies=1)

    def test_multi_request_batch(self, service, spy):
        outcomes = run_as_one_batch(
            service, [link(100 + i, 200 + i) for i in range(6)]
        )
        assert all(o.committed for o in outcomes)
        assert len(spy["successors"]) == 1  # one batch, one store commit
        self.assert_promoted(service, spy, applies=6)

    def test_batch_with_rejected_and_conflicted_requests(self, service, spy):
        loop = (lambda txn: txn.insert("E", (7, 7)), "add-edge", (7, 7))
        outcomes = run_as_one_batch(
            service,
            [link(100, 200), loop, link(101, 201),
             link(100, 200),  # same row twice: the second one conflicts
             link(102, 202)],
        )
        assert [o.status for o in outcomes].count("rejected") == 1
        assert sum(o.committed for o in outcomes) == 4
        assert service.stats.conflicts == 1
        # the loser retried against the new snapshot, found the row present
        # and finished read-only: three survivors changed the state, once each
        assert len(spy["successors"]) == 1
        self.assert_promoted(service, spy, applies=3)

    def test_runtime_checked_request_reuses_its_candidate_state(self, service, spy):
        outcome = service.execute(lambda txn: txn.insert("E", (100, 200)))
        assert outcome.committed and service.stats.runtime_checks > 0
        self.assert_promoted(service, spy, applies=1)

    def test_refused_batch_promotes_nothing(self, service, spy):
        from repro import faults

        service.commit_retries = 0
        version, base = service.store.pin()
        faults.install(faults.FaultPlan().site("storage.commit_batch", exc="storage"))
        try:
            outcomes = run_as_one_batch(
                service, [link(100 + i, 200 + i) for i in range(3)]
            )
        finally:
            faults.uninstall()
        assert all(o.status == "aborted" and o.retryable for o in outcomes)
        assert service.store.pin() == (version, base)
        assert service.store.pin()[1] is base
        assert service.store.stats.snapshot_promoted == 0

    def test_promotion_counters_reach_stats(self, service):
        execute(service, link(100, 200))
        transactions = service.observability()["store"]["transactions"]
        assert transactions["snapshot_promoted"] == 1
        assert transactions["snapshot_repatched"] == 0


def _conflicted_once(service):
    """A link whose first attempt read a row a nested commit then deleted."""
    first = [True]

    def work(txn):
        txn.contains("E", (1, 2))
        if first[0]:
            first[0] = False
            service.execute(lambda inner: inner.delete("E", (1, 2)))
        txn.insert("E", (8, 9))

    return (work, "link-forward", (8, 9))


def _refused_by_guard(_service):
    # (3, 1) closes the triangle 1 -> 2 -> 3 -> 1: the guard refuses it
    return (lambda txn: txn.insert("E", (3, 1)), "add-edge", (3, 1))


def _aborted_by_signal(_service):
    def work(_txn):
        raise TransactionAbortedSignal("no")

    return (work, None, ())


#: per path: (outcome fields, ServiceStats deltas) of one ``execute`` call,
#: as recorded before ``execute`` became ``execute_many`` of one item — but
#: for ``guard-reject``, whose edge is now judged by its shape: ``no-loops``
#: is static for any edge of two distinct constants
PARITY = {
    "commit": (
        lambda _s: link(8, 9), {}, None,
        ("committed", "", 1, 1, False),
        {"submitted": 1, "committed": 1, "batches": 1, "batched_commits": 1,
         "max_batch": 1, "static_skips": 1, "guard_checks": 1},
    ),
    "guard-reject": (
        _refused_by_guard, {}, None,
        ("rejected", "guard of 'no-triangles' failed on the pre-state", -1, 1, False),
        {"submitted": 1, "rejected": 1, "static_skips": 1, "guard_checks": 1},
    ),
    "signal-reject": (
        _aborted_by_signal, {}, None,
        ("rejected", "no", -1, 1, False),
        {"submitted": 1, "rejected": 1},
    ),
    "conflict-retry": (
        _conflicted_once, {}, None,
        ("committed", "", 2, 2, False),
        {"submitted": 2, "committed": 2, "conflicts": 1, "retries": 1,
         "batches": 2, "batched_commits": 2, "max_batch": 1, "static_skips": 1,
         "guard_checks": 1, "runtime_checks": 2},
    ),
    "serial-fallback": (
        lambda _s: link(4, 5), {"max_retries": 0}, None,
        ("committed", "", 1, 1, False),
        {"submitted": 1, "committed": 1, "serial_fallbacks": 1, "batches": 1,
         "batched_commits": 1, "max_batch": 1, "static_skips": 1,
         "guard_checks": 1},
    ),
    "transient-retry": (
        lambda _s: link(3, 4), {}, ("storage.commit_batch", (1,)),
        ("committed", "", 1, 2, False),
        {"submitted": 1, "committed": 1, "batches": 1, "batched_commits": 1,
         "max_batch": 1, "static_skips": 2, "guard_checks": 2,
         "transient_retries": 1, "commit_failures": 1},
    ),
}


class TestExecuteMany:
    @pytest.mark.parametrize("path", sorted(PARITY))
    def test_one_item_matches_execute(self, path):
        build, options, fault, expected, deltas = PARITY[path]
        service = build_service(Database.graph([(1, 2), (2, 3)]), **options)
        work, template, params = build(service)
        if fault is not None:
            site, hits = fault
            faults.install(faults.FaultPlan().site(site, exc="storage", hits=hits))
        before = service.stats.as_dict()
        try:
            (outcome,) = service.execute_many([TxnItem(work, template, params)])
        finally:
            faults.uninstall()
        after = service.stats.as_dict()
        assert (
            outcome.status, outcome.reason, outcome.version, outcome.attempts,
            outcome.retryable,
        ) == expected
        assert {k: after[k] - before[k] for k in after if after[k] != before[k]} == deltas
        service.close()

    def test_a_round_commits_as_one_batch(self, service):
        version = service.store.version
        outcomes = service.execute_many(
            [TxnItem(*link(10 + i, 20 + i)) for i in range(6)]
        )
        assert [o.status for o in outcomes] == ["committed"] * 6
        assert {o.version for o in outcomes} == {version + 1}
        stats = service.stats.as_dict()
        assert stats["batches"] == 1 and stats["max_batch"] == 6

    def test_each_item_ends_on_its_own(self, service):
        def broken(_txn):
            raise KeyError("boom")

        outcomes = service.execute_many([
            TxnItem(*link(10, 11)),
            TxnItem(*_refused_by_guard(service)),
            TxnItem(broken),
            TxnItem(*link(10, 11)),  # the same link: conflicts, then no-op
            TxnItem(*link(12, 13), deadline=0.0),
        ])
        assert outcomes[0].committed
        assert outcomes[1].status == "rejected"
        assert isinstance(outcomes[2], KeyError)
        assert outcomes[3].committed and outcomes[3].attempts == 2
        assert isinstance(outcomes[4], ServiceError)
        assert "deadline exceeded" in str(outcomes[4])
        assert (12, 13) not in service.snapshot().relation("E")


    def test_concurrent_batches_lose_no_commit(self):
        """Threads racing execute_many rounds, with overlapping links: every
        item commits, once, and the state holds every link."""
        import sys

        service = build_service(Database.graph([(1, 2)]))
        threads, rounds, width = 6, 15, 5
        results = [[] for _ in range(threads)]

        def client(me):
            for r in range(rounds):
                # the second half of each round's links is shared with the
                # next thread: cross-thread write-write conflicts
                links = [link(100 + r, 200 + 10 * me + i) for i in range(width)]
                links += [link(100 + r, 200 + 10 * ((me + 1) % threads) + i)
                          for i in range(2)]
                results[me].extend(
                    service.execute_many([TxnItem(*l) for l in links])
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=client, args=(me,))
                       for me in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        outcomes = [o for mine in results for o in mine]
        assert len(outcomes) == threads * rounds * (width + 2)
        assert all(o.committed for o in outcomes), outcomes
        stats = service.stats.as_dict()
        assert stats["committed"] == len(outcomes)
        # every item is one writer commit or one read-only commit (a link
        # another thread already made): nothing counted twice, none lost
        assert stats["batched_commits"] + stats["read_only_commits"] == len(outcomes)
        expected = {(100 + r, 200 + 10 * me + i)
                    for r in range(rounds) for me in range(threads)
                    for i in range(width)}
        assert expected <= service.snapshot().relation("E")
        assert stats["batched_commits"] == len(expected)
        service.close()


class TestWaitBudgets:
    """A wait that runs out names the budget that expired."""

    def _wedged(self, service, **kwargs):
        service._commit_lock.acquire()
        started = time.monotonic()
        try:
            with pytest.raises(ServiceError) as raised:
                service.execute(
                    lambda txn: txn.insert("E", (8, 9)),
                    template="link-forward", params=(8, 9), **kwargs,
                )
        finally:
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()
        assert not service._queue, "the expired request must be withdrawn"
        return str(raised.value), time.monotonic() - started

    def test_client_deadline_while_queued(self):
        service = build_service(Database.graph([(1, 2)]), commit_timeout=60.0)
        message, elapsed = self._wedged(
            service, deadline=time.monotonic() + 0.05
        )
        assert "client deadline" in message
        assert "timed out" not in message and "60" not in message
        assert elapsed < 5.0
        service.close()

    def test_commit_timeout_while_queued(self):
        service = build_service(Database.graph([(1, 2)]), commit_timeout=0.1)
        message, _elapsed = self._wedged(
            service, deadline=time.monotonic() + 60.0
        )
        assert message.startswith("commit timed out after 0.1s")
        assert "client" not in message
        service.close()
