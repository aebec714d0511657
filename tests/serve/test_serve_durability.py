"""Acked over the wire == durable on disk: kill-and-recover through the server.

The serving contract extends the WAL's: a transaction whose response says
``committed`` must survive a crash immediately after the response was read —
the server only writes a response after the group-commit leader has the
storage engine's acceptance of the batch.  The second test pins the
amortisation claim deterministically: a pipelined flush of N transactions,
forced into one group-commit batch, costs exactly **one** WAL append.
"""

from __future__ import annotations

import threading
import time

from repro.db import GRAPH_SCHEMA, Store, WalStorageEngine
from repro.serve import ServeClient, ServerThread, preregister
from repro.service.workloads import (
    build_service,
    forward_graph,
    standard_constraints,
)


def _durable_service(directory, initial):
    engine = WalStorageEngine(str(directory), checkpoint_interval=0)
    return build_service(initial, commit_timeout=30.0, engine=engine)


def test_acked_commit_survives_kill_and_recover(tmp_path):
    service = _durable_service(tmp_path, forward_graph(20, 2, seed=11))
    acked = []
    # the test keeps the service: the engine must outlive the server so the
    # crash happens on a live WAL, not after an orderly close flushed it
    with ServerThread(service) as harness:
        preregister(harness.server)
        with ServeClient(*harness.address) as client:
            for i in range(12):
                edge = [400 + i, 500 + i]
                status, outcome = client.submit("link-forward", edge)
                assert status == 200
                if outcome["status"] == "committed":
                    acked.append(tuple(edge))
            # a loop insert is refused and must NOT appear after recovery
            _status, refused = client.submit("add-edge", [3, 3])
            assert refused["status"] in ("rejected", "aborted")
    assert acked, "at least one commit must have been acknowledged"

    service.store.engine.crash()
    service.close()  # idempotent after the crash; releases everything else

    with Store(GRAPH_SCHEMA, engine=WalStorageEngine(str(tmp_path))) as reborn:
        recovered = reborn.snapshot().relation("E")
        for edge in acked:
            assert edge in recovered, (
                f"acked edge {edge} lost in the crash — the ack preceded durability"
            )
        assert (3, 3) not in recovered
        assert all(c.holds(reborn.snapshot()) for c in standard_constraints())


def test_pipelined_flush_costs_one_wal_append(tmp_path):
    """The batching acceptance criterion, pinned: N acks, one WAL append."""
    service = _durable_service(tmp_path, forward_graph(20, 2, seed=12))
    count = 6
    with ServerThread(service, owns_service=True) as harness:
        preregister(harness.server)
        with ServeClient(*harness.address) as client:
            appends_before = service.store.storage_stats()["wal_appends"]
            # wedge the leader seat so the whole flush queues as one batch
            assert service._commit_lock.acquire(timeout=5)

            def release_when_queued():
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    with service._queue_lock:
                        if len(service._queue) >= count:
                            break
                    time.sleep(0.002)
                with service._commit_cond:
                    service._commit_lock.release()
                    service._commit_cond.notify_all()

            releaser = threading.Thread(target=release_when_queued)
            releaser.start()
            try:
                outcomes = client.submit_many(
                    [{"template": "link-forward", "params": [600 + i, 700 + i]}
                     for i in range(count)]
                )
            finally:
                releaser.join()
            assert [p["status"] for _s, p in outcomes] == ["committed"] * count
            appends = service.store.storage_stats()["wal_appends"] - appends_before
            assert appends == 1, (
                f"{count} acked commits from one flush must cost one WAL "
                f"append, not {appends}"
            )


def test_pipelined_flush_is_one_wal_append_with_nothing_held(tmp_path):
    """The same promise without wedging the leader seat, twenty flushes long.

    The server hands the flush's transactions to the service as one batch,
    so nothing but the batch itself decides what the leader drains.
    """
    service = _durable_service(tmp_path, forward_graph(20, 2, seed=12))
    count = 8
    with ServerThread(service, owns_service=True) as harness:
        preregister(harness.server)
        with ServeClient(*harness.address) as client:
            for flush in range(20):
                appends_before = service.store.storage_stats()["wal_appends"]
                outcomes = client.submit_many(
                    [{"template": "link-forward",
                      "params": [1000 + count * flush + i, 2000 + count * flush + i]}
                     for i in range(count)]
                )
                assert [p["status"] for _s, p in outcomes] == ["committed"] * count
                assert len({p["version"] for _s, p in outcomes}) == 1
                appends = service.store.storage_stats()["wal_appends"] - appends_before
                assert appends == 1, (
                    f"flush {flush}: {count} pipelined commits cost {appends} "
                    "WAL appends, not one"
                )
