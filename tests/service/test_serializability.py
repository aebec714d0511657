"""Serializability stress: every committed history equals a serial execution.

The service claims serializable isolation: the final committed state of any
concurrent run equals executing the committed transactions *serially in
commit order* from the initial state.  Hypothesis generates adversarial
workloads — small node universe (heavy contention), state-*dependent*
transactions (read-then-write toggles), risky constraint-violating writes —
and every example is executed by several worker threads and then replayed
serially against the commit log.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.service import SnapshotTransaction, build_service
from repro.service.workloads import NO_LOOPS, standard_constraints

NODES = 6

node = st.integers(min_value=0, max_value=NODES - 1)


def _link(a, b):
    a, b = min(a, b), max(a, b)

    def fn(txn):
        txn.insert("E", (a, b))

    return ("link-forward", (a, b), fn) if a != b else (None, (a, b), fn)


def _add_edge(a, b):
    def fn(txn):
        txn.insert("E", (a, b))

    return ("add-edge", (a, b), fn)


def _unlink(a, b):
    def fn(txn):
        txn.delete("E", (a, b))

    return ("unlink", (a, b), fn)


def _toggle(a, b):
    # state-dependent: the classic serializability trap — behaviour depends
    # on a read, so stale validation shows up as a replay mismatch
    def fn(txn):
        if txn.contains("E", (a, b)):
            txn.delete("E", (a, b))
        elif a != b:
            txn.insert("E", (a, b))

    return (None, (a, b), fn)


def _probe(a, b):
    def fn(txn):
        txn.contains("E", (a, b))
        txn.evaluate(NO_LOOPS)

    return (None, (a, b), fn)


_MAKERS = (_link, _add_edge, _unlink, _toggle, _probe)

operation = st.tuples(st.integers(min_value=0, max_value=len(_MAKERS) - 1), node, node)

edge = st.tuples(node, node).filter(lambda e: e[0] != e[1]).map(
    lambda e: (min(e), max(e))
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.frozensets(edge, max_size=8),
    st.lists(operation, min_size=4, max_size=18),
    st.integers(min_value=2, max_value=4),
)
def test_committed_history_is_serializable(edges, op_specs, workers):
    initial = Database.graph(edges)
    constraints = standard_constraints()
    if not all(c.holds(initial) for c in constraints):
        # forward edges only: loop-free by construction; triangles impossible
        raise AssertionError("forward-only initial graph must satisfy the invariant")
    service = build_service(initial, commit_timeout=30.0)
    ops = [_MAKERS[kind](a, b) for kind, a, b in op_specs]

    errors = []

    def worker(slot):
        try:
            for index in range(slot, len(ops), workers):
                template, params, fn = ops[index]
                service.execute(fn, template=template, params=params, tag=index)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]

    # the invariant must hold on the committed state no matter what happened
    assert service.invariant_holds()

    # replay the committed transactions serially, in commit order
    replay = initial
    for tag in service.commit_log:
        _template, _params, fn = ops[tag]
        handle = SnapshotTransaction(replay, -1)
        fn(handle)
        replay = replay.apply_delta(handle.delta())
        assert all(c.holds(replay) for c in constraints)

    # ...and land on exactly the state the service committed (content hash
    # equality: Database.__eq__ compares relations, __hash__ is the XOR
    # content hash patched along apply_delta)
    final = service.snapshot()
    assert hash(replay) == hash(final)
    assert replay == final


@settings(max_examples=10, deadline=None)
@given(st.lists(operation, min_size=2, max_size=10))
def test_single_worker_equals_sequential(op_specs):
    """With one worker the service is just a slow serial executor."""
    initial = Database.graph([(0, 1), (1, 2), (3, 4)])
    service = build_service(initial, commit_timeout=30.0)
    ops = [_MAKERS[kind](a, b) for kind, a, b in op_specs]
    for index, (template, params, fn) in enumerate(ops):
        service.execute(fn, template=template, params=params, tag=index)

    replay = initial
    for tag in service.commit_log:
        handle = SnapshotTransaction(replay, -1)
        ops[tag][2](handle)
        replay = replay.apply_delta(handle.delta())
    assert replay == service.snapshot()
    assert service.invariant_holds()
