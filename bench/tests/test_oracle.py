"""The request streams are deterministic and balanced; the oracle catches misses."""

import json

import gen
from workloads import MIXES, Oracle, Traffic, consistent


def _base(accounts=60, per=4):
    import random

    rng = random.Random(7)
    edges = set()
    while len(edges) < accounts * per:
        a, b = rng.randrange(accounts), rng.randrange(accounts)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return frozenset(edges)


def _answer(ops, lose=None):
    """A phase in which a faithful server answered ``ops`` (optionally losing one)."""
    known = Traffic("serve-mixed-large", 0, 60, _base()).expected_evaluate
    phase = gen.Phase.of(len(ops))
    edges = set(_base())
    version = 0
    for index, op in enumerate(ops):
        phase.status[index] = 200
        if op.is_write:
            status = op.expect
            if status == "committed" and index != lose:
                version += 1
                (edges.discard if op.kind == "unlink" else edges.add)((op.a, op.b))
            body = {"status": status, "reason": "", "version": version}
        else:
            result = op.expect if op.kind == "contains" else known(op)
            body = {"version": version, "result": True if result is None else result}
        phase.body[index] = json.dumps(body).encode()
    return phase, edges


def test_same_seed_same_requests_and_another_seed_differs():
    for workload in MIXES:
        first = Traffic(workload, 3, 60, _base()).take(500)[0]
        again = Traffic(workload, 3, 60, _base()).take(500)[0]
        other = Traffic(workload, 4, 60, _base()).take(500)[0]
        assert first == again
        assert first != other


def test_write_streams_keep_the_data_within_five_percent():
    base = _base(200, 6)
    traffic = Traffic("serve-write", 0, 200, base)
    live = len(base)
    for op in traffic.take(20000)[1]:
        live += {"link": 1, "unlink": -1}[op.kind]
        assert abs(live - len(base)) <= 0.05 * len(base)


def test_oracle_accepts_a_faithful_server_and_catches_a_lost_commit():
    ops = Traffic("serve-mixed-large", 1, 60, _base()).take(600)[1]
    phase, edges = _answer(ops)
    oracle = Oracle(Traffic("serve-mixed-large", 1, 60, _base()))
    assert oracle.check(phase, ops) == 0
    oracle.check_scan([list(edge) for edge in edges], "final")
    assert oracle.failed == 0 and consistent(edges)

    # a link the stream sent once and never unlinked: its row must be there
    sent = [(op.a, op.b) for op in ops if op.kind == "link"]
    lost = max(
        i for i, op in enumerate(ops)
        if op.kind == "link" and (op.a, op.b) in edges and sent.count((op.a, op.b)) == 1
    )
    phase, edges = _answer(ops, lose=lost)
    oracle = Oracle(Traffic("serve-mixed-large", 1, 60, _base()))
    oracle.check(phase, ops)
    oracle.check_scan([list(edge) for edge in edges], "final")
    assert oracle.failed == 1


def test_oracle_counts_wrong_outcomes_and_transport_loss():
    ops = Traffic("serve-mixed-large", 2, 60, _base()).take(300)[1]
    phase, _edges = _answer(ops)
    rejected = next(i for i, op in enumerate(ops) if op.expect == "rejected")
    phase.body[rejected] = json.dumps(
        {"status": "committed", "reason": "", "version": 10**6}
    ).encode()
    phase.status[0] = 0
    phase.status[1] = 503
    oracle = Oracle(Traffic("serve-mixed-large", 2, 60, _base()))
    assert oracle.check(phase, ops) == 3


def test_consistent_sees_loops_and_triangles():
    assert consistent({(1, 2), (2, 3), (1, 3)})
    assert not consistent({(1, 1)})
    assert not consistent({(1, 2), (2, 3), (3, 1)})
