"""E17 — scale-out: the sharded engine versus the single-shard compiled path.

Three workload shapes, swept over shard counts (1, 2, 4):

* **cold revalidation under churn** (the headline, E13-style): an
  entity-partitioned ledger database takes a stream of single-entity
  updates, and after every step the full constraint set is re-checked on a
  *cold* snapshot — rebuilt from raw relations, no ``apply_delta``
  provenance.  This is the regime of multi-process serving (a verifier
  receives a fresh snapshot over the wire), where the compiled engine's
  incremental delta rules cannot engage and every check is a full plan
  execution.  The sharded engine's content-keyed shard caches make the
  re-check proportional to the *touched* shard: at 4 shards roughly 1/4 of
  the join work per step.  What is gated is the ratio that measures
  sharding — 4 shards against 1 shard of the same engine.  Against the
  unsharded compiled engine 4 shards stood at 1.8-2x until that engine's
  scans stopped copying relations and its joins started building on the
  smaller side; a full execution at this size now costs less than
  partitioning, hashing and interning a cold snapshot's shards, and the
  recorded ``speedup4_vs_compiled`` is below 1 (see ``docs/sharding.md``).

* **broadcast-join parity** (E09-style): graph constraints whose join keys
  do *not* align with the partition key (2-path joins), exercising the
  broadcast strategy — sharding must stay within a small constant of the
  serial engine even when co-partitioning never applies.

* **service scale-out** (E16-style): the mixed transaction workload through
  a sharded store, confirming the serving layer rides the sharded snapshots
  without throughput regression.

Every figure is emitted as a ``BENCH-METRIC`` line, so ``run_all.py`` folds
the shard-count speedups into ``BENCH_<rev>.json``.
"""

import json
import time

import pytest

from repro.db import Database, RelationSchema, Schema, ShardedDatabase
from repro.engine import CompiledBackend, ShardedBackend, active_backend
from repro.logic import parse

SHARD_COUNTS = (1, 2, 4)

LEDGER = Schema(
    [
        RelationSchema("Active", 1),
        RelationSchema("Owner", 2),
        RelationSchema("Balance", 2),
    ]
)

#: the integrity constraints of the ledger: join/antijoin shaped, and all
#: joining on the account column — the partition key — so the sharded
#: engine runs them co-partitioned
LEDGER_CONSTRAINTS = [
    parse("forall a . forall u . forall v . (Owner(a, u) & Owner(a, v)) -> u = v",
          predicates=[]),
    parse("forall a . forall v . forall w . (Balance(a, v) & Balance(a, w)) -> v = w",
          predicates=[]),
    parse("forall a . forall v . Balance(a, v) -> (exists u . Owner(a, u))",
          predicates=[]),
    parse("forall a . forall v . Balance(a, v) -> Active(a)", predicates=[]),
    parse("forall a . Active(a) -> (exists u . Owner(a, u))", predicates=[]),
    parse("forall a . forall u . forall v . (Owner(a, u) & Balance(a, v)) -> Active(a)",
          predicates=[]),
    parse("forall a . forall u . Owner(a, u) -> (exists v . Balance(a, v))",
          predicates=[]),
]

# (accounts, users, amount_pool, steps)
SIZES = {"small": (120, 40, 11, 8), "production": (600, 200, 13, 24)}


def bench_seed() -> int:
    from repro.service import default_seed

    return default_seed()


def emit_metric(name: str, payload: dict) -> None:
    print(f"BENCH-METRIC {json.dumps({'metric': name, **payload}, sort_keys=True)}")


# ---------------------------------------------------------------------------
# the cold-revalidation workload (E13-style, entity-partitioned)
# ---------------------------------------------------------------------------

def ledger_relations(accounts: int, users: int, amount_pool: int) -> dict:
    """The seed ledger: every account active, owned, and funded.

    Owners come from a pool where every user owns several accounts and
    amounts from a dense pool shared by many accounts, so the single-entity
    updates below never change the active domain (no constraint cache is
    invalidated by domain churn — exactly how a production entity store
    behaves under attribute updates).
    """
    return {
        "Active": [(a,) for a in range(accounts)],
        "Owner": [(a, f"u{a % users}") for a in range(accounts)],
        "Balance": [(a, 1000 + (a % amount_pool)) for a in range(accounts)],
    }


def churn_states(accounts: int, users: int, amount_pool: int, steps: int, seed: int):
    """The update stream, materialised as raw relation snapshots.

    Each step rewrites ONE account's owner and balance (same entity — same
    shard), then hands the whole database over cold: the states carry no
    provenance, like snapshots crossing a process boundary.
    """
    relations = ledger_relations(accounts, users, amount_pool)
    owner = {a: u for a, u in relations["Owner"]}
    balance = {a: v for a, v in relations["Balance"]}
    states = []
    for step in range(steps):
        account = (seed + step * 7919) % accounts
        owner[account] = f"u{(account + step + 1) % users}"
        balance[account] = 1000 + (balance[account] + 1 - 1000) % amount_pool
        states.append(
            {
                "Active": list(relations["Active"]),
                "Owner": [(a, u) for a, u in owner.items()],
                "Balance": [(a, v) for a, v in balance.items()],
            }
        )
    return states


def run_cold_sweep(backend, make_db, states, constraints=LEDGER_CONSTRAINTS) -> float:
    """Seconds to re-check every constraint on every cold state."""
    warmup = make_db(states[0])
    for constraint in constraints:
        assert backend.evaluate(constraint, warmup)
    started = time.perf_counter()
    for relations in states:
        db = make_db(relations)
        for constraint in constraints:
            assert backend.evaluate(constraint, db)
    return time.perf_counter() - started


def test_e17_cold_revalidation_scaleout(benchmark):
    """The headline: 4 shards re-check a churning ledger faster than 1 shard."""
    if active_backend().name == "naive":
        pytest.skip("scale-out is measured against the compiled engine")
    accounts, users, amount_pool, steps = SIZES["production"]
    states = churn_states(accounts, users, amount_pool, steps, bench_seed())

    timings = {}

    def sweep():
        timings["compiled"] = run_cold_sweep(
            CompiledBackend(), lambda rels: Database(LEDGER, rels), states
        )
        for count in SHARD_COUNTS:
            timings[f"sharded{count}"] = run_cold_sweep(
                ShardedBackend(shards=count),
                lambda rels, n=count: ShardedDatabase(LEDGER, rels, n),
                states,
            )
        return timings

    benchmark(sweep)
    speedup4 = timings["compiled"] / timings["sharded4"]
    speedup4_vs_1 = timings["sharded1"] / timings["sharded4"]
    emit_metric(
        "e17-cold",
        {
            "steps": steps,
            "accounts": accounts,
            "compiled_s": round(timings["compiled"], 3),
            "sharded1_s": round(timings["sharded1"], 3),
            "sharded2_s": round(timings["sharded2"], 3),
            "sharded4_s": round(timings["sharded4"], 3),
            "speedup4_vs_compiled": round(speedup4, 2),
            "speedup4_vs_sharded1": round(speedup4_vs_1, 2),
        },
    )
    assert speedup4_vs_1 >= 1.0, (
        f"4-shard cold revalidation ({timings['sharded4']:.3f}s) must not be "
        f"slower than the same engine on one shard ({timings['sharded1']:.3f}s): "
        f"three of four shards are untouched per step and should hit the cache"
    )


def test_e17_shard_cache_reuse_counters():
    """The mechanism behind the headline: untouched shards hit the cache."""
    if active_backend().name == "naive":
        pytest.skip("scale-out is measured against the compiled engine")
    accounts, users, amount_pool, steps = SIZES["small"]
    states = churn_states(accounts, users, amount_pool, steps, bench_seed())
    backend = ShardedBackend(shards=4)
    run_cold_sweep(backend, lambda rels: ShardedDatabase(LEDGER, rels, 4), states)
    total = backend.shard_hits + backend.shard_misses
    assert total > 0
    hit_rate = backend.shard_hits / total
    emit_metric(
        "e17-cache",
        {
            "shard_hits": backend.shard_hits,
            "shard_misses": backend.shard_misses,
            "hit_rate": round(hit_rate, 3),
        },
    )
    # one touched shard out of four per step: the steady state should reuse
    # well over half of all per-shard partials
    assert hit_rate >= 0.5


# ---------------------------------------------------------------------------
# broadcast-join parity (E09-style graph constraints)
# ---------------------------------------------------------------------------

GRAPH_CONSTRAINTS = [
    parse("forall x . ~E(x, x)"),
    parse("forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)"),
]


def graph_states(nodes: int, edges_per: int, steps: int, seed: int):
    """Forward-edge graph churn with cold handoff (joins NOT co-partitioned)."""
    import random

    rng = random.Random(seed)
    edges = set()
    while len(edges) < nodes * edges_per:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    states = []
    for _ in range(steps):
        doomed = rng.choice(sorted(edges))
        edges.discard(doomed)
        while True:
            a, b = rng.randrange(nodes), rng.randrange(nodes)
            if a != b and (min(a, b), max(a, b)) not in edges:
                edges.add((min(a, b), max(a, b)))
                break
        states.append({"E": sorted(edges)})
    return states


def test_e17_broadcast_parity(benchmark):
    """Non-aligned join keys: sharding must stay near the serial engine."""
    if active_backend().name == "naive":
        pytest.skip("scale-out is measured against the compiled engine")
    from repro.db import GRAPH_SCHEMA

    states = graph_states(nodes=150, edges_per=6, steps=8, seed=bench_seed())
    timings = {}

    def sweep():
        timings["compiled"] = run_cold_sweep(
            CompiledBackend(), lambda rels: Database(GRAPH_SCHEMA, rels),
            states, GRAPH_CONSTRAINTS,
        )
        timings["sharded4"] = run_cold_sweep(
            ShardedBackend(shards=4),
            lambda rels: ShardedDatabase(GRAPH_SCHEMA, rels, 4),
            states, GRAPH_CONSTRAINTS,
        )
        return timings

    benchmark(sweep)
    ratio = timings["compiled"] / timings["sharded4"]
    emit_metric(
        "e17-broadcast",
        {
            "compiled_s": round(timings["compiled"], 3),
            "sharded4_s": round(timings["sharded4"], 3),
            "sharded4_vs_compiled": round(ratio, 2),
        },
    )
    # broadcast joins add constant-factor overhead at worst — a collapse
    # here would mean the broadcast table is being rebuilt per shard
    assert ratio >= 0.4


# ---------------------------------------------------------------------------
# service scale-out (E16-style)
# ---------------------------------------------------------------------------

def test_e17_service_over_sharded_store(benchmark):
    """The serving layer on sharded snapshots, across shard counts."""
    if active_backend().name == "naive":
        pytest.skip("scale-out is measured against the compiled engine")
    from repro.engine import using_backend
    from repro.service import (
        build_service,
        build_streams,
        default_workers,
        forward_graph,
        run_workload,
    )

    seed = bench_seed()
    initial = forward_graph(120, 4, seed=1 + seed)
    streams = build_streams("mixed", 4, 40, 120, seed=seed)
    throughput = {}

    def sweep():
        for count in SHARD_COUNTS:
            with using_backend(ShardedBackend(shards=count)):
                service = build_service(initial)
                report = run_workload(
                    service, streams, workers=default_workers(4)
                )
                assert service.invariant_holds()
                assert report.committed > 0
                throughput[count] = report.throughput
        return throughput

    benchmark(sweep)
    emit_metric(
        "e17-service",
        {f"shards{count}": round(tps, 1) for count, tps in throughput.items()},
    )
    # sharded snapshots must not sink the serving layer
    assert min(throughput.values()) > 0
