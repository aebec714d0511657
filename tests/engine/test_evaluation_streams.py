"""Plan evaluation along update streams, and backend regressions.

Every state of an update stream is built by ``apply_delta``, which patches
the row sets, indexes and statistics the engine reads instead of rebuilding
them.  Three layers of defence:

* hypothesis streams — random update sequences against a panel of formulas
  covering every operator family (scans, joins, semijoins, antijoins,
  unions, complements, counting, equality, constants), cross-checked
  against the naive interpreter at every state;
* targeted operator streams — deletions that kill the last support of a
  group/join key, domain growth and shrinkage, rollback-style branching;
* regressions for the satellite bugfixes (``REPRO_BACKEND`` typos and
  removed names, the naive-fallback memo, locked ``cache_stats``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Delta, random_graph
from repro.engine import CompiledBackend, NaiveBackend, backend_from_name
from repro.logic import parse

NAIVE = NaiveBackend()

#: one formula per operator family
FORMULAS = [
    parse("forall x . ~E(x, x)"),                                        # scan + complement
    parse("forall x . forall y . E(x, y) -> E(y, x)"),                   # semijoin/antijoin
    parse("forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)"),  # join chain
    parse("exists x . exists y . E(x, y) & ~E(y, x)"),                   # antijoin
    parse("exists x . E(x, 0) | E(0, x)"),                               # union + constants
    parse("forall x . (exists y . E(x, y)) -> exists z . E(z, x)"),      # projections
    parse("exists>=2 x . exists y . E(x, y)"),                           # counting
    parse("exists x . exists y . E(x, y) & x = y"),                      # equality
    parse("exists x . E(x, 99)"),                                        # inactive constant
]


def apply_update(db, op, edge):
    if op == "insert":
        return db.insert("E", edge)
    return db.delete("E", edge)


def edge():
    node = st.integers(min_value=0, max_value=7)
    return st.tuples(node, node)


@given(
    st.frozensets(edge(), max_size=10),
    st.lists(st.tuples(st.sampled_from(["insert", "delete"]), edge()), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_stream_agrees_with_the_interpreter(base, updates):
    backend = CompiledBackend()
    db = Database.graph(base)
    for formula in FORMULAS:
        assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
    for op, e in updates:
        db = apply_update(db, op, e)
        for formula in FORMULAS:
            assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)


def test_extensions_along_a_stream_not_only_sentences():
    backend = CompiledBackend()
    formula = parse("E(x, y) & ~E(y, x)")
    db = Database.graph([(0, 1), (1, 0), (2, 3)])
    assert backend.extension(formula, db, ("x", "y")) == {(2, 3)}
    db = db.insert("E", (3, 2)).insert("E", (4, 5))
    assert backend.extension(formula, db, ("x", "y")) == {(4, 5)}
    db = db.delete("E", (1, 0))
    assert backend.extension(formula, db, ("x", "y")) == {(0, 1), (4, 5)}


def test_joins_keyed_on_the_whole_left_row_over_patched_rows():
    # R(x, y) & condition, DeleteWhere's plan: the (semi/anti)join key is the
    # whole left row, over a relation patched partition by partition
    backend = CompiledBackend()
    formulas = [parse("E(x, y) & x = y"), parse("E(x, y) & ~E(y, x)")]
    db = Database.graph((i, i % 9) for i in range(80))  # partitioned rows
    updates = [("insert", (40, 40)), ("insert", (2, 4)), ("insert", (4, 2)),
               ("delete", (40, 40)), ("delete", (0, 0)), ("delete", (9, 0))]
    for op, e in [(None, None)] + updates:
        db = apply_update(db, op, e) if op else db
        for formula in formulas:
            expected = NAIVE.extension(formula, db, ("x", "y"))
            assert backend.extension(formula, db, ("x", "y")) == expected


def test_domain_growth_and_shrinkage():
    backend = CompiledBackend()
    connected = parse("forall x . exists y . E(x, y) | E(y, x)")
    db = Database.graph([(0, 1), (1, 2)])
    assert backend.evaluate(connected, db)
    db = db.insert("E", (7, 7))  # 7 enters the domain (as a loop)
    assert backend.evaluate(connected, db)
    db = db.insert("E", (8, 9))
    assert backend.evaluate(connected, db)
    db = db.delete("E", (8, 9))  # 8 and 9 leave the domain again
    assert backend.evaluate(connected, db)
    no_loops = parse("forall x . ~E(x, x)")
    assert not backend.evaluate(no_loops, db)
    db = db.delete("E", (7, 7))
    assert backend.evaluate(no_loops, db)


def test_group_count_support_dies_and_returns():
    backend = CompiledBackend()
    two_successors = parse("exists x . exists>=2 y . E(x, y)")
    db = Database.graph([(0, 1), (0, 2)])
    assert backend.evaluate(two_successors, db)
    db = db.delete("E", (0, 2))
    assert not backend.evaluate(two_successors, db)
    db = db.insert("E", (0, 3)).insert("E", (0, 4))
    assert backend.evaluate(two_successors, db)


def test_branching_streams_from_one_base_state():
    # rejected-update shape: many children of the same base, then a commit
    backend = CompiledBackend()
    no_loops = parse("forall x . ~E(x, x)")
    base = random_graph(8, 0.3, seed=2)
    base = base.delete("E", *[(v, v) for v in range(8)])
    assert backend.evaluate(no_loops, base)
    for v in range(5):
        candidate = base.insert("E", (v, v))
        assert not backend.evaluate(no_loops, candidate)  # each rejected
    committed = base.insert("E", (0, 1))
    assert backend.evaluate(no_loops, committed)


def test_explicit_domain_is_treated_as_fixed():
    backend = CompiledBackend()
    formula = parse("exists x . E(x, x)")
    domain = frozenset(range(4))
    db = Database.graph([(0, 1)])
    assert not backend.evaluate(formula, db, domain=domain)
    db = db.insert("E", (2, 2))
    assert backend.evaluate(formula, db, domain=domain)
    db = db.insert("E", (9, 9))  # outside the fixed domain
    assert backend.evaluate(formula, db, domain=domain)
    assert not backend.evaluate(parse("exists x . E(x, 9) & E(9, x)"), db, domain=domain)


def test_bulk_deltas_update_in_one_step():
    backend = CompiledBackend()
    symmetric = parse("forall x . forall y . E(x, y) -> E(y, x)")
    db = Database.graph([(a, b) for a in range(6) for b in range(6) if a < b])
    assert not backend.evaluate(symmetric, db)
    mirrored = db.apply_delta(
        Delta(inserted={"E": [(b, a) for (a, b) in db.edges]})
    )
    assert backend.evaluate(symmetric, mirrored)


# ---------------------------------------------------------------------------
# regressions
# ---------------------------------------------------------------------------


def _import_repro_with_backend(value: str) -> str:
    """Import ``repro`` in a fresh interpreter under ``REPRO_BACKEND=value``;
    assert it warned and fell back to ``compiled``, return the warnings."""
    code = (
        "import warnings\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    import repro\n"
        "    from repro.engine import active_backend\n"
        "assert any('REPRO_BACKEND' in str(w.message) for w in caught), caught\n"
        "assert active_backend().name == 'compiled'\n"
        "print('IMPORT-OK')\n"
        "print('\\n'.join(str(w.message) for w in caught))\n"
    )
    env = dict(os.environ)
    env["REPRO_BACKEND"] = value
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "IMPORT-OK" in proc.stdout
    return proc.stdout


def test_invalid_repro_backend_warns_instead_of_crashing_import():
    _import_repro_with_backend("compilde")  # the typo of the bug report


@pytest.mark.parametrize("name", ["sharded", "compiled-delta", "compiled-nodelta"])
def test_removed_sharded_backend_name_is_an_invalid_value(name):
    messages = _import_repro_with_backend(name)
    assert f"'{name}'" in messages
    assert "expected one of naive, compiled —" in messages
    assert "falling back to 'compiled'" in messages


def test_removed_parallel_backend_name_is_an_invalid_value():
    messages = _import_repro_with_backend("parallel")
    assert "'parallel'" in messages
    assert "falling back to 'compiled'" in messages


@pytest.mark.parametrize(
    "name", ["sharded", "parallel", "compiled-delta", "compiled-nodelta", "not-a-backend"]
)
def test_backend_from_name_rejects_the_removed_names(name):
    with pytest.raises(ValueError, match="naive, compiled"):
        backend_from_name(name)


def test_naive_fallback_results_are_memoised(monkeypatch):
    import repro.engine.backend as backend_module
    from repro.engine import CompileError

    def refuse(formula, variables):
        raise CompileError("forced")

    monkeypatch.setattr(backend_module, "compile_extension", refuse)
    backend = CompiledBackend()
    naive_calls = []
    original = NaiveBackend.extension

    def counting(self, formula, db, variables, signature, domain):
        naive_calls.append(formula)
        return original(self, formula, db, variables, signature, domain)

    monkeypatch.setattr(NaiveBackend, "extension", counting)
    formula = parse("exists x . E(x, x)")
    db = Database.graph([(0, 0)])
    assert backend.evaluate(formula, db)
    assert backend.evaluate(formula, db)
    assert backend.evaluate(formula, db)
    # the interpreter ran once; repeats were answered from the memo
    assert len(naive_calls) == 1
    assert backend.fallbacks == 1


def test_uncompilable_formulas_are_not_recompiled(monkeypatch):
    import repro.engine.backend as backend_module
    from repro.engine import CompileError

    attempts = []

    def refuse(formula, variables):
        attempts.append(formula)
        raise CompileError("forced")

    monkeypatch.setattr(backend_module, "compile_extension", refuse)
    backend = CompiledBackend()
    formula = parse("exists x . E(x, x)")
    for db in (Database.graph([(0, 0)]), Database.graph([(1, 2)])):
        backend.evaluate(formula, db)
    assert len(attempts) == 1  # the failure itself is cached


def test_cache_stats_is_consistent_and_locked():
    backend = CompiledBackend()
    db = Database.graph([(0, 1), (1, 2)])
    backend.evaluate(parse("exists x . exists y . E(x, y)"), db)
    stats = backend.cache_stats()
    assert stats["plans"] >= 1
    assert stats["memo"] >= 1
    backend.clear_caches()
    cleared = backend.cache_stats()
    assert cleared["plans"] == 0 and cleared["memo"] == 0


@pytest.mark.parametrize("name", ["naive", "compiled"])
def test_backend_from_name_builds_every_listed_backend(name):
    from repro.engine import BACKEND_NAMES

    assert name in BACKEND_NAMES
    assert backend_from_name(name).name == name


# ---------------------------------------------------------------------------
# the memo, and the one rule behind it: a miss runs the plan
# ---------------------------------------------------------------------------


def test_a_memo_hit_hands_out_a_copy():
    backend = CompiledBackend()
    formula = parse("E(x, y) & ~E(y, x)")
    db = Database.graph([(0, 1), (2, 3), (3, 2)])
    rows = backend.extension(formula, db, ("x", "y"))
    rows.add(("junk", "junk"))
    rows.discard((0, 1))
    assert backend.extension(formula, db, ("x", "y")) == {(0, 1)}


def test_an_extension_is_executed_in_full_and_memoised():
    backend = CompiledBackend()
    formula = parse("E(x, y) & E(y, x)")
    db = Database.graph([(0, 1), (1, 0), (1, 2)])
    expected = NAIVE.extension(formula, db, ("x", "y"))
    assert backend.extension(formula, db, ("x", "y")) == expected
    stats = backend.cache_stats()
    assert stats["streamed"] == 0 and stats["memo"] == 1
    assert "path: memo" in backend.explain(formula, db, ("x", "y"))
    assert backend.extension(formula, db, ("x", "y")) == expected
    assert backend.cache_stats()["memo"] == 1


def test_explain_runs_the_plan_and_memoises_nothing():
    backend = CompiledBackend()
    formula = parse("forall x . ~E(x, x)")
    db = Database.graph([(0, 1), (1, 2)])
    for _ in range(2):
        assert "path: streamed" in backend.explain(formula, db)
    stats = backend.cache_stats()
    assert stats["memo"] == 0 and stats["streamed"] == 0
    assert backend.evaluate(formula, db)
    assert backend.cache_stats()["streamed"] == 1


def test_a_dead_state_takes_its_memo_entries_with_it():
    # the memo is weakly keyed by database: a stream over ever-new states
    # keeps the entries of the states still alive, and no others
    import gc

    backend = CompiledBackend()
    db = Database.graph([(0, 1)])
    for step in range(30):
        for formula in FORMULAS:
            assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
        db = db.insert("E", (step + 1, step + 2))  # a new state every step
    gc.collect()
    assert backend.cache_stats()["memo"] == 0
    for formula in FORMULAS:
        backend.evaluate(formula, db)
    gc.collect()
    assert backend.cache_stats()["memo"] == len(FORMULAS)


def test_the_memo_keeps_an_explicit_domain_apart_from_the_default():
    backend = CompiledBackend()
    not_all_loops = parse("exists x . ~E(x, x)")
    db = Database.graph([(0, 0), (1, 1)])
    wider = frozenset({0, 1, 9})
    assert not backend.evaluate(not_all_loops, db)
    assert backend.evaluate(not_all_loops, db, domain=wider)
    assert not backend.evaluate(not_all_loops, db)
    assert backend.evaluate(not_all_loops, db, domain=iter(wider))  # one-shot
    assert backend.cache_stats()["streamed"] == 2


def test_threads_along_one_stream_agree_with_the_interpreter():
    import threading

    backend = CompiledBackend()
    states = [Database.graph([(0, 1), (1, 2)])]
    for step in range(12):
        states.append(apply_update(states[-1], ("insert", "delete")[step % 3 == 2],
                                   (step % 5, (step * 2 + 1) % 5)))
    expected = [[NAIVE.evaluate(f, db) for f in FORMULAS] for db in states]
    errors = []

    def worker(offset):
        try:
            for i in range(len(states)):
                index = (i + offset) % len(states)
                got = [backend.evaluate(f, states[index]) for f in FORMULAS]
                assert got == expected[index], (index, got)
        except AssertionError as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k * 3,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # every (formula, state) pair ran its plan at least once (a no-op update
    # gives back its state, and equal states share a memo), and at most
    # once per thread
    streamed = backend.cache_stats()["streamed"]
    pairs = len(set(states)) * len(FORMULAS)
    assert pairs <= streamed <= len(threads) * pairs
