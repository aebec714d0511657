"""Incremental (delta) plan evaluation: agreement, coverage, regressions.

Three layers of defence:

* hypothesis streams — random update sequences against a panel of formulas
  covering every delta rule (scans, joins, semijoins, antijoins, unions,
  complements, counting, equality, constants), evaluated by a ``verify``-mode
  backend (every incremental result is shadowed by a full execution and must
  match) *and* cross-checked against the naive interpreter;
* targeted operator streams — deletions that kill the last support of a
  group/join key, domain growth and shrinkage, rollback-style branching;
* regressions for the satellite bugfixes (``REPRO_BACKEND`` typos, the
  naive-fallback memo, locked ``cache_stats``).
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

#: one formula per delta rule family
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
def test_incremental_stream_agrees_with_full_and_naive(base, updates):
    backend = CompiledBackend(delta="verify")  # every hit is shadow-checked
    db = Database.graph(base)
    for formula in FORMULAS:
        assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
    for op, e in updates:
        db = apply_update(db, op, e)
        for formula in FORMULAS:
            assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)


def test_incremental_path_is_actually_taken():
    backend = CompiledBackend(delta="on")
    formula = parse("forall x . forall y . E(x, y) -> E(y, x)")
    db = random_graph(10, 0.3, seed=5)
    backend.evaluate(formula, db)
    for step in range(20):
        db = db.insert("E", (100 + step, 101 + step))  # always effective
        backend.evaluate(formula, db)
    assert backend.delta_hits == 20


def test_extensions_are_updated_incrementally_not_only_sentences():
    backend = CompiledBackend(delta="verify")
    formula = parse("E(x, y) & ~E(y, x)")
    db = Database.graph([(0, 1), (1, 0), (2, 3)])
    assert backend.extension(formula, db, ("x", "y")) == {(2, 3)}
    db = db.insert("E", (3, 2)).insert("E", (4, 5))
    assert backend.extension(formula, db, ("x", "y")) == {(4, 5)}
    db = db.delete("E", (1, 0))
    assert backend.extension(formula, db, ("x", "y")) == {(0, 1), (4, 5)}
    assert backend.delta_hits >= 2


def test_joins_keyed_on_the_whole_left_row_patch_the_rows_forward():
    # R(x, y) & condition, DeleteWhere's plan: the (semi/anti)join key is the
    # whole left row, so the left index is the relation's rows themselves
    backend = CompiledBackend(delta="verify")
    formulas = [parse("E(x, y) & x = y"), parse("E(x, y) & ~E(y, x)")]
    db = Database.graph((i, i % 9) for i in range(80))  # partitioned rows
    updates = [("insert", (40, 40)), ("insert", (2, 4)), ("insert", (4, 2)),
               ("delete", (40, 40)), ("delete", (0, 0)), ("delete", (9, 0))]
    for op, e in [(None, None)] + updates:
        db = apply_update(db, op, e) if op else db
        for formula in formulas:
            expected = NAIVE.extension(formula, db, ("x", "y"))
            assert backend.extension(formula, db, ("x", "y")) == expected
    assert backend.delta_hits == 2 * len(updates)


def test_domain_growth_and_shrinkage():
    backend = CompiledBackend(delta="verify")
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
    backend = CompiledBackend(delta="verify")
    two_successors = parse("exists x . exists>=2 y . E(x, y)")
    db = Database.graph([(0, 1), (0, 2)])
    assert backend.evaluate(two_successors, db)
    db = db.delete("E", (0, 2))
    assert not backend.evaluate(two_successors, db)
    db = db.insert("E", (0, 3)).insert("E", (0, 4))
    assert backend.evaluate(two_successors, db)


def test_branching_streams_from_one_base_state():
    # rejected-update shape: many children of the same base, then a commit
    backend = CompiledBackend(delta="verify")
    no_loops = parse("forall x . ~E(x, x)")
    base = random_graph(8, 0.3, seed=2)
    base = base.delete("E", *[(v, v) for v in range(8)])
    assert backend.evaluate(no_loops, base)
    for v in range(5):
        candidate = base.insert("E", (v, v))
        assert not backend.evaluate(no_loops, candidate)  # each rejected
    committed = base.insert("E", (0, 1))
    assert backend.evaluate(no_loops, committed)
    assert backend.delta_hits >= 5


def test_lazily_built_join_state_serves_every_successor_of_its_state(monkeypatch):
    # rejected-update shape again: what the first child builds from the
    # parent's rows (a join's key indexes, a partitioned result) is a pure
    # function of them, so the second child of the same parent finds it
    from repro.db.delta import BucketMap, RowSet

    calls = {"build": 0, "partition": 0}
    build, of = BucketMap.build.__func__, RowSet.of.__func__

    def counting_build(cls, rows, key_of):
        calls["build"] += 1
        return build(cls, rows, key_of)

    def counting_of(cls, rows):
        calls["partition"] += not isinstance(rows, RowSet)
        return of(cls, rows)

    monkeypatch.setattr(BucketMap, "build", classmethod(counting_build))
    monkeypatch.setattr(RowSet, "of", classmethod(counting_of))
    backend = CompiledBackend(delta="on", optimizer="off")
    no_triangles = FORMULAS[2]
    base = Database.graph([(a, (a + j) % 40) for a in range(40) for j in (1, 2)])
    backend.evaluate(no_triangles, base)
    assert calls["build"] == 0
    backend.evaluate(no_triangles, base.insert("E", (0, 20)))
    first_child = dict(calls)
    assert first_child["build"] >= 2  # each side of a join was keyed ...
    backend.evaluate(no_triangles, base.insert("E", (1, 21)))
    backend.evaluate(no_triangles, base.delete("E", (2, 3)))
    assert calls == first_child  # ... once, for all three children
    assert backend.delta_hits == 3


def test_explicit_domain_is_treated_as_fixed():
    backend = CompiledBackend(delta="verify")
    formula = parse("exists x . E(x, x)")
    domain = frozenset(range(4))
    db = Database.graph([(0, 1)])
    assert not backend.evaluate(formula, db, domain=domain)
    db = db.insert("E", (2, 2))
    assert backend.evaluate(formula, db, domain=domain)
    db = db.insert("E", (9, 9))  # outside the fixed domain
    assert backend.evaluate(formula, db, domain=domain)
    assert not backend.evaluate(parse("exists x . E(x, 9) & E(9, x)"), db, domain=domain)


def test_delta_off_backend_never_walks_provenance():
    backend = CompiledBackend(delta="off")
    formula = parse("forall x . ~E(x, x)")
    db = Database.graph([(0, 1)])
    backend.evaluate(formula, db)
    backend.evaluate(formula, db.insert("E", (1, 2)))
    assert backend.delta_hits == 0
    assert backend.delta_misses == 0


def test_bulk_deltas_update_in_one_step():
    backend = CompiledBackend(delta="verify")
    symmetric = parse("forall x . forall y . E(x, y) -> E(y, x)")
    db = Database.graph([(a, b) for a in range(6) for b in range(6) if a < b])
    assert not backend.evaluate(symmetric, db)
    mirrored = db.apply_delta(
        Delta(inserted={"E": [(b, a) for (a, b) in db.edges]})
    )
    assert backend.evaluate(symmetric, mirrored)
    assert backend.delta_hits >= 1


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


def test_removed_sharded_backend_name_is_an_invalid_value():
    messages = _import_repro_with_backend("sharded")
    assert "'sharded'" in messages
    assert "naive, compiled, compiled-delta, compiled-nodelta" in messages
    assert "falling back to 'compiled'" in messages


def test_removed_parallel_backend_name_is_an_invalid_value():
    messages = _import_repro_with_backend("parallel")
    assert "'parallel'" in messages
    assert "falling back to 'compiled'" in messages


@pytest.mark.parametrize("name", ["sharded", "parallel"])
def test_backend_from_name_rejects_the_removed_names(name):
    with pytest.raises(ValueError, match="naive, compiled"):
        backend_from_name(name)


def test_backend_from_name_knows_the_delta_variants():
    assert backend_from_name("compiled-delta").delta_mode == "on"
    assert backend_from_name("compiled-nodelta").delta_mode == "off"
    with pytest.raises(ValueError, match="naive"):
        backend_from_name("not-a-backend")


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
    assert "states" in stats
    backend.clear_caches()
    cleared = backend.cache_stats()
    assert cleared["plans"] == 0 and cleared["memo"] == 0 and cleared["states"] == 0
