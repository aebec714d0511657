"""Cross-configuration conformance: every backend agrees with the oracle.

The matrix is **backend × optimizer**: the compiled engine as configured
and with the optimizer off — both compared against the naive recursive
interpreter (the semantics oracle) on grammar-generated formulas crossed
with random graph databases, under default and explicitly enlarged/shrunk
quantification domains.

The generators live in ``tests/strategies.py`` (shared with the property
suites); ``REPRO_SEED`` pins them for exact replay, and every failure
message names the configuration that diverged.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.db import Database, chain, cycle, random_graph
from repro.engine import NaiveBackend
from repro.logic import parse
from repro.logic.syntax import Atom, BOTTOM, CountingExists, Eq, Exists, Forall, Or
from repro.logic.terms import Const

from strategies import (
    CONSTANTS,
    VARIABLES,
    backend_matrix,
    formulas,
    graphs,
    maybe_seed,
)

ORACLE = NaiveBackend()
MATRIX = backend_matrix()


def assert_matrix_extension(formula, db, variables, domain=None):
    expected = ORACLE.extension(formula, db, variables, domain=domain)
    for name, backend in MATRIX:
        got = backend.extension(formula, db, variables, domain=domain)
        assert got == expected, (
            f"[{name}] extension mismatch for {formula} on {db!r} "
            f"(domain={domain!r}): {sorted(got, key=repr)[:5]} != "
            f"{sorted(expected, key=repr)[:5]}"
        )


def assert_matrix_sentence(sentence, db):
    expected = ORACLE.evaluate(sentence, db)
    for name, backend in MATRIX:
        got = backend.evaluate(sentence, db)
        assert got == expected, (
            f"[{name}] sentence mismatch for {sentence} on {db!r}: "
            f"{got} != {expected}"
        )


@maybe_seed
@given(formula=formulas(), db=graphs())
def test_extensions_conform(formula, db):
    assert_matrix_extension(formula, db, sorted(formula.free_variables()))


@maybe_seed
@given(formula=formulas(), db=graphs())
def test_sentences_conform(formula, db):
    closed = formula
    for variable in sorted(formula.free_variables()):
        closed = Exists(variable, closed)
    assert_matrix_sentence(closed, db)


@maybe_seed
@given(formula=formulas(), db=graphs())
def test_extra_variables_conform(formula, db):
    """Variables beyond the free ones range over the domain in every backend."""
    variables = sorted(set(VARIABLES) | formula.free_variables())
    assert_matrix_extension(formula, db, variables)


@maybe_seed
@given(
    formula=formulas(),
    db=graphs(),
    extra=st.frozensets(st.integers(10, 13), max_size=3),
)
def test_enlarged_domain_conforms(formula, db, extra):
    """Gamma(D)-style quantification domains larger than the active domain."""
    domain = db.active_domain | extra
    assert_matrix_extension(formula, db, sorted(formula.free_variables()), domain)


@maybe_seed
@given(formula=formulas(), db=graphs())
def test_shrunk_domain_conforms(formula, db):
    domain = frozenset(
        v for v in db.active_domain if isinstance(v, int) and v % 2 == 0
    )
    assert_matrix_extension(formula, db, sorted(formula.free_variables()), domain)


@maybe_seed
@given(db=graphs(), value=st.sampled_from(CONSTANTS), threshold=st.integers(0, 4))
def test_counting_with_constants_conforms(db, value, threshold):
    """Counting bodies mentioning (possibly inactive) constants."""
    formula = CountingExists(
        "y", threshold, Or(Atom("E", "x", "y"), Eq("y", Const(value)))
    )
    assert_matrix_extension(formula, db, ["x"])


class TestDeterministicCorners:
    """Hand-picked corners the random sweep visits rarely, across the matrix."""

    def test_empty_database(self):
        empty = Database.graph([])
        assert_matrix_sentence(parse("forall x . E(x, x)"), empty)
        assert_matrix_sentence(parse("exists x . x = x"), empty)
        assert_matrix_extension(CountingExists("x", 0, BOTTOM), empty, [])

    def test_constants_outside_active_domain(self):
        db = chain(3)
        assert_matrix_sentence(parse("E(0, 1) & ~E(99, 100)"), db)
        assert_matrix_sentence(parse("exists x . x = 99"), db)
        assert_matrix_extension(Eq("x", 99), db, ["x"])
        assert_matrix_sentence(parse("forall x . ~(x = 99)"), db)

    def test_vacuous_quantifiers(self):
        for db in (Database.graph([]), cycle(2)):
            assert_matrix_sentence(Exists("x", parse("x = x")), db)
            assert_matrix_sentence(Forall("x", BOTTOM), db)

    def test_counting_thresholds(self):
        db = Database.graph([(0, 1), (0, 2), (0, 3), (1, 2)])
        for threshold in range(5):
            assert_matrix_extension(
                CountingExists("y", threshold, Atom("E", "x", "y")), db, ["x"]
            )

    def test_deep_alternation(self):
        db = random_graph(5, 0.4, seed=13)
        formula = parse(
            "forall x . exists y . forall z . E(x, y) -> (E(y, z) -> E(x, z))"
        )
        assert_matrix_sentence(formula, db)

    def test_interpreted_signature(self):
        from repro.logic import arithmetic_signature

        signature = arithmetic_signature()
        db = chain(4)
        formula = parse("forall x y . E(x, y) -> leq(x, y)", predicates=["leq"])
        expected = ORACLE.evaluate(formula, db, signature=signature)
        for name, backend in MATRIX:
            got = backend.evaluate(formula, db, signature=signature)
            assert got == expected, f"[{name}] interpreted-signature mismatch"
