"""WPC-verified admission: classification, verdict caching, guard handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Constraint,
    IntegrityMaintainer,
    RuntimeCheckPolicy,
    StaticPreconditionPolicy,
    classify_preservation,
)
from repro.core.simplification import denial_form
from repro.db import Database, GRAPH_SCHEMA, MemoryEngine, Store
from repro.engine import NaiveBackend
from repro.logic import parse
from repro.logic.syntax import BOTTOM, TOP
from repro.service import AdmissionController, TransactionService, TransactionTemplate
from repro.transactions import FOProgram, InsertTuple
from repro.service.workloads import (
    NO_LOOPS,
    NO_TRIANGLES,
    forward_graph,
    standard_constraints,
    standard_templates,
    _insert_edge_program,
    _link_forward_program,
    _unlink_program,
)

from strategies import maybe_seed


class TestClassifyPreservation:
    def test_forward_insert_is_static_for_no_loops(self):
        verdict = classify_preservation(_link_forward_program(0, 1), NO_LOOPS)
        assert verdict.mode == "static"

    def test_loop_insert_is_guarded_for_no_loops(self):
        verdict = classify_preservation(_insert_edge_program(2, 2), NO_LOOPS)
        assert verdict.mode == "guarded"
        assert verdict.guard is not None

    def test_delete_is_static_for_universal_constraints(self):
        verdict = classify_preservation(_unlink_program(0, 1), NO_TRIANGLES)
        assert verdict.mode == "static"

    def test_semantic_constraint_falls_back_to_runtime(self):
        class Semantic:
            def holds(self, db):
                return True

        verdict = classify_preservation(_link_forward_program(0, 1), Semantic())
        assert verdict.mode == "runtime"

    def test_opaque_transaction_falls_back_to_runtime(self):
        from repro.transactions.base import FunctionTransaction

        opaque = FunctionTransaction(lambda db: db, name="opaque")
        verdict = classify_preservation(opaque, NO_LOOPS)
        assert verdict.mode == "runtime"


class TestController:
    def test_register_classifies_against_every_constraint(self):
        controller = AdmissionController(standard_constraints())
        link, unlink, add_edge = standard_templates()
        verdicts = controller.register(link)
        assert verdicts["no-loops"].mode == "static"
        assert verdicts["no-triangles"].mode == "guarded"
        verdicts = controller.register(unlink)
        assert {v.mode for v in verdicts.values()} == {"static"}
        verdicts = controller.register(add_edge)
        assert verdicts["no-loops"].mode == "guarded"
        assert verdicts["no-triangles"].mode == "guarded"

    def test_worst_sample_wins(self):
        # one sample is a safe forward edge, one is a loop: the template as a
        # whole must be treated at the guarded level
        controller = AdmissionController([Constraint("no-loops", NO_LOOPS)])
        template = TransactionTemplate(
            "sometimes-loopy", _insert_edge_program, samples=((0, 1), (2, 2))
        )
        verdicts = controller.register(template)
        assert verdicts["no-loops"].mode == "guarded"

    def test_register_is_idempotent_and_cached(self):
        controller = AdmissionController(standard_constraints())
        template = standard_templates()[0]
        first = controller.register(template)
        classified = controller.classified
        second = controller.register(template)
        assert controller.classified == classified  # no re-classification
        assert {k: v.mode for k, v in first.items()} == {
            k: v.mode for k, v in second.items()
        }

    def test_verdicts_for_unknown_template_is_none(self):
        controller = AdmissionController(standard_constraints())
        assert controller.verdicts_for("nope") is None
        assert controller.verdicts_for(None) is None

    def test_register_writes_no_precondition_table(self):
        constraints = standard_constraints()
        controller = AdmissionController(constraints)
        for template in standard_templates():
            controller.register(template)
        assert all(not c.preconditions for c in constraints)

    @pytest.mark.parametrize("warm", [False, True])
    def test_policies_agree_on_edges_after_registration(self, warm):
        """A template's registration must not leave one sample's precondition
        behind under the template's name for the static policy to apply to
        every other instance."""
        constraints = standard_constraints()
        controller = AdmissionController(constraints)
        for template in standard_templates():
            controller.register(template)
        initial = forward_graph(50, 3)
        for edge, kept in (((5, 40), True), ((41, 7), True), ((7, 7), False)):
            outcomes = []
            for policy in (StaticPreconditionPolicy(), RuntimeCheckPolicy()):
                store = Store(GRAPH_SCHEMA, initial, engine=MemoryEngine())
                maintainer = IntegrityMaintainer(store, constraints, policy)
                if warm:
                    assert maintainer.invariant_holds()
                report = maintainer.run([_insert_edge_program(*edge)])
                outcomes.append((report.committed, store.snapshot()))
            assert outcomes[0] == outcomes[1], edge
            assert outcomes[0][0] == kept, edge

    def test_derived_guards_are_used(self):
        controller = AdmissionController(standard_constraints())
        add_edge = standard_templates()[2]
        controller.register(add_edge)
        no_loops, no_triangles = controller.constraints
        # a loop is refused by its shape alone; any other edge is fine
        assert controller.guard_for("add-edge", no_loops, (3, 3)) == BOTTOM
        assert controller.guard_for("add-edge", no_loops, (3, 4)) == TOP
        # the 2-path probe: one quantifier, two atoms
        triangle = controller.guard_for("add-edge", no_triangles, (3, 4))
        assert triangle.quantifier_rank() == 1 and len(list(triangle.atoms())) == 2
        # memoised per shape: another edge of the same shape is a hit
        hits = controller.guard_cache_hits
        controller.guard_for("add-edge", no_loops, (8, 9))
        assert controller.guard_cache_hits == hits + 1

    def test_guard_cache_holds_one_entry_per_shape(self):
        controller = AdmissionController(standard_constraints())
        controller.register(standard_templates()[2])
        for a in range(100):
            for b in range(100):
                for constraint in controller.constraints:
                    controller.guard_for("add-edge", constraint, (a, b))
        per_pair = {}
        for template, constraint, _shape in controller._guard_cache:
            per_pair[(template, constraint)] = per_pair.get((template, constraint), 0) + 1
        assert per_pair and max(per_pair.values()) <= 2
        assert controller.guard_cache_hits >= 2 * 100 * 100 - 4

    def test_pairs_outside_the_fragment_take_the_wpc_path(self):
        no_isolated = Constraint("no-isolated", parse("forall x . exists y . E(x, y) | E(y, x)"))
        controller = AdmissionController([no_isolated])
        controller.register(standard_templates()[2])
        (row,) = controller.stats()["guards"]
        assert row["source"] == "wpc"
        guard = controller.guard_for("add-edge", no_isolated, (3, 4))
        assert guard.size() > 1

    def test_stats_list_each_pair(self):
        controller = AdmissionController(standard_constraints())
        for template in standard_templates():
            controller.register(template)
        rows = {(r["template"], r["constraint"]): r for r in controller.stats()["guards"]}
        assert len(rows) == 6
        assert {r["source"] for r in rows.values()} == {"derived"}
        triangle = rows[("add-edge", "no-triangles")]
        assert triangle["mode"] == "guarded"
        assert triangle["guard_size"] < triangle["wpc_size"]
        assert rows[("unlink", "no-loops")]["guard_size"] == 1  # true

    def test_guard_for_unregistered_template_raises(self):
        from repro.service import ServiceError

        controller = AdmissionController(standard_constraints())
        with pytest.raises(ServiceError):
            controller.guard_for("ghost", controller.constraints[0], ())


# ---------------------------------------------------------------------------
# static means proved: constraints outside the denial fragment
# ---------------------------------------------------------------------------

def _out_neighbours(k):
    """``x`` has ``k`` pairwise distinct out-neighbours, spelled out."""
    names = "abcd"[:k]
    quantifiers = " . ".join(f"exists {v}" for v in names)
    atoms = [f"E(x, {v})" for v in names]
    distinct = [f"~({u} = {v})" for i, u in enumerate(names) for v in names[i + 1:]]
    return f"({quantifiers} . {' & '.join(atoms + distinct)})"


def _service(edges, constraint):
    store = Store(GRAPH_SCHEMA, Database.graph(edges), engine=MemoryEngine())
    return TransactionService(store, [constraint])


def test_a_node_with_four_out_neighbours_is_not_waived():
    """No graph on at most 3 nodes violates the constraint, so a sweep over
    them calls ``add-edge`` static; a fourth out-neighbour of a loop-free
    node is the counterexample."""
    formula = parse(f"forall x . {_out_neighbours(4)} -> E(x, x)")
    assert denial_form(formula) is None
    service = _service([(0, 1), (0, 2), (0, 3)], Constraint("four-out-loop", formula))
    add_edge = standard_templates()[2]
    assert service.register(add_edge)["four-out-loop"].mode == "guarded"
    outcome = service.execute(_insert_edge_program(0, 99), template="add-edge", params=(0, 99))
    assert outcome.status == "rejected"
    assert service.execute(_insert_edge_program(1, 99), template="add-edge", params=(1, 99)).status == "committed"
    assert NaiveBackend().evaluate(formula, service.snapshot())


def _add_pair_program(a, b):
    return FOProgram([InsertTuple("E", a, b), InsertTuple("E", b, a)], name="add-pair")


#: insert and delete templates; the samples cover both shapes of an edge's
#: constants (distinct, equal), so a static verdict speaks for every instance
OUT_OF_FRAGMENT_TEMPLATES = {
    "add-edge": TransactionTemplate("add-edge", _insert_edge_program, samples=((0, 1), (2, 2))),
    "add-pair": TransactionTemplate("add-pair", _add_pair_program, samples=((0, 1), (2, 2))),
    "unlink": TransactionTemplate("unlink", _unlink_program, samples=((0, 1), (2, 2))),
}

#: a small grammar of constraints with no denial form: an existential under
#: the universal prefix, positive atoms in the consequent, counting
_EDGE_CONSEQUENTS = (
    "exists w . E(y, w)",
    "exists w . E(w, x) & E(w, y)",
    "E(y, x)",
    "E(x, x) | E(y, y)",
    "exists>=2 w . E(x, w)",
)
_NODE_CONSEQUENTS = ("E(x, x)", "exists y . E(y, x)")

out_of_fragment = st.one_of(
    st.builds(
        "forall x . forall y . E(x, y) -> {}".format,
        st.sampled_from(_EDGE_CONSEQUENTS),
    ),
    st.builds(
        "forall x . (exists>={} y . E(x, y)) -> {}".format,
        st.sampled_from((2, 3)),
        st.sampled_from(_NODE_CONSEQUENTS),
    ),
    # no graph on 3 nodes has a loop-free node with 3 out-neighbours
    st.builds(
        "forall x . {} -> {}".format,
        st.sampled_from((2, 3)).map(_out_neighbours),
        st.sampled_from(_NODE_CONSEQUENTS),
    ),
).map(parse)


@maybe_seed
@settings(max_examples=15, deadline=None)
@given(
    out_of_fragment,
    st.integers(min_value=5, max_value=8).flatmap(
        lambda nodes: st.tuples(
            st.frozensets(st.tuples(*[st.integers(0, nodes - 1)] * 2), max_size=2 * nodes),
            st.lists(
                st.tuples(
                    st.sampled_from(sorted(OUT_OF_FRAGMENT_TEMPLATES)),
                    st.integers(0, nodes - 1),
                    st.integers(0, nodes - 1),
                ),
                min_size=1,
                max_size=6,
            ),
        )
    ),
)
def test_every_committed_state_satisfies_a_constraint_outside_the_fragment(formula, run):
    """Drive the service with drawn templates and check each outcome with
    the naive oracle: a transaction commits iff its post-state satisfies the
    constraint, from a consistent start (the empty graph when the drawn one
    is not)."""
    assert denial_form(formula) is None
    edges, operations = run
    oracle = NaiveBackend()
    if not oracle.evaluate(formula, Database.graph(edges)):
        edges = ()
    service = _service(edges, Constraint("drawn", formula))
    for template in OUT_OF_FRAGMENT_TEMPLATES.values():
        service.register(template)
    for name, a, b in operations:
        program = OUT_OF_FRAGMENT_TEMPLATES[name].build(a, b)
        pre = service.snapshot()
        post = program.apply(pre)
        outcome = service.execute(program, template=name, params=(a, b))
        if oracle.evaluate(formula, post):
            assert outcome.status == "committed", (name, a, b, outcome.reason)
            assert service.snapshot() == post
        else:
            assert outcome.status in ("rejected", "aborted"), (name, a, b)
            assert service.snapshot() == pre
