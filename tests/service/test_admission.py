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
from repro.serve import WireTemplate
from repro.service import (
    AdmissionController,
    TransactionService,
    TransactionTemplate,
    build_service,
)
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
    def test_each_shape_is_classified_against_every_constraint(self):
        controller = AdmissionController(standard_constraints())
        verdicts = controller.guard_for(_link_forward_program(0, 1))
        assert verdicts["no-loops"].mode == "static"
        assert verdicts["no-triangles"].mode == "guarded"
        verdicts = controller.guard_for(_unlink_program(0, 1))
        assert {v.mode for v in verdicts.values()} == {"static"}
        verdicts = controller.guard_for(_insert_edge_program(2, 2))
        assert verdicts["no-loops"].mode == "guarded"
        assert verdicts["no-triangles"].mode == "guarded"
        assert controller.classified == 3 * 2

    def test_registration_classifies_nothing_and_keeps_the_first_builder(self):
        controller = AdmissionController(standard_constraints())
        link = standard_templates()[0]
        assert controller.register(link) is None
        controller.register(TransactionTemplate(link.name, _unlink_program))
        assert controller.template(link.name) is link
        assert controller.classified == 0 and controller.stats()["guards"] == []

    def test_a_shape_is_classified_once_whatever_builds_it(self):
        controller = AdmissionController(standard_constraints())
        controller.guard_for(_link_forward_program(0, 1))
        classified, hits = controller.classified, controller.guard_cache_hits
        # another template's instance, and a bare program, of the same shape
        controller.guard_for(_insert_edge_program(7, 3))
        controller.guard_for(FOProgram([InsertTuple("E", 4, 5)], name="anything"))
        assert controller.classified == classified
        assert controller.guard_cache_hits == hits + 2

    def test_a_controller_sharing_verdicts_has_a_name_table_of_its_own(self):
        controller = AdmissionController(standard_constraints())
        link, unlink = standard_templates()[:2]
        controller.register(link)
        other = controller.sharing_verdicts()
        assert other.template(link.name) is None
        other.register(TransactionTemplate(link.name, _unlink_program))
        other.register(unlink)
        assert controller.template(link.name) is link
        assert controller.template(unlink.name) is None
        assert other.template(link.name).build is _unlink_program

    def test_a_shape_classified_by_one_controller_is_a_hit_for_the_other(self):
        controller = AdmissionController(standard_constraints())
        other = controller.sharing_verdicts()
        first = controller.guard_for(_insert_edge_program(2, 2))
        again = other.guard_for(_insert_edge_program(5, 5))
        assert (controller.classified, other.classified) == (2, 0)
        assert (controller.guard_cache_hits, other.guard_cache_hits) == (0, 1)
        assert {name: v.mode for name, v in again.items()} == {
            name: v.mode for name, v in first.items()
        }
        assert other.stats()["guards"] == controller.stats()["guards"]

    def test_register_writes_no_precondition_table(self):
        constraints = standard_constraints()
        controller = AdmissionController(constraints)
        for template in standard_templates():
            controller.register(template)
            controller.guard_for(template.build(3, 3))
            controller.guard_for(template.build(3, 4))
        assert all(not c.preconditions for c in constraints)

    @pytest.mark.parametrize("warm", [False, True])
    def test_policies_agree_on_edges_after_registration(self, warm):
        """Judging a template's instances must not leave one instance's
        precondition behind under the template's name for the static policy
        to apply to every other instance."""
        constraints = standard_constraints()
        controller = AdmissionController(constraints)
        for template in standard_templates():
            controller.register(template)
            controller.guard_for(template.build(0, 1))
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
        # a loop is refused by its shape alone; any other edge is fine
        loop = controller.guard_for(_insert_edge_program(3, 3))["no-loops"]
        assert loop.mode == "guarded" and loop.guard == BOTTOM
        edge = controller.guard_for(_insert_edge_program(3, 4))
        assert edge["no-loops"].mode == "static" and edge["no-loops"].guard == TOP
        # the 2-path probe: one quantifier, two atoms, at the edge's constants
        triangle = edge["no-triangles"].guard
        assert triangle.quantifier_rank() == 1 and len(list(triangle.atoms())) == 2
        assert {value for atom in triangle.atoms() for value in atom.constants()} == {3, 4}
        # memoised per shape: another edge of the same shape is a hit
        hits = controller.guard_cache_hits
        controller.guard_for(_insert_edge_program(8, 9))
        assert controller.guard_cache_hits == hits + 1

    def test_the_cache_holds_one_entry_per_shape(self):
        controller = AdmissionController(standard_constraints())
        for a in range(100):
            for b in range(100):
                controller.guard_for(_insert_edge_program(a, b))
        assert len(controller._shapes) == 2  # an edge, a loop
        assert controller.guard_cache_hits == 100 * 100 - 2

    def test_a_program_with_no_shape_is_classified_uncached(self):
        from repro.transactions import InsertWhere

        controller = AdmissionController([Constraint("no-loops", NO_LOOPS)])
        symmetrise = FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))])
        verdict = controller.guard_for(symmetrise)["no-loops"]
        assert verdict.mode == "guarded" and verdict.source == "wpc"
        controller.guard_for(symmetrise)
        assert controller.classified == 0 and controller.guard_cache_hits == 0

    def test_pairs_outside_the_fragment_take_the_wpc_path(self):
        no_isolated = Constraint("no-isolated", parse("forall x . exists y . E(x, y) | E(y, x)"))
        controller = AdmissionController([no_isolated])
        guard = controller.guard_for(_insert_edge_program(3, 4))["no-isolated"].guard
        assert guard.size() > 1
        (row,) = controller.stats()["guards"]
        assert row["source"] == "wpc"

    def test_stats_list_each_shape_and_constraint(self):
        controller = AdmissionController(standard_constraints())
        for program in (
            _link_forward_program(0, 1), _unlink_program(0, 1), _insert_edge_program(2, 2),
            _insert_edge_program(5, 6),  # the first shape again: no new row
        ):
            controller.guard_for(program)
        rows = {(r["shape"], r["constraint"]): r for r in controller.stats()["guards"]}
        assert len(rows) == 6
        assert {r["source"] for r in rows.values()} == {"derived"}
        triangle = rows[("insert E($0, $1)", "no-triangles")]
        assert triangle["mode"] == "guarded"
        assert triangle["guard_size"] < triangle["wpc_size"]
        assert rows[("insert E($0, $0)", "no-loops")]["mode"] == "guarded"
        unlink = next(r for (shape, _), r in rows.items() if shape.startswith("delete E"))
        assert unlink["guard_size"] == 1  # true


def _only(constraint):
    service = TransactionService(
        Store(GRAPH_SCHEMA, forward_graph(10, 2), engine=MemoryEngine()), [constraint]
    )
    for template in standard_templates():
        service.register(template)
    return service


def test_a_loop_under_a_forward_template_is_judged_as_a_loop():
    """``link-forward``'s usual instances have two distinct constants; a
    loop instance is another shape, and no name lends it their proof."""
    service = _only(Constraint("no-loops", NO_LOOPS))
    outcome = service.execute(
        _link_forward_program(5, 5), template="link-forward", params=(5, 5)
    )
    assert outcome.status == "rejected", outcome
    assert service.invariant_holds()


def test_a_bare_program_named_like_a_static_template_is_judged_by_its_shape():
    """``unlink`` is static for both constraints; an insert named ``unlink``
    is an insert."""
    service = build_service(Database.graph([(1, 2), (2, 3)]))
    outcome = service.execute(FOProgram([InsertTuple("E", 3, 3)], name="unlink"))
    assert outcome.status == "rejected", outcome
    assert service.invariant_holds()


def test_a_template_name_belongs_to_the_service_that_registered_it():
    """Two standard services share the shape -> verdict cache, not their
    template names: the second service's ``tidy`` is its own insert, not the
    first's delete."""
    delete = WireTemplate({"name": "tidy", "ops": [{"delete": ["E", ["$0", "$1"]]}]})
    insert = WireTemplate({"name": "tidy", "ops": [{"insert": ["E", ["$0", "$1"]]}]})
    first = build_service(Database.graph([(1, 2), (2, 3)]))
    second = build_service(Database.graph([(1, 2), (2, 3)]))
    first.register(delete.admission_template())
    second.register(insert.admission_template())
    outcome = second.execute(insert.tracked_work((7, 7)), template="tidy", params=(7, 7))
    assert outcome.status == "rejected", outcome
    assert second.invariant_holds()
    assert first.execute(
        delete.tracked_work((1, 2)), template="tidy", params=(1, 2)
    ).status == "committed"


def test_each_standard_service_holds_the_standard_templates():
    first = build_service(Database.graph([(1, 2)]))
    second = build_service(Database.graph([(1, 2)]))
    names = [template.name for template in standard_templates()]
    for service in (first, second):
        assert all(service.admission.template(name) is not None for name in names)
    first.register(TransactionTemplate("only-first", _unlink_program))
    assert first.admission.template("only-first") is not None
    assert second.admission.template("only-first") is None


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
    service.register(add_edge)
    verdicts = service.admission.guard_for(_insert_edge_program(0, 99))
    assert verdicts["four-out-loop"].mode == "guarded"
    outcome = service.execute(_insert_edge_program(0, 99), template="add-edge", params=(0, 99))
    assert outcome.status == "rejected"
    assert service.execute(_insert_edge_program(1, 99), template="add-edge", params=(1, 99)).status == "committed"
    assert NaiveBackend().evaluate(formula, service.snapshot())


def _add_pair_program(a, b):
    return FOProgram([InsertTuple("E", a, b), InsertTuple("E", b, a)], name="add-pair")


#: insert and delete templates: a name and a builder, nothing else
OUT_OF_FRAGMENT_TEMPLATES = {
    "add-edge": TransactionTemplate("add-edge", _insert_edge_program),
    "add-pair": TransactionTemplate("add-pair", _add_pair_program),
    "unlink": TransactionTemplate("unlink", _unlink_program),
}

#: the same three as wire templates, submitted as tracked callables
WIRE_TEMPLATES = {
    name: WireTemplate({"name": f"wire-{name}", "ops": ops})
    for name, ops in (
        ("add-edge", [{"insert": ["E", ["$0", "$1"]]}]),
        ("add-pair", [{"insert": ["E", ["$0", "$1"]]}, {"insert": ["E", ["$1", "$0"]]}]),
        ("unlink", [{"delete": ["E", ["$0", "$1"]]}]),
    )
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


def _submit(service, how, name, alias, a, b):
    """One drawn submission: the program it runs, and its outcome."""
    if how == "wire":
        wire = WIRE_TEMPLATES[name]
        outcome = service.execute(wire.tracked_work((a, b)), template=wire.name, params=(a, b))
        return wire.build_program(a, b), outcome
    program = OUT_OF_FRAGMENT_TEMPLATES[name].build(a, b)
    if how == "template":
        return program, service.execute(program, template=name, params=(a, b))
    # a bare program, named like a registered template that may build another
    bare = FOProgram(program.statements, name=alias)
    return bare, service.execute(bare)


def _edges_and_submissions(nodes):
    node = st.integers(0, nodes - 1)
    pair = node.flatmap(lambda a: st.tuples(st.just(a), st.one_of(st.just(a), node)))
    return st.tuples(
        st.frozensets(st.tuples(node, node), max_size=2 * nodes),
        st.lists(
            st.tuples(
                st.sampled_from(("template", "bare", "wire")),
                st.sampled_from(sorted(OUT_OF_FRAGMENT_TEMPLATES)),
                st.sampled_from(sorted(OUT_OF_FRAGMENT_TEMPLATES)),
                pair,
            ),
            min_size=1,
            max_size=8,
        ),
    )


@maybe_seed
@settings(max_examples=20, deadline=None)
@given(
    st.one_of(st.sampled_from((NO_LOOPS, NO_TRIANGLES)), out_of_fragment),
    st.integers(min_value=5, max_value=8).flatmap(_edges_and_submissions),
)
def test_every_committed_state_satisfies_the_constraint_whatever_submits_it(formula, run):
    """Drive the service with drawn submissions and check each outcome with
    the naive oracle: a transaction commits iff its post-state satisfies the
    constraint, from a consistent start (the empty graph when the drawn one
    is not).  Constraints come mostly from outside the denial fragment, and
    sometimes from inside it; a program reaches the service as a template
    item, as a wire template's tracked callable, or as a bare program named
    like a registered template, with repeated constants (``a = b``) drawn
    often."""
    edges, submissions = run
    oracle = NaiveBackend()
    if not oracle.evaluate(formula, Database.graph(edges)):
        edges = ()
    service = _service(edges, Constraint("drawn", formula))
    for template in OUT_OF_FRAGMENT_TEMPLATES.values():
        service.register(template)
    for wire in WIRE_TEMPLATES.values():
        service.register(wire.admission_template())
    for how, name, alias, (a, b) in submissions:
        pre = service.snapshot()
        program, outcome = _submit(service, how, name, alias, a, b)
        post = program.apply(pre)
        if oracle.evaluate(formula, post):
            assert outcome.status == "committed", (how, name, a, b, outcome.reason)
            assert service.snapshot() == post
        else:
            assert outcome.status in ("rejected", "aborted"), (how, name, alias, a, b)
            assert service.snapshot() == pre
