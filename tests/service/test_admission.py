"""WPC-verified admission: classification, verdict caching, guard handling."""

import pytest

from repro.core import (
    Constraint,
    IntegrityMaintainer,
    RuntimeCheckPolicy,
    StaticPreconditionPolicy,
    classify_preservation,
)
from repro.db import GRAPH_SCHEMA, MemoryEngine, Store
from repro.logic import parse
from repro.logic.syntax import BOTTOM, TOP
from repro.service import AdmissionController, TransactionTemplate
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
