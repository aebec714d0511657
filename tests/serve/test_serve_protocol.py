"""Wire framing and template compilation, without any sockets.

Two contracts under test: (a) the HTTP-subset parser either decodes a
complete request exactly, waits for more bytes, or rejects input that can
never become valid — mirroring the WAL's "round-trip or reject" discipline at
the network layer; (b) a :class:`WireTemplate` compiles one declarative spec
into two artifacts (the FOProgram admission classifies, the tracked closure
submissions execute) that perform *identical* state transitions — the
soundness premise of serving admission fast paths to remote clients.
"""

from __future__ import annotations

import json

import pytest

from repro.db import Database
from repro.serve import (
    ProtocolError,
    WireTemplate,
    drain_requests,
    encode_request,
    encode_response,
    parse_request,
    parse_response,
)
from repro.service import SnapshotTransaction


def _request_bytes(method="POST", path="/txn", body=None):
    return encode_request(method, path, body)


class TestFraming:
    def test_round_trip(self):
        raw = _request_bytes(body={"template": "t", "params": [1, 2]})
        request, rest = parse_request(raw)
        assert rest == b""
        assert request.method == "POST"
        assert request.path == "/txn"
        assert request.json() == {"template": "t", "params": [1, 2]}

    def test_incomplete_returns_none(self):
        raw = _request_bytes(body={"x": 1})
        for cut in (0, 5, len(raw) - 1):
            assert parse_request(raw[:cut]) is None

    def test_query_string_is_stripped(self):
        request, _ = parse_request(b"GET /stats?verbose=1 HTTP/1.1\r\n\r\n")
        assert request.path == "/stats"

    def test_pipelined_drain_returns_every_complete_request(self):
        one = _request_bytes(body={"i": 1})
        two = _request_bytes(body={"i": 2})
        half = _request_bytes(body={"i": 3})[:10]
        requests, rest = drain_requests(one + two + half)
        assert [r.json()["i"] for r in requests] == [1, 2]
        assert rest == half

    @pytest.mark.parametrize(
        "raw",
        [
            b"NOT A REQUEST\r\n\r\n",
            b"GET /x\r\n\r\n",                       # no version
            b"POST /txn HTTP/1.1\r\nbadheader\r\n\r\n",
            b"POST /txn HTTP/1.1\r\nContent-Length: many\r\n\r\n",
            b"POST /txn HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
            b"POST /txn HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        ],
    )
    def test_unfixable_input_is_rejected(self, raw):
        with pytest.raises(ProtocolError):
            parse_request(raw)

    def test_oversized_header_block_is_rejected_before_completion(self):
        with pytest.raises(ProtocolError):
            parse_request(b"GET /" + b"x" * (17 * 1024))

    def test_bad_json_body_surfaces_on_decode_not_parse(self):
        request, _ = parse_request(
            b"POST /txn HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!"
        )
        with pytest.raises(ProtocolError):
            request.json()

    def test_response_round_trip(self):
        blob = encode_response(200, json.dumps({"ok": True}).encode())
        (status, payload), rest = parse_response(blob + b"tail")
        assert status == 200
        assert payload == {"ok": True}
        assert rest == b"tail"
        assert parse_response(blob[:-1]) is None


LINK_SPEC = {
    "name": "proto-link",
    "ops": [{"insert": ["E", ["$0", "$1"]]}],
}

SWAP_SPEC = {
    "name": "proto-swap",
    "ops": [
        {"delete": ["E", ["$0", "$1"]]},
        {"insert": ["E", ["$1", "$0"]]},
    ],
}


class TestWireTemplates:
    def test_program_and_closure_perform_the_same_transition(self):
        wire = WireTemplate(SWAP_SPEC)
        db = Database.graph([(3, 4), (5, 6)])
        via_program = wire.build_program(3, 4).apply(db)
        handle = SnapshotTransaction(db, -1)
        wire.tracked_work((3, 4))(handle)
        via_closure = db.apply_delta(handle.delta())
        assert via_program == via_closure
        assert via_program.relation("E") == frozenset({(4, 3), (5, 6)})

    def test_placeholders_resolve_and_escape(self):
        wire = WireTemplate(
            {"name": "proto-mixed", "ops": [{"insert": ["E", ["$1", "$$0"]]}]}
        )
        (kind, relation, row), = [
            op for op in [("insert", "E", wire.ops[0].resolve((9, 7)))]
        ]
        assert row == (7, "$0")

    @pytest.mark.parametrize("cell", ["$x", "$", "$-1", "$1.5"])
    def test_a_bad_placeholder_is_caught_at_registration(self, cell):
        with pytest.raises(ProtocolError, match="bad placeholder"):
            WireTemplate({"name": "bad", "ops": [{"insert": ["E", ["$0", cell]]}]})

    def test_too_few_params_are_caught_at_submission(self):
        wire = WireTemplate({"name": "wide", "ops": [{"insert": ["E", ["$0", "$5"]]}]})
        with pytest.raises(ProtocolError, match="out of range"):
            wire.tracked_work((0, 1))
        assert wire.build_program(*range(6)).statements[0].terms[1].value == 5

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "x"},                                     # no ops
            {"name": "x", "ops": []},
            {"name": "", "ops": [{"insert": ["E", [1, 2]]}]},
            {"name": "x", "ops": [{"upsert": ["E", [1, 2]]}]},
            {"name": "x", "ops": [{"insert": ["E", [1, 2]], "delete": ["E", [1, 2]]}]},
            {"name": "x", "ops": [{"insert": ["E", [[1], 2]]}]},
            {"name": "x", "ops": [{"insert": ["E", [1, {"a": 2}]]}]},
        ],
    )
    def test_malformed_specs_are_rejected(self, spec):
        with pytest.raises(ProtocolError):
            WireTemplate(spec)

    def test_a_spec_with_guards_is_refused(self):
        spec = {
            "name": "proto-guarded",
            "ops": [{"insert": ["E", ["$0", "$1"]]}],
            "guards": {"no-loops": "~(p0 = p1)"},
        }
        with pytest.raises(ProtocolError, match="derived"):
            WireTemplate(spec)

    def test_a_spec_with_samples_is_refused(self):
        spec = {"name": "proto-sampled", "ops": [{"insert": ["E", ["$0", "$1"]]}]}
        with pytest.raises(ProtocolError, match="per instance shape"):
            WireTemplate({**spec, "samples": [[0, 1]]})

    def test_admission_judges_each_submission_by_its_shape(self):
        from repro.engine import NaiveBackend
        from repro.service import AdmissionController
        from repro.service.workloads import standard_constraints

        wire = WireTemplate(
            {"name": "proto-guarded", "ops": [{"insert": ["E", ["$0", "$1"]]}]}
        )
        template = wire.admission_template()
        controller = AdmissionController(standard_constraints())
        controller.register(template)
        loop = controller.guard_for(template.build(3, 3))
        edge = controller.guard_for(template.build(3, 4))
        assert {name: v.mode for name, v in loop.items()} == {
            "no-loops": "guarded", "no-triangles": "guarded",
        }
        assert {name: v.mode for name, v in edge.items()} == {
            "no-loops": "static", "no-triangles": "guarded",
        }
        empty = Database.graph([])
        assert not NaiveBackend().evaluate(loop["no-loops"].guard, empty)
        assert NaiveBackend().evaluate(edge["no-triangles"].guard, empty)

    def test_a_loop_submitted_under_a_wire_template_is_rejected(self):
        """The template's usual instances are edges of two distinct
        constants; ``(5, 5)`` is a loop, whatever they proved."""
        from repro.core import Constraint
        from repro.service import TransactionService
        from repro.service.workloads import NO_LOOPS

        wire = WireTemplate({"name": "edge", "ops": [{"insert": ["E", ["$0", "$1"]]}]})
        from repro.db import GRAPH_SCHEMA, MemoryEngine, Store

        store = Store(GRAPH_SCHEMA, Database.graph([(0, 1)]), engine=MemoryEngine())
        service = TransactionService(store, [Constraint("no-loops", NO_LOOPS)])
        service.register(wire.admission_template())
        assert service.execute(wire.tracked_work((0, 2)), template="edge", params=(0, 2)).committed
        outcome = service.execute(wire.tracked_work((5, 5)), template="edge", params=(5, 5))
        assert outcome.status == "rejected", outcome
        assert service.invariant_holds()

    def test_describe_round_trips_through_json(self):
        wire = WireTemplate(SWAP_SPEC)
        described = json.loads(json.dumps(wire.describe()))
        assert WireTemplate(described).describe() == wire.describe()
