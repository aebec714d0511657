"""The wire protocol of the serving front-end: HTTP/1.1 subset + JSON bodies.

The server speaks a deliberately small slice of HTTP/1.1 — request line,
headers, ``Content-Length`` bodies, keep-alive connections — chosen so that
``curl`` and every HTTP client can talk to it while the parser stays a
screenful of code with no dependency beyond the stdlib.  Crucially the slice
includes **pipelining**: a client may write any number of requests
back-to-back without waiting for responses, and the server answers them in
order.  Pipelining is not a compatibility checkbox here, it is the mechanism
that feeds the group-commit leader — every batch of requests decoded from one
socket read is dispatched concurrently, so the transactions land in the same
commit window and one network flush can become one WAL append (see
``docs/serving.md``).

Transaction shapes cross the wire as **declarative templates**: a named list
of insert/delete operations over rows whose cells are either JSON literals or
``"$i"`` placeholders for the i-th parameter (``"$$x"`` escapes a literal
string starting with a dollar).  One spec yields both artifacts the service
needs:

* an :class:`~repro.transactions.fo_transactions.FOProgram` factory — what
  the admission controller classifies once against the integrity constraints
  (static / guarded / runtime), unlocking the zero-check and guard-only
  commit paths for wire transactions exactly as for in-process ones;
* a tracked-closure factory — what each submission actually executes against
  its MVCC snapshot, so optimistic validation sees precise row-level
  footprints instead of opaque reads.

Templates carry no guards: admission derives each (template, constraint)
guard from the program and the constraint, and a spec that sends a
``guards`` field is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

# the wire's formula parser, kept here for bench/spans.py to wrap
from ..logic.parser import parse as parse_formula  # noqa: F401
from ..logic.syntax import Eq, make_and
from ..logic.terms import Const, Var
from ..service.admission import TransactionTemplate
from ..transactions.fo_transactions import DeleteWhere, FOProgram, InsertTuple

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "parse_request",
    "drain_requests",
    "encode_response",
    "json_response",
    "error_response",
    "WireTemplate",
]

#: a header block larger than this is an attack or a framing bug, not a request
MAX_HEADER_BYTES = 16 * 1024

#: request-body cap — template specs and transaction payloads are tiny
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed request: the connection is answered 400 and closed."""


@dataclass(frozen=True)
class Request:
    """One decoded request: method, path (query stripped), headers, body."""

    method: str
    path: str
    headers: Mapping[str, str]
    body: bytes

    def json(self) -> object:
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None


def parse_request(buffer: bytes) -> Optional[Tuple[Request, bytes]]:
    """Decode one complete request from ``buffer``; ``None`` if incomplete.

    Raises :class:`ProtocolError` on anything that can never become a valid
    request no matter how many bytes follow (bad request line, oversized
    header block or body, non-integer ``Content-Length``).
    """
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        if len(buffer) > MAX_HEADER_BYTES:
            raise ProtocolError("header block exceeds 16KiB")
        return None
    head = buffer[:head_end]
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("non-ASCII bytes in header block") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    path = target.split("?", 1)[0]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {raw_length!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {length} bytes exceeds the 1MiB cap")
    body_start = head_end + 4
    if len(buffer) < body_start + length:
        return None
    body = buffer[body_start : body_start + length]
    return Request(method, path, headers, body), buffer[body_start + length :]


def drain_requests(buffer: bytes) -> Tuple[List[Request], bytes]:
    """Decode *every* complete request in ``buffer`` (the pipelining step).

    The returned list is one dispatch batch: all requests that arrived in the
    same socket read are answered together, which is what lines their
    transactions up in one group-commit window.
    """
    requests: List[Request] = []
    while True:
        parsed = parse_request(buffer)
        if parsed is None:
            return requests, buffer
        request, buffer = parsed
        requests.append(request)


def encode_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Sequence[Tuple[str, str]] = (),
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    extras = "".join(f"{name}: {value}\r\n" for name, value in extra_headers)
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extras}"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("ascii") + body


def json_response(
    status: int,
    payload: object,
    extra_headers: Sequence[Tuple[str, str]] = (),
) -> bytes:
    return encode_response(
        status,
        json.dumps(payload, sort_keys=True).encode("utf-8"),
        extra_headers=extra_headers,
    )


def error_response(
    status: int, message: str, extra_headers: Sequence[Tuple[str, str]] = ()
) -> bytes:
    return json_response(status, {"error": message}, extra_headers=extra_headers)


# ---------------------------------------------------------------------------
# wire transaction templates
# ---------------------------------------------------------------------------

def _resolve_cell(cell: object, params: Sequence[object]) -> object:
    """One row cell: a ``"$i"`` placeholder, a ``"$$"``-escaped literal, or a literal."""
    if isinstance(cell, str) and cell.startswith("$"):
        if cell.startswith("$$"):
            return cell[1:]
        try:
            index = int(cell[1:])
        except ValueError:
            raise ProtocolError(f"bad placeholder {cell!r}") from None
        if not 0 <= index < len(params):
            raise ProtocolError(
                f"placeholder {cell!r} out of range for {len(params)} parameter(s)"
            )
        return params[index]
    if isinstance(cell, (list, dict)):
        raise ProtocolError(f"row cells must be scalars, got {cell!r}")
    return cell


@dataclass(frozen=True)
class _WireOp:
    """One declarative operation: ``insert`` or ``delete`` of a row pattern."""

    kind: str  # "insert" | "delete"
    relation: str
    row: Tuple[object, ...]

    def resolve(self, params: Sequence[object]) -> Tuple[object, ...]:
        return tuple(_resolve_cell(cell, params) for cell in self.row)


def _parse_ops(raw_ops: object) -> Tuple[_WireOp, ...]:
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ProtocolError("'ops' must be a non-empty list")
    ops: List[_WireOp] = []
    for raw in raw_ops:
        if not isinstance(raw, dict) or len(raw) != 1:
            raise ProtocolError(f"each op must be a single-key object, got {raw!r}")
        (kind, spec), = raw.items()
        if kind not in ("insert", "delete"):
            raise ProtocolError(f"unknown op kind {kind!r} (have insert, delete)")
        if (
            not isinstance(spec, list)
            or len(spec) != 2
            or not isinstance(spec[0], str)
            or not isinstance(spec[1], list)
        ):
            raise ProtocolError(f"op spec must be [relation, [row...]], got {spec!r}")
        ops.append(_WireOp(kind, spec[0], tuple(spec[1])))
    return tuple(ops)


class WireTemplate:
    """A wire-registered transaction shape: spec -> program factory + closure factory.

    The two factories are built from the *same* declarative ops, so what
    admission classified is exactly what submissions execute — the soundness
    of the static/guarded fast paths depends on that equality.
    """

    def __init__(self, spec: object):
        if not isinstance(spec, dict):
            raise ProtocolError("template spec must be a JSON object")
        name = spec.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("template spec needs a non-empty 'name'")
        self.name = name
        self.ops = _parse_ops(spec.get("ops"))
        raw_samples = spec.get("samples", [[]])
        if not isinstance(raw_samples, list) or not raw_samples:
            raise ProtocolError("'samples' must be a non-empty list of parameter lists")
        samples: List[Tuple[object, ...]] = []
        for sample in raw_samples:
            if not isinstance(sample, list):
                raise ProtocolError(f"each sample must be a list, got {sample!r}")
            samples.append(tuple(sample))
        self.samples = tuple(samples)
        if "guards" in spec:
            raise ProtocolError(
                "'guards' is not a template field: guards are derived at registration"
            )
        # every sample must instantiate every op (catches out-of-range
        # placeholders at registration, not first submission)
        for sample in self.samples:
            for op in self.ops:
                op.resolve(sample)

    # -- the two artifacts ------------------------------------------------------

    def build_program(self, *params: object) -> FOProgram:
        """The FOProgram instance for one parameter tuple (the admission artifact)."""
        statements = []
        for op in self.ops:
            row = op.resolve(params)
            if op.kind == "insert":
                statements.append(InsertTuple(op.relation, *row))
            else:
                variables = tuple(f"v{i}" for i in range(len(row)))
                condition = make_and(
                    *(Eq(Var(v), Const(cell)) for v, cell in zip(variables, row))
                )
                statements.append(DeleteWhere(op.relation, variables, condition))
        return FOProgram(statements, name=self.name)

    def tracked_work(self, params: Sequence[object]) -> Callable:
        """The tracked closure for one submission (the execution artifact)."""
        concrete = [(op.kind, op.relation, op.resolve(params)) for op in self.ops]

        def work(handle) -> bool:
            changed = False
            for kind, relation, row in concrete:
                if kind == "insert":
                    changed |= handle.insert(relation, row)
                else:
                    changed |= handle.delete(relation, row)
            return changed

        return work

    def admission_template(self) -> TransactionTemplate:
        """The :class:`TransactionTemplate` the service classifies once."""
        return TransactionTemplate(self.name, self.build_program, samples=self.samples)

    def describe(self) -> Dict[str, object]:
        """The JSON-safe registration record (``GET /templates``)."""
        return {
            "name": self.name,
            "ops": [
                {op.kind: [op.relation, list(op.row)]} for op in self.ops
            ],
            "samples": [list(sample) for sample in self.samples],
        }
