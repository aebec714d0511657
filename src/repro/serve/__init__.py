"""The network serving front-end: TCP/HTTP access to the transaction service.

This package puts a socket in front of :class:`~repro.service.scheduler.
TransactionService` without giving up the service's amortisation story: the
asyncio event loop decodes pipelined request batches per connection and
dispatches each batch concurrently into a worker-thread pool, so the
transactions of one network flush enter the group-commit queue together and
commit as **one** store apply (one WAL append under ``REPRO_DURABLE=on``).
Everything is stdlib — asyncio, sockets, ``json`` — no new dependencies.

Quick orientation:

* :mod:`repro.serve.protocol` — the HTTP/1.1-subset framing, the JSON bodies,
  and :class:`~repro.serve.protocol.WireTemplate`: declarative transaction
  shapes registered over the wire, compiled into both the FOProgram each
  submission is judged by (admission classifies its shape) and the tracked
  closure it executes;
* :mod:`repro.serve.server` — :class:`~repro.serve.server.TransactionServer`
  (the event loop + worker pool) and :class:`~repro.serve.server.ServerThread`
  (the background harness tests and benchmarks embed);
* :mod:`repro.serve.client` — :class:`~repro.serve.client.ServeClient` (a
  blocking keep-alive client with explicit pipelining) and
  :func:`~repro.serve.client.drive_open_loop` (the E21 load driver);
* ``python -m repro.serve`` — a standalone server over the standard
  referral-graph workload (see ``docs/serving.md`` for the endpoint table
  and deployment knobs: ``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT`` /
  ``REPRO_SERVE_WORKERS``).
"""

from .client import ServeClient, drive_open_loop, encode_request, parse_response
from .protocol import (
    ProtocolError,
    Request,
    WireTemplate,
    drain_requests,
    encode_response,
    error_response,
    json_response,
    parse_request,
)
from .server import (
    ServerThread,
    TransactionServer,
    preregister,
    standard_wire_templates,
)

__all__ = [
    "ProtocolError",
    "Request",
    "ServeClient",
    "ServerThread",
    "TransactionServer",
    "WireTemplate",
    "drain_requests",
    "drive_open_loop",
    "encode_request",
    "encode_response",
    "error_response",
    "json_response",
    "parse_request",
    "parse_response",
    "preregister",
    "standard_wire_templates",
]
