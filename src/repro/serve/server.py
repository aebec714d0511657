"""The asyncio serving front-end over :class:`TransactionService`.

Architecture (one process, stdlib only)::

    clients ==TCP==> asyncio event loop ==batches==> worker-thread pool
                     (decode, batch,                 (service.execute:
                      order responses)                MVCC + group commit)

The event loop owns the sockets and never blocks: each connection reads
whatever bytes are available, decodes **every** complete pipelined request in
the buffer, and dispatches the whole batch concurrently into a small
``ThreadPoolExecutor``.  The worker threads call ``service.execute``, which
is where the design pays off — transactions dispatched from the same network
batch reach the group-commit queue together, so the first to take the commit
lock drains the rest as followers and the batch commits in **one**
``apply_delta`` (one WAL append under ``REPRO_DURABLE=on``).  Responses are
written back in request order with one flush per batch.

Observability: every request runs under a ``serve.request`` span (opened in
the worker thread, so the service's ``service.txn`` tree nests beneath it),
bumps the ``serve.inflight`` gauge, and lands its wall time in a per-endpoint
``serve.<route>.latency_ms`` histogram; batch shape is recorded under
``serve.batch_size``.  ``GET /metrics`` exposes the whole registry in
Prometheus text format.

Shutdown is graceful by construction: ``stop()`` closes the listener, wakes
every idle connection, lets in-flight batches finish (the only await points
are socket reads — a dispatched batch always runs to its flush), then joins
the worker pool and finally closes the service (releasing WAL handles) when
the server owns it.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from .. import faults as _faults
from ..logic.parser import parse as parse_formula
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.scheduler import TransactionService, TxnOutcome
from ..service.snapshots import ServiceError
from .protocol import (
    ProtocolError,
    Request,
    WireTemplate,
    drain_requests,
    encode_response,
    error_response,
    json_response,
)

__all__ = [
    "SERVE_HOST_ENV",
    "SERVE_PORT_ENV",
    "SERVE_WORKERS_ENV",
    "SERVE_QUEUE_ENV",
    "default_serve_workers",
    "default_serve_queue",
    "standard_wire_templates",
    "preregister",
    "TransactionServer",
    "ServerThread",
]

#: environment knobs: bind address, port, and worker-thread count of the
#: serving front-end (``python -m repro.serve`` reads all three)
SERVE_HOST_ENV = "REPRO_SERVE_HOST"
SERVE_PORT_ENV = "REPRO_SERVE_PORT"
SERVE_WORKERS_ENV = "REPRO_SERVE_WORKERS"

#: environment knob: max in-flight requests before the server sheds load
SERVE_QUEUE_ENV = "REPRO_SERVE_QUEUE"

DEFAULT_SERVE_QUEUE = 4096

#: seconds after the last shed during which /health reports "degraded"
_DEGRADED_WINDOW = 5.0

#: the Retry-After hint handed to shed clients (seconds)
_RETRY_AFTER = 1

#: per-endpoint latency histogram bounds (milliseconds, network round trips)
_LATENCY_MS_BUCKETS = (0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                       250.0, 500.0, 1000.0, 2500.0)

#: requests decoded from one socket read — the group-commit feed distribution
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_READ_CHUNK = 64 * 1024


def default_serve_workers(fallback: int = 8) -> int:
    """Worker-pool size selected by ``REPRO_SERVE_WORKERS`` (default 8).

    More workers than cores is deliberate: a worker spends most of its time
    parked in the group-commit pipeline (follower wait or leader validation),
    so the pool size bounds the *batch* the leader can drain, not CPU use.
    """
    import warnings

    raw = os.environ.get(SERVE_WORKERS_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            warnings.warn(
                f"ignoring invalid {SERVE_WORKERS_ENV}={raw!r}; expected an "
                f"integer — using {fallback}",
                RuntimeWarning,
                stacklevel=2,
            )
    return fallback


def default_serve_queue(fallback: int = DEFAULT_SERVE_QUEUE) -> int:
    """In-flight request bound selected by ``REPRO_SERVE_QUEUE``.

    Requests beyond the bound are shed with ``503`` + ``Retry-After``
    instead of queueing without limit — an overloaded server stays
    responsive (health, metrics and the requests it admitted) rather than
    building unbounded dispatch debt.
    """
    import warnings

    raw = os.environ.get(SERVE_QUEUE_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            warnings.warn(
                f"ignoring invalid {SERVE_QUEUE_ENV}={raw!r}; expected an "
                f"integer — using {fallback}",
                RuntimeWarning,
                stacklevel=2,
            )
    return fallback


class TransactionServer:
    """One asyncio TCP server in front of one :class:`TransactionService`.

    ``owns_service=True`` transfers the service's lifetime to the server:
    ``stop()`` will ``service.close()`` after the drain.  ``port=0`` binds an
    ephemeral port (read it back from :attr:`address` after :meth:`start`).
    """

    def __init__(
        self,
        service: TransactionService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        owns_service: bool = False,
        max_inflight: Optional[int] = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.workers = workers if workers is not None else default_serve_workers()
        self.max_inflight = (
            max_inflight if max_inflight is not None else default_serve_queue()
        )
        self.address: Optional[Tuple[str, int]] = None
        self._owns_service = owns_service
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        self._shutdown: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._templates: Dict[str, WireTemplate] = {}
        self._templates_lock = threading.Lock()
        self._formula_cache: Dict[str, object] = {}
        # event-loop-thread-only overload state: the admission check and the
        # increments all run on the loop, so a plain int is race-free
        self._inflight = 0
        self._shed_total = 0
        self._last_shed = 0.0
        registry = _metrics.get_registry()
        self._m_inflight = registry.gauge("serve.inflight")
        self._m_connections = registry.gauge("serve.connections")
        self._m_requests = registry.counter("serve.requests")
        self._m_errors = registry.counter("serve.errors")
        self._m_shed = registry.counter("serve.shed")
        self._m_client_disconnects = registry.counter("serve.client_disconnects")
        self._m_batches = registry.counter("serve.batches")
        self._m_batch_requests = registry.counter("serve.batched_requests")
        self._m_batch_size = registry.histogram(
            "serve.batch_size", buckets=_BATCH_SIZE_BUCKETS
        )
        self._m_latency = {
            route: registry.histogram(
                f"serve.{route}.latency_ms", buckets=_LATENCY_MS_BUCKETS
            )
            for route in ("health", "metrics", "stats", "templates", "txn", "read")
        }

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> "TransactionServer":
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-worker"
        )
        # a deep backlog so open-loop benchmarks can raise a thousand
        # connections in one burst without losing SYNs to the accept queue
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, backlog=2048
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self

    async def stop(self) -> None:
        """Drain and shut down: no acked request is abandoned mid-commit."""
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        self._shutdown.set()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        # every dispatched batch has flushed by now; the pool is idle
        self._pool.shutdown(wait=True)
        self._pool = None
        if self._owns_service:
            self._owns_service = False
            self.service.close()

    # -- connection loop --------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self._m_connections.inc()
        buffer = b""
        try:
            while True:
                try:
                    requests, buffer = drain_requests(buffer)
                except ProtocolError as exc:
                    writer.write(error_response(400, str(exc)))
                    await writer.drain()
                    break
                if requests:
                    responses = await self._dispatch(requests)
                    try:
                        if _faults.fired("serve.write.reset"):
                            # injected mid-response reset: drop the transport
                            # exactly as a vanished client would
                            writer.transport.abort()
                            raise ConnectionResetError("injected client reset")
                        writer.write(b"".join(responses))
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        # the client went away mid-response: its transactions
                        # (if any) already committed — close this connection
                        # quietly, the outcome is durable regardless
                        self._m_client_disconnects.inc()
                        break
                    continue
                if self._closing:
                    break
                data = await self._read_or_shutdown(reader)
                if not data:
                    break
                buffer += data
        except (ConnectionResetError, BrokenPipeError):
            self._m_client_disconnects.inc()
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(task)
            self._m_connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_or_shutdown(self, reader) -> bytes:
        """One socket read, interruptible by shutdown (returns ``b""`` then)."""
        lag = _faults.delay("serve.read.slow")
        if lag > 0.0:
            # slow-loris simulation: the *await* keeps the loop free — only
            # this connection's read stalls
            await asyncio.sleep(lag)
        read_task = asyncio.ensure_future(reader.read(_READ_CHUNK))
        shut_task = asyncio.ensure_future(self._shutdown.wait())
        done, _pending = await asyncio.wait(
            {read_task, shut_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if read_task in done:
            shut_task.cancel()
            return read_task.result()
        read_task.cancel()
        try:
            await read_task
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        return b""

    # -- dispatch ---------------------------------------------------------------

    async def _dispatch(self, requests: List[Request]) -> List[bytes]:
        """Answer one decoded batch; order preserved, work overlapped.

        Every request becomes its own coroutine and the slow ones (txn, read,
        template registration) hop to the worker pool — so the transactions
        of a pipelined batch enter the group-commit queue concurrently, which
        is the whole point of batching at the connection layer.
        """
        self._m_batches.inc()
        self._m_batch_requests.inc(len(requests))
        self._m_batch_size.observe(len(requests))
        return await asyncio.gather(*(self._respond(r) for r in requests))

    async def _respond(self, request: Request) -> bytes:
        route = self._route_name(request)
        begun = time.perf_counter()
        self._m_requests.inc()
        # only the dispatch-bound routes consume (and are limited by)
        # capacity — control-plane probes must neither be shed nor make a
        # bounded server look busy to its own health check
        bounded = route in ("txn", "read", "templates")
        if bounded and self._inflight >= self.max_inflight:
            # overload: shed the dispatch-bound routes with an explicit
            # retry hint instead of queueing without bound — health and
            # metrics stay answerable so operators can see the overload
            self._shed_total += 1
            self._last_shed = time.monotonic()
            self._m_shed.inc()
            # the hint rides both the header (HTTP-proper) and the body
            # (for clients that only look at the JSON payload)
            return json_response(
                503,
                {
                    "error": (
                        f"overloaded: {self._inflight} requests in flight "
                        f"(bound {self.max_inflight})"
                    ),
                    "retry_after": _RETRY_AFTER,
                },
                extra_headers=(("Retry-After", str(_RETRY_AFTER)),),
            )
        if bounded:
            self._inflight += 1
            self._m_inflight.inc()
        try:
            return await self._handle(route, request)
        except ProtocolError as exc:
            self._m_errors.inc()
            return error_response(400, str(exc))
        except ServiceError as exc:
            self._m_errors.inc()
            return error_response(503, str(exc))
        except Exception as exc:  # noqa: BLE001 - one request must not kill the connection
            self._m_errors.inc()
            return error_response(500, f"internal error: {exc!r}")
        finally:
            if bounded:
                self._inflight -= 1
                self._m_inflight.dec()
            histogram = self._m_latency.get(route)
            if histogram is not None:
                histogram.observe((time.perf_counter() - begun) * 1e3)

    @staticmethod
    def _route_name(request: Request) -> str:
        return request.path.strip("/").split("/", 1)[0] or "health"

    async def _handle(self, route: str, request: Request) -> bytes:
        method, path = request.method, request.path
        if path in ("/", "/health") and method == "GET":
            # "degraded" = actively shedding, or shed within the last few
            # seconds — load balancers use this to steer traffic away while
            # the server is still alive and draining
            degraded = self._inflight >= self.max_inflight or (
                self._shed_total > 0
                and time.monotonic() - self._last_shed < _DEGRADED_WINDOW
            )
            return json_response(
                200,
                {
                    "status": "degraded" if degraded else "ok",
                    "version": self.service.store.version,
                    "inflight": self._inflight,
                    "max_inflight": self.max_inflight,
                    "shed": self._shed_total,
                },
            )
        if path == "/metrics" and method == "GET":
            text = _metrics.get_registry().to_prometheus()
            return encode_response(
                200, text.encode("utf-8"), content_type="text/plain; version=0.0.4"
            )
        if path == "/stats" and method == "GET":
            return json_response(200, self._stats_payload())
        if path == "/templates" and method == "GET":
            with self._templates_lock:
                listed = [t.describe() for t in self._templates.values()]
            return json_response(200, {"templates": listed})
        if path == "/templates" and method == "POST":
            return await self._in_worker(self._register_template, request)
        if path == "/txn" and method == "POST":
            return await self._in_worker(self._execute_txn, request)
        if path == "/read" and method == "POST":
            return await self._in_worker(self._execute_read, request)
        self._m_errors.inc()
        return error_response(404, f"no route for {method} {path}")

    async def _in_worker(self, fn, request: Request) -> bytes:
        future = self._loop.run_in_executor(self._pool, fn, request)
        try:
            return await future
        except asyncio.CancelledError:
            # the awaiting side was cancelled (connection torn down) but the
            # worker keeps running — retrieve its eventual result/exception
            # so nothing leaks an "exception was never retrieved" warning
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            raise

    # -- handlers (worker threads) ----------------------------------------------

    def _register_template(self, request: Request) -> bytes:
        with _trace.span("serve.request", route="templates"):
            template = WireTemplate(request.json())
            with self._templates_lock:
                known = self._templates.get(template.name)
                if known is not None and known.describe() != template.describe():
                    raise ProtocolError(
                        f"template {template.name!r} is already registered "
                        "with a different shape"
                    )
            # classification is idempotent per name inside the controller,
            # so a concurrent duplicate registration is merely redundant work
            verdicts = self.service.register(template.admission_template())
            with self._templates_lock:
                self._templates[template.name] = template
            return json_response(
                200,
                {
                    "registered": template.name,
                    "verdicts": {
                        name: verdict.mode for name, verdict in verdicts.items()
                    },
                },
            )

    def _execute_txn(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError("txn body must be a JSON object")
        with _trace.span("serve.request", route="txn") as span:
            name = payload.get("template")
            tag = payload.get("tag")
            deadline = None
            deadline_ms = payload.get("deadline_ms")
            if deadline_ms is not None:
                if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                    raise ProtocolError("'deadline_ms' must be a positive number")
                deadline = time.monotonic() + float(deadline_ms) / 1e3
            if name is not None:
                if not isinstance(name, str):
                    raise ProtocolError("'template' must be a string")
                raw_params = payload.get("params", [])
                if not isinstance(raw_params, list):
                    raise ProtocolError("'params' must be a list")
                params = tuple(raw_params)
                with self._templates_lock:
                    template = self._templates.get(name)
                if template is None:
                    raise ProtocolError(f"unknown template {name!r}")
                work = template.tracked_work(params)
                outcome = self.service.execute(
                    work, template=name, params=params, tag=tag, deadline=deadline
                )
            elif "ops" in payload:
                # ad-hoc transaction: no admission verdicts, runtime checks
                anonymous = WireTemplate(
                    {"name": "_adhoc", "ops": payload["ops"], "samples": [[]]}
                )
                outcome = self.service.execute(
                    anonymous.tracked_work(()), tag=tag, deadline=deadline
                )
            else:
                raise ProtocolError("txn body needs 'template' or 'ops'")
            span.annotate(status=outcome.status)
        return json_response(200, _outcome_payload(outcome))

    def _execute_read(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict) or len(payload) != 1:
            raise ProtocolError(
                "read body must be one of {'contains': [rel, row]}, "
                "{'scan': rel}, {'evaluate': {formula, assignment}}"
            )
        with _trace.span("serve.request", route="read"):
            (kind, spec), = payload.items()
            handle = self.service.begin()  # pinned MVCC snapshot
            try:
                if kind == "contains":
                    if (
                        not isinstance(spec, list)
                        or len(spec) != 2
                        or not isinstance(spec[1], list)
                    ):
                        raise ProtocolError("'contains' takes [relation, [row...]]")
                    result: object = handle.contains(spec[0], tuple(spec[1]))
                elif kind == "scan":
                    if not isinstance(spec, str):
                        raise ProtocolError("'scan' takes a relation name")
                    rows = handle.scan(spec)
                    result = sorted((list(row) for row in rows), key=repr)
                elif kind == "evaluate":
                    if not isinstance(spec, dict) or "formula" not in spec:
                        raise ProtocolError("'evaluate' takes {formula, assignment?}")
                    assignment = spec.get("assignment", {})
                    if not isinstance(assignment, dict):
                        raise ProtocolError("'assignment' must be an object")
                    result = handle.evaluate(
                        self._parse_cached(spec["formula"]), **assignment
                    )
                else:
                    raise ProtocolError(f"unknown read kind {kind!r}")
            except ProtocolError:
                raise
            except Exception as exc:  # unknown relation, bad row, bad formula
                raise ProtocolError(f"read failed: {exc}") from None
            return json_response(200, {"version": handle.version, "result": result})

    def _parse_cached(self, source: object):
        if not isinstance(source, str):
            raise ProtocolError("'formula' must be a string")
        formula = self._formula_cache.get(source)
        if formula is None:
            try:
                formula = parse_formula(source)
            except Exception as exc:
                raise ProtocolError(f"formula does not parse: {exc}") from None
            if len(self._formula_cache) < 1024:
                self._formula_cache[source] = formula
        return formula

    def _stats_payload(self) -> Dict[str, object]:
        observed = self.service.observability()
        # commit-log tags and other caller objects are not JSON-safe; the
        # round trip below drops nothing the wire can represent anyway
        return json.loads(json.dumps(observed, default=repr, sort_keys=True))


def _outcome_payload(outcome: TxnOutcome) -> Dict[str, object]:
    return {
        "status": outcome.status,
        "reason": outcome.reason,
        "version": outcome.version,
        "attempts": outcome.attempts,
        "retryable": outcome.retryable,
    }


# ---------------------------------------------------------------------------
# the standard workload, as wire templates
# ---------------------------------------------------------------------------

def standard_wire_templates() -> List[WireTemplate]:
    """The standard referral-graph templates, re-expressed as wire specs.

    The names and shapes match :func:`repro.service.workloads.
    standard_templates` exactly, so the process-wide admission controller's
    cached verdicts apply to wire submissions too — and conversely, a server
    that pre-registers these serves the same admission fast paths a remote
    ``POST /templates`` would have produced.
    """
    return [
        WireTemplate(
            {
                "name": "link-forward",
                "ops": [{"insert": ["E", ["$0", "$1"]]}],
                "samples": [[0, 1], [1, 2]],
            }
        ),
        WireTemplate(
            {
                "name": "unlink",
                "ops": [{"delete": ["E", ["$0", "$1"]]}],
                "samples": [[0, 1], [2, 1]],
            }
        ),
        WireTemplate(
            {
                "name": "add-edge",
                "ops": [{"insert": ["E", ["$0", "$1"]]}],
                "samples": [[0, 1], [1, 0], [2, 2]],
            }
        ),
    ]


def preregister(server: TransactionServer) -> None:
    """Classify and install the standard wire templates on ``server``."""
    for wire in standard_wire_templates():
        server.service.register(wire.admission_template())
        with server._templates_lock:
            server._templates[wire.name] = wire


# ---------------------------------------------------------------------------
# background-thread harness (tests, benchmarks, __main__)
# ---------------------------------------------------------------------------

class ServerThread:
    """Run a :class:`TransactionServer` on a private event loop in a thread.

    Context-manager protocol: ``with ServerThread(service) as server`` yields
    the started harness (``server.address`` is bound), and exit performs the
    graceful drain — stop accepting, finish in-flight batches, join the pool,
    close the loop, and close the service when owned.
    """

    def __init__(
        self,
        service: TransactionService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        owns_service: bool = False,
        max_inflight: Optional[int] = None,
    ):
        self.server = TransactionServer(
            service, host=host, port=port, workers=workers,
            owns_service=owns_service, max_inflight=max_inflight,
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server.address is not None, "server not started"
        return self.server.address

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 - surfaced to start()
                self._startup_error = exc
                return
            finally:
                self._started.set()
            self._loop.run_forever()
        finally:
            self._loop.close()
            asyncio.set_event_loop(None)

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
