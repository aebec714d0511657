"""The asyncio serving front-end over :class:`TransactionService`.

Architecture (one process, stdlib only)::

    clients ==TCP==> asyncio event loop ==jobs==> worker-thread pool
                     (decode, shed,              (one job per request kind:
                      order responses)            reads; txns -> execute_many)

The event loop owns the sockets and never blocks: each connection reads
whatever bytes are available and decodes **every** complete pipelined request
in the buffer.  Control-plane requests are answered on the loop; the rest go
to a small ``ThreadPoolExecutor`` as one job per kind — all the batch's reads
in one, all its transactions in another.  The transaction job hands the
whole batch to ``service.execute_many``, which enqueues the survivors of
their optimistic phase together, so one drain commits them in **one**
``apply_delta`` (one WAL append under ``REPRO_DURABLE=on``).  Responses are
written back in request order with one flush per batch.

Observability: every request runs under its own ``serve.request`` span
(opened in the worker thread, so the service's ``service.txn`` tree nests
beneath it), bumps the ``serve.inflight`` gauge, and lands its wall time in a
per-endpoint ``serve.<route>.latency_ms`` histogram; batch shape is recorded
under ``serve.batch_size``.  ``GET /metrics`` exposes the whole registry in
Prometheus text format.

Shutdown is graceful by construction: ``stop()`` closes the listener, wakes
every idle connection, lets in-flight batches finish (the only await points
are socket reads — a dispatched batch always runs to its flush), then joins
the worker pool and finally closes the service (releasing WAL handles) when
the server owns it.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .. import faults as _faults
from ..logic.parser import parse as parse_formula
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..service.scheduler import TransactionService, TxnItem, TxnOutcome
from ..service.snapshots import ServiceError
from ..settings import setting
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
    "standard_wire_templates",
    "preregister",
    "TransactionServer",
    "ServerThread",
]

#: in-flight requests beyond which the server sheds with ``503`` +
#: ``Retry-After`` instead of queueing without limit, so an overloaded server
#: stays responsive (health, metrics and the requests it admitted)
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

#: the routes that consume dispatch capacity (and are shed beyond it)
_BOUNDED_ROUTES = ("txn", "read", "templates")


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
        max_inflight: int = DEFAULT_SERVE_QUEUE,
    ):
        self.service = service
        self.host = host
        self.port = port
        # a worker runs one job: the reads, or the transactions, of one
        # network batch; no job waits on another, so a pool of one works
        self.workers = (
            workers if workers is not None else setting("REPRO_SERVE_WORKERS")
        )
        self.max_inflight = max_inflight
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
        """Answer one decoded batch: replies in request order, for one flush.

        Control-plane requests are answered on the loop.  The rest go to the
        pool as one job per kind: all ``/read``s, all ``/txn``s (one
        ``execute_many``: the flush reaches the commit queue whole, and reads
        never wait behind its fsync), and each template registration alone.
        """
        self._m_batches.inc()
        self._m_batch_requests.inc(len(requests))
        self._m_batch_size.observe(len(requests))
        begun = time.perf_counter()
        replies: List[Optional[bytes]] = [None] * len(requests)
        # looked up per batch: the handlers are the per-request entry points
        handlers = {
            "/txn": self._execute_txn,
            "/read": partial(self._serially, self._execute_read),
            "/templates": partial(self._serially, self._register_template),
        }
        jobs: Dict[object, Tuple[Callable, List[int]]] = {}
        for index, request in enumerate(requests):
            self._m_requests.inc()
            route = self._route_name(request)
            # only the dispatch-bound routes consume (and are limited by)
            # capacity — control-plane probes must neither be shed nor make a
            # bounded server look busy to its own health check
            if route in _BOUNDED_ROUTES and self._inflight >= self.max_inflight:
                replies[index] = self._shed()
                continue
            handler = handlers.get(request.path) if request.method == "POST" else None
            if handler is None:
                replies[index] = self._answer(self._on_loop, request)
                self._observe(route, begun)
                continue
            self._inflight += 1
            self._m_inflight.inc()
            # each template registration is a job of its own
            key = index if route == "templates" else route
            jobs.setdefault(key, (handler, []))[1].append(index)
        done = await asyncio.gather(
            *(
                self._run_job(handler, [requests[i] for i in indices], begun)
                for handler, indices in jobs.values()
            )
        )
        for (_handler, indices), answers in zip(jobs.values(), done):
            for index, answer in zip(indices, answers):
                replies[index] = answer
        return replies

    async def _run_job(
        self, handler: Callable, requests: List[Request], begun: float
    ) -> List[bytes]:
        try:
            future = self._loop.run_in_executor(self._pool, handler, requests)
            return await future
        except asyncio.CancelledError:
            # the awaiting side was cancelled (connection torn down) but the
            # worker keeps running — retrieve its eventual result/exception
            # so nothing leaks an "exception was never retrieved" warning
            future.add_done_callback(lambda f: f.cancelled() or f.exception())
            raise
        except Exception as exc:  # noqa: BLE001 - the job itself failed
            return [self._failure(exc) for _ in requests]
        finally:
            for request in requests:
                self._inflight -= 1
                self._m_inflight.dec()
                self._observe(self._route_name(request), begun)

    def _shed(self) -> bytes:
        # overload: an explicit retry hint instead of queueing without bound
        # — health and metrics stay answerable so operators can see it
        self._shed_total += 1
        self._last_shed = time.monotonic()
        self._m_shed.inc()
        # the hint rides both the header (HTTP-proper) and the body (for
        # clients that only look at the JSON payload)
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

    def _answer(self, handler: Callable, request: Request) -> bytes:
        """``handler(request)``, or the error reply for its failure."""
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 - one request must not kill the connection
            return self._failure(exc)

    def _failure(self, exc: Exception) -> bytes:
        self._m_errors.inc()
        if isinstance(exc, ProtocolError):
            return error_response(400, str(exc))
        if isinstance(exc, ServiceError):
            return error_response(503, str(exc))
        return error_response(500, f"internal error: {exc!r}")

    def _serially(self, handler: Callable, requests: List[Request]) -> List[bytes]:
        return [self._answer(handler, request) for request in requests]

    def _observe(self, route: str, begun: float) -> None:
        histogram = self._m_latency.get(route)
        if histogram is not None:
            histogram.observe((time.perf_counter() - begun) * 1e3)

    @staticmethod
    def _route_name(request: Request) -> str:
        return request.path.strip("/").split("/", 1)[0] or "health"

    def _on_loop(self, request: Request) -> bytes:
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
        self._m_errors.inc()
        return error_response(404, f"no route for {method} {path}")

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
                # a name the service was given in code has a builder this
                # server cannot compare: a submission would run the wire
                # spec but be judged by that builder's program
                if known is None and self.service.admission.template(template.name) is not None:
                    raise ProtocolError(
                        f"template {template.name!r} is already registered "
                        "with the service"
                    )
                # under the same lock as the checks, so two concurrent
                # registrations of one name cannot both pass them.
                # Registration classifies nothing: each submission is judged
                # by its own shape
                self.service.register(template.admission_template())
                self._templates[template.name] = template
            return json_response(200, {"registered": template.name})

    def _execute_txn(self, requests: List[Request]) -> List[bytes]:
        """Every ``/txn`` of one batch, committed through one ``execute_many``.

        Each request keeps its own ``serve.request`` span, opened in a
        private ``contextvars`` context that its ``service.txn`` span nests in.
        """
        replies: List[Optional[bytes]] = [None] * len(requests)
        items: List[TxnItem] = []
        opened = []
        for index, request in enumerate(requests):
            context = contextvars.copy_context()
            span = context.run(_open_span, "serve.request", route="txn")
            try:
                items.append(self._txn_item(request, context))
            except Exception as exc:  # noqa: BLE001 - mapped per request
                replies[index] = self._settle(context, span, exc)
                continue
            opened.append((index, context, span))
        outcomes = self.service.execute_many(items)
        for (index, context, span), outcome in zip(opened, outcomes):
            replies[index] = self._settle(context, span, outcome)
        return replies

    def _settle(self, context, span, outcome) -> bytes:
        """Close one request's span (in its context) and build its reply."""
        if isinstance(outcome, Exception):
            context.run(span.__exit__, type(outcome), outcome, outcome.__traceback__)
            return self._failure(outcome)
        span.annotate(status=outcome.status)
        context.run(span.__exit__, None, None, None)
        return json_response(200, _outcome_payload(outcome))

    def _txn_item(self, request: Request, context: contextvars.Context) -> TxnItem:
        """Decode one ``/txn`` body into the service's work item."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError("txn body must be a JSON object")
        tag = payload.get("tag")
        deadline = None
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                raise ProtocolError("'deadline_ms' must be a positive number")
            deadline = time.monotonic() + float(deadline_ms) / 1e3
        name = payload.get("template")
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
            return TxnItem(
                template.tracked_work(params), name, params, tag, deadline, context
            )
        if "ops" in payload:
            # ad-hoc transaction: no registered program, runtime checks
            anonymous = WireTemplate({"name": "_adhoc", "ops": payload["ops"]})
            return TxnItem(
                anonymous.tracked_work(()), tag=tag, deadline=deadline,
                context=context,
            )
        raise ProtocolError("txn body needs 'template' or 'ops'")

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
        # the serve knobs as this server runs them: flags and constructor
        # arguments override the environment
        host, port = self.address or (self.host, self.port)
        observed["settings"].update(
            REPRO_SERVE_HOST=host, REPRO_SERVE_PORT=port,
            REPRO_SERVE_WORKERS=self.workers,
        )
        # commit-log tags and other caller objects are not JSON-safe; the
        # round trip below drops nothing the wire can represent anyway
        return json.loads(json.dumps(observed, default=repr, sort_keys=True))


def _open_span(name: str, **attrs):
    return _trace.span(name, **attrs).__enter__()


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

    The names and programs match :func:`repro.service.workloads.
    standard_templates`, so a server that pre-registers these serves the
    same admission fast paths a remote ``POST /templates`` would have
    produced.
    """
    return [
        WireTemplate({"name": "link-forward", "ops": [{"insert": ["E", ["$0", "$1"]]}]}),
        WireTemplate({"name": "unlink", "ops": [{"delete": ["E", ["$0", "$1"]]}]}),
        WireTemplate({"name": "add-edge", "ops": [{"insert": ["E", ["$0", "$1"]]}]}),
    ]


def preregister(server: TransactionServer) -> None:
    """Register and install the standard wire templates on ``server``."""
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
        max_inflight: int = DEFAULT_SERVE_QUEUE,
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
