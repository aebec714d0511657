"""Run a standalone transaction server: ``python -m repro.serve``.

Serves the standard referral-graph workload (the ``no-loops`` and
``no-triangles`` constraints, the link-forward/unlink/add-edge templates
pre-registered as wire templates) over a fresh forward graph.  Durability
follows the ambient environment: start with ``REPRO_DURABLE=on`` to put the
WAL engine under the store, ``REPRO_TRACE=on`` for span timelines, and scrape
``GET /metrics`` for the registry.

Knobs (flags override the environment; README's knob table has the rest):

* ``--host`` / ``REPRO_SERVE_HOST`` (default ``127.0.0.1``)
* ``--port`` / ``REPRO_SERVE_PORT`` (default ``7453``; ``0`` = ephemeral)
* ``--workers`` / ``REPRO_SERVE_WORKERS`` (default 8)
* ``--accounts`` / ``--edges-per`` — initial graph shape

A storage engine that cannot start — ``REPRO_WAL_DIR`` held by another
server, say — is logged and the process exits with status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import logging
import signal
import sys

from ..db.engines import StorageEngineError
from ..service.workloads import build_service, forward_graph
from ..settings import setting
from .server import TransactionServer, preregister

logger = logging.getLogger("repro.serve")


async def _serve(args: argparse.Namespace) -> None:
    initial = forward_graph(args.accounts, args.edges_per, seed=args.seed)
    service = build_service(initial)
    server = TransactionServer(
        service,
        host=args.host,
        port=args.port,
        workers=args.workers,
        owns_service=True,
    )
    await server.start()
    preregister(server)
    host, port = server.address
    print(f"repro.serve listening on {host}:{port} "
          f"({server.workers} workers, {args.accounts} accounts)", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("draining...", flush=True)
    await server.stop()
    print("bye", flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--host", default=setting("REPRO_SERVE_HOST"))
    parser.add_argument("--port", type=int, default=setting("REPRO_SERVE_PORT"))
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--accounts", type=int, default=200)
    parser.add_argument("--edges-per", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except StorageEngineError as exc:
        logger.error("cannot start: %s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
