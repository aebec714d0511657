"""The load generator: one asyncio loop, a few keep-alive pipelined connections.

Two drivers share one connection type:

* :func:`open_loop` sends pre-encoded requests on a seeded Poisson schedule
  whether or not earlier ones were answered, and times every request from the
  instant it was **due** (not from when the generator got round to writing
  it), so a stalled server shows up in the latency of everything queued
  behind the stall.  How late the generator itself ran is reported alongside
  (``late_ms``) — a step whose lateness is large measured the generator.
* :func:`closed_loop` keeps a fixed number of requests outstanding per
  connection and sends a fixed *count*, so two versions of the server see the
  same requests (and the same data growth) however fast they are.

Responses come back in request order per connection (HTTP/1.1 pipelining),
so matching is a FIFO per connection.  Bodies are kept as bytes and decoded
after the phase — the generator does as little as possible while the clock
runs.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

__all__ = [
    "Phase",
    "encode",
    "percentile",
    "poisson_schedule",
    "open_loop",
    "closed_loop",
    "request_once",
]

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"Content-Length: "


def encode(method: str, path: str, body: Optional[object] = None) -> bytes:
    """One wire request (the same framing ``repro.serve.client`` uses)."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("ascii") + data


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def split_responses(buffer: bytes) -> Tuple[List[Tuple[int, bytes]], bytes]:
    """Every complete ``(status, body)`` in ``buffer`` and the unparsed rest."""
    found: List[Tuple[int, bytes]] = []
    pos = 0
    while True:
        head_end = buffer.find(_HEAD_END, pos)
        if head_end < 0:
            break
        at = buffer.find(_LENGTH, pos, head_end)
        if at < 0:
            raise ValueError("response without Content-Length")
        line_end = buffer.find(b"\r\n", at, head_end + 2)
        length = int(buffer[at + len(_LENGTH):line_end])
        body_start = head_end + 4
        if len(buffer) < body_start + length:
            break
        # "HTTP/1.1 200 OK": the status code sits at a fixed offset
        found.append((int(buffer[pos + 9:pos + 12]), buffer[body_start:body_start + length]))
        pos = body_start + length
    return found, buffer[pos:]


@dataclass
class Phase:
    """What one driver call measured, one slot per request (by index).

    ``due`` is when the request should have been written (open loop) or was
    written (closed loop), ``sent`` when it was, ``done`` when its response
    was parsed; all in seconds on the ``perf_counter`` clock.  ``status`` is
    0 for a request whose connection died before its response.
    """

    due: List[float]
    sent: List[float]
    done: List[float]
    status: List[int]
    body: List[bytes]
    started: float = 0.0
    ended: float = 0.0

    @classmethod
    def of(cls, count: int) -> "Phase":
        return cls(
            [0.0] * count, [0.0] * count, [0.0] * count, [0] * count, [b""] * count
        )

    def __len__(self) -> int:
        return len(self.due)

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    def latency_ms(self, index: int) -> float:
        return (self.done[index] - self.due[index]) * 1e3

    def late_ms(self) -> List[float]:
        """How far behind its schedule the generator wrote each request."""
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]

    def payload(self, index: int) -> object:
        """The decoded JSON body of response ``index``."""
        return json.loads(self.body[index]) if self.body[index] else None


class _Connection:
    """One keep-alive connection: a writer plus a task reading in FIFO order."""

    def __init__(self, reader, writer, phase: Phase, on_done: Callable[[int], None]):
        self.reader = reader
        self.writer = writer
        self.phase = phase
        self.on_done = on_done
        self.pending: Deque[int] = deque()
        self.task = asyncio.ensure_future(self._read())

    def send(self, index: int, blob: bytes, now: float) -> None:
        self.pending.append(index)
        self.phase.sent[index] = now
        self.writer.write(blob)

    async def _read(self) -> None:
        buffer = b""
        phase = self.phase
        while True:
            data = await self.reader.read(256 * 1024)
            if not data:
                return  # closed: whatever is still pending stays status 0
            buffer = buffer + data if buffer else data
            responses, buffer = split_responses(buffer)
            now = time.perf_counter()
            for status, body in responses:
                index = self.pending.popleft()
                phase.done[index] = now
                phase.status[index] = status
                phase.body[index] = body
                self.on_done(index)

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _connect(host, port, connections, phase, on_done) -> List[_Connection]:
    opened = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection(host, port)
        opened.append(_Connection(reader, writer, phase, on_done))
    return opened


async def _finish(
    opened: List[_Connection], drained: asyncio.Event, timeout: float
) -> None:
    try:
        await asyncio.wait_for(drained.wait(), timeout)
    except asyncio.TimeoutError:
        pass  # unanswered requests keep status 0 and count as failed
    finally:
        for connection in opened:
            await connection.close()


def poisson_schedule(rate: float, count: int, rng: random.Random) -> List[float]:
    """``count`` arrival offsets (seconds) of a Poisson process at ``rate``/s."""
    at = 0.0
    offsets = []
    for _ in range(count):
        at += rng.expovariate(rate)
        offsets.append(at)
    return offsets


async def open_loop(
    host: str,
    port: int,
    blobs: Sequence[bytes],
    offsets: Sequence[float],
    connections: int = 2,
    timeout: float = 60.0,
) -> Phase:
    """Write ``blobs[i]`` at ``offsets[i]`` regardless of completions.

    Requests go round-robin over ``connections`` keep-alive connections;
    everything already due when the sender wakes is written in one burst, so
    a server that reads them together sees one pipelined batch.
    """
    count = len(blobs)
    phase = Phase.of(count)
    answered = 0
    drained = asyncio.Event()

    def on_done(_index: int) -> None:
        nonlocal answered
        answered += 1
        if answered == count:
            drained.set()

    opened = await _connect(host, port, connections, phase, on_done)
    phase.started = start = time.perf_counter() + 0.05
    for index, offset in enumerate(offsets):
        phase.due[index] = start + offset
    index = 0
    try:
        while index < count:
            now = time.perf_counter()
            wait = phase.due[index] - now
            if wait > 0:
                await asyncio.sleep(wait)
                now = time.perf_counter()
            while index < count and phase.due[index] <= now:
                opened[index % connections].send(index, blobs[index], now)
                index += 1
    finally:
        await _finish(opened, drained, timeout)
    phase.ended = max(max(phase.done), phase.due[-1])
    return phase


async def closed_loop(
    host: str,
    port: int,
    blobs: Sequence[bytes],
    connections: int = 2,
    outstanding: int = 8,
    timeout: float = 120.0,
) -> Phase:
    """Send exactly ``blobs``, ``outstanding`` in flight per connection.

    A connection writes its next request the moment one of its own is
    answered.  Latency is measured from the write (``due == sent``).
    """
    count = len(blobs)
    phase = Phase.of(count)
    answered = 0
    next_index = 0
    drained = asyncio.Event()
    opened: List[_Connection] = []
    owner = [0] * count

    def send_next(connection_id: int) -> None:
        nonlocal next_index
        if next_index >= count:
            return
        index = next_index
        next_index += 1
        owner[index] = connection_id
        now = time.perf_counter()
        phase.due[index] = now
        opened[connection_id].send(index, blobs[index], now)

    def on_done(index: int) -> None:
        nonlocal answered
        answered += 1
        if answered == count:
            drained.set()
        else:
            send_next(owner[index])

    opened.extend(await _connect(host, port, connections, phase, on_done))
    phase.started = time.perf_counter()
    try:
        for _ in range(outstanding):
            for connection_id in range(connections):
                send_next(connection_id)
    finally:
        await _finish(opened, drained, timeout)
    phase.ended = max(phase.done) if answered else time.perf_counter()
    return phase


async def request_once(host: str, port: int, blob: bytes, timeout: float = 30.0):
    """One request on a fresh connection: ``(status, decoded JSON body)``."""
    phase = await closed_loop(host, port, [blob], 1, 1, timeout)
    return phase.status[0], phase.payload(0)
