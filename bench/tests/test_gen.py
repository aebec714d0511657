"""The generator measures what it claims: self-tests against stub servers."""

import asyncio
import random
import threading
import time

import gen

_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


class StubServer:
    """Answers every request with ``{}``; blocks its whole loop once, on request.

    A blocking ``time.sleep`` inside the handler stalls every connection, the
    way one long step under the interpreter lock stalls a real server.
    """

    def __init__(self, stall_at=None, stall_s=0.0):
        self.stall_at, self.stall_s = stall_at, stall_s
        self.seen = 0
        self.address = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    async def _serve(self, reader, writer):
        buffer = b""
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                buffer += data
                while b"\r\n\r\n" in buffer:
                    _head, _, buffer = buffer.partition(b"\r\n\r\n")
                    self.seen += 1
                    if self.seen == self.stall_at:
                        time.sleep(self.stall_s)
                    writer.write(_OK)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    def _run(self):
        self._loop = asyncio.new_event_loop()
        server = self._loop.run_until_complete(
            asyncio.start_server(self._serve, "127.0.0.1", 0)
        )
        self.address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        self._loop.run_forever()
        server.close()
        self._loop.run_until_complete(server.wait_closed())
        self._loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        assert not self._thread.is_alive()


_GET = b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n"


def test_latency_from_due_time_catches_coordinated_omission():
    rate, count = 500, 500
    offsets = gen.poisson_schedule(rate, count, random.Random(1))
    with StubServer(stall_at=100, stall_s=0.2) as stub:
        phase = asyncio.run(gen.open_loop(*stub.address, [_GET] * count, offsets, 2))
    assert phase.status == [200] * count
    slow = [i for i in range(count) if phase.latency_ms(i) > 100.0]
    # ~100 requests fall due during the 200 ms stall; each waits for what is
    # left of it, so about half of them wait more than 100 ms.  Timing from
    # the moment of writing would show a handful: the generator itself is not
    # blocked, but a closed loop would have stopped sending.
    assert len(slow) >= 25, f"only {len(slow)} requests saw the stall"
    # and the wait shrinks for requests due later in the stall
    assert phase.latency_ms(slow[0]) > phase.latency_ms(slow[-1])
    assert max(phase.latency_ms(i) for i in range(count)) >= 150.0


def test_generator_keeps_its_schedule_at_5000_per_second():
    rate, count = 5000, 5000
    offsets = gen.poisson_schedule(rate, count, random.Random(2))
    with StubServer() as stub:
        phase = asyncio.run(gen.open_loop(*stub.address, [_GET] * count, offsets, 2))
    assert phase.status == [200] * count
    late_p99 = gen.percentile(sorted(phase.late_ms()), 0.99)
    assert late_p99 < 5.0, f"generator ran {late_p99:.2f} ms late at p99"


def test_closed_loop_sends_exactly_the_count_and_bounds_what_is_in_flight():
    with StubServer() as stub:
        phase = asyncio.run(gen.closed_loop(*stub.address, [_GET] * 400, 2, 8))
        assert stub.seen == 400
    assert phase.status == [200] * 400
    events = sorted([(t, 1) for t in phase.sent] + [(t, -1) for t in phase.done])
    in_flight = peak = 0
    for _at, step in events:
        in_flight += step
        peak = max(peak, in_flight)
    assert peak <= 16


def test_split_responses_handles_partial_and_pipelined_input():
    one = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nabc"
    found, rest = gen.split_responses(_OK + one + _OK[:10])
    assert found == [(200, b"{}"), (503, b"abc")]
    assert rest == _OK[:10]
