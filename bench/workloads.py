"""Seeded request streams for the socket workloads, and the oracle that checks them.

A :class:`Traffic` object turns ``(workload, seed, base graph)`` into an
endless, deterministic stream of wire requests.  Each request carries the
outcome the server *must* give, which the base graph alone decides:

* ``link`` — ``link-forward`` of a forward edge that is neither in the base
  graph nor currently linked by the stream: must commit (a forward graph
  cannot close a triangle through a new forward edge);
* ``unlink`` — removes the oldest edge the stream linked at least
  ``MIN_GAP`` requests ago, so the data set stays within a few dozen rows of
  its stated size for the whole run: must commit;
* ``add-loop`` / ``add-closer`` — ``add-edge`` of a loop, or of the back edge
  closing a 2-path of *base* edges (which the stream never removes): the
  guard must reject both, whatever else is in flight;
* ``contains`` — a base edge (true) or its reverse (false);
* ``evaluate`` — one of eight formulas with ``x`` bound to an account; the
  expected value is stated where the base graph fixes it.

:class:`Oracle` replays the committed writes in response ``version`` order
into a plain set and compares it with the server's final ``scan E``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from gen import Phase, encode

__all__ = ["FORMULAS", "MIXES", "Deck", "Op", "Traffic", "Oracle", "consistent"]

Edge = Tuple[int, int]

#: requests between a ``link`` and the ``unlink`` that removes it — more than
#: any phase keeps in flight, so the unlink finds its edge committed
MIN_GAP = 48

FORMULAS = (
    "exists y . E(x, y)",
    "exists y . E(y, x)",
    "~E(x, x)",
    "exists y . E(x, y) & E(y, x)",
    "exists y . exists z . E(x, y) & E(y, z)",
    "forall y . E(x, y) -> ~E(y, x)",
    "exists y . exists z . E(x, y) & E(x, z) & ~(y = z)",
    "exists y . E(y, x) & (exists z . E(x, z))",
)

#: reads per 20 requests, then link-forward / unlink / add-edge per 20 writes,
#: and whether accounts are drawn Zipf(1.1) or uniformly
MIXES: Dict[str, Tuple[int, Tuple[int, int, int], bool]] = {
    "serve-write": (0, (10, 10, 0), False),
    "serve-read": (20, (0, 0, 0), False),
    "serve-mixed-large": (16, (7, 7, 6), True),
}


class Deck:
    """Draws without replacement from a shuffled hand, reshuffling when empty.

    Every 20 requests hold exactly the workload's shares of each kind, so two
    seeds differ in the order and the accounts of their requests, not in how
    many expensive ones they happened to draw (700 independent draws at 20 %
    writes would vary the write count, and with it the throughput, by 8 %).
    """

    def __init__(self, cards: Sequence[object], rng: random.Random):
        self._cards, self._rng, self._hand = list(cards), rng, []

    def draw(self) -> object:
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


@dataclass(frozen=True)
class Op:
    """One generated request and the outcome the server must give."""

    kind: str
    a: int
    b: int
    #: ``"committed"``/``"rejected"`` for writes; ``True``/``False`` for reads,
    #: ``None`` where the value depends on what the stream has linked so far
    expect: object

    @property
    def is_write(self) -> bool:
        return self.kind in ("link", "unlink", "add-loop", "add-closer")

    @property
    def template(self) -> str:
        """The registered transaction template a write instantiates."""
        return {"link": "link-forward", "unlink": "unlink"}.get(self.kind, "add-edge")


def _zipf_cdf(accounts: int, s: float = 1.1) -> List[float]:
    total = 0.0
    cdf = []
    for rank in range(accounts):
        total += 1.0 / ((rank + 1) ** s)
        cdf.append(total)
    return [value / total for value in cdf]


class Traffic:
    """The deterministic request stream of one socket workload."""

    def __init__(self, workload: str, seed: int, accounts: int, base: FrozenSet[Edge]):
        reads, (links, unlinks, adds), zipf = MIXES[workload]
        self.read_share = reads / 20
        self.accounts = accounts
        self.base = base
        self.rng = rng = random.Random(f"{workload}/{seed}")
        self._is_read = Deck([True] * reads + [False] * (20 - reads), rng)
        self._write_kind = Deck(
            ["link"] * links + ["unlink"] * unlinks + ["add"] * adds, rng
        )
        self._read_kind = Deck(["contains", "evaluate"] * 4, rng)
        self._formula = Deck(range(len(FORMULAS)), rng)
        self._add_kind = Deck(["loop", "closer", "closer"], rng)
        # a tenth of the links of a workload with risky writes are sent twice
        # back to back: a real write-write conflict — one commits the row, the
        # other conflicts, retries and finds nothing left to do
        self._twice = Deck([True] + [False] * 9 if adds else [False], rng)
        self._cdf = _zipf_cdf(accounts) if zipf else None
        self.successors: Dict[int, List[int]] = {}
        self.has_parent: Set[int] = set()
        for a, b in sorted(base):
            self.successors.setdefault(a, []).append(b)
            self.has_parent.add(b)
        self._edges = sorted(base)
        self._live: Deque[Tuple[int, Edge]] = deque()  # (request number, edge)
        self._live_set: Set[Edge] = set()
        self._sent = 0
        self._queued: Deque[Op] = deque()

    # -- account and edge choice ---------------------------------------------------

    def _account(self) -> int:
        if self._cdf is None:
            return self.rng.randrange(self.accounts)
        return min(self.accounts - 1, bisect_left(self._cdf, self.rng.random()))

    def _fresh_edge(self) -> Edge:
        while True:
            a, b = self._account(), self._account()
            edge = (min(a, b), max(a, b))
            if a != b and edge not in self.base and edge not in self._live_set:
                return edge

    def _closer(self) -> Edge:
        """The back edge ``(a, b)`` closing some base 2-path ``b -> w -> a``."""
        while True:
            b, w = self._edges[self.rng.randrange(len(self._edges))]
            onward = self.successors.get(w)
            if onward:
                return onward[self.rng.randrange(len(onward))], b

    # -- op construction -------------------------------------------------------------

    def _read(self) -> Op:
        a = self._account()
        if self._read_kind.draw() == "contains":
            onward = self.successors.get(a)
            if not onward:
                return Op("contains", a, a, False)
            b = onward[self.rng.randrange(len(onward))]
            if self.rng.random() < 0.5:
                return Op("contains", a, b, True)
            return Op("contains", b, a, False)
        return Op("evaluate", a, self._formula.draw(), None)

    def _write(self) -> Op:
        kind = self._write_kind.draw()
        ripe = bool(self._live) and self._sent - self._live[0][0] >= MIN_GAP
        if kind == "add":
            if self._add_kind.draw() == "loop":
                a = self._account()
                return Op("add-loop", a, a, "rejected")
            a, b = self._closer()
            return Op("add-closer", a, b, "rejected")
        # an unlink needs a ripe edge (until MIN_GAP requests have passed it
        # becomes a link), and a surplus of live edges turns a link into one
        wants_unlink = kind == "unlink" or len(self._live) >= MIN_GAP + 8
        if ripe and wants_unlink:
            _at, edge = self._live.popleft()
            self._live_set.discard(edge)
            return Op("unlink", edge[0], edge[1], "committed")
        edge = self._fresh_edge()
        self._live.append((self._sent, edge))
        self._live_set.add(edge)
        op = Op("link", edge[0], edge[1], "committed")
        if self._twice.draw():
            self._queued.append(op)
        return op

    def _next(self) -> Op:
        if self._queued:
            op = self._queued.popleft()
        elif self._is_read.draw():
            op = self._read()
        else:
            op = self._write()
        self._sent += 1
        return op

    def take(self, count: int) -> Tuple[List[bytes], List[Op]]:
        """The next ``count`` requests: wire bytes and their expectations."""
        ops = [self._next() for _ in range(count)]
        return [self.wire(op) for op in ops], ops

    def every_evaluate(self) -> Tuple[List[bytes], List[Op]]:
        """Each (account, formula) instance once — a warm-up that compiles them all.

        The server substitutes ``x`` before planning, so every instance is a
        plan of its own; 200 accounts x 8 formulas fit its 2048-entry plan
        cache, and a workload meant to fit every cache should start with
        them in it.
        """
        ops = [
            Op("evaluate", account, formula, None)
            for account in range(self.accounts)
            for formula in range(len(FORMULAS))
        ]
        return [self.wire(op) for op in ops], ops

    @staticmethod
    def wire(op: Op) -> bytes:
        if op.kind == "contains":
            return encode("POST", "/read", {"contains": ["E", [op.a, op.b]]})
        if op.kind == "evaluate":
            body = {"evaluate": {"formula": FORMULAS[op.b], "assignment": {"x": op.a}}}
            return encode("POST", "/read", body)
        return encode("POST", "/txn", {"template": op.template, "params": [op.a, op.b]})

    def expected_evaluate(self, op: Op) -> Optional[bool]:
        """The value of formula ``op.b`` at ``x = op.a`` where the base fixes it.

        The stream only ever adds forward edges on top of the base graph, so
        an existential already true in the base stays true, and nothing can
        ever hold a loop or a 2-cycle.
        """
        onward = self.successors.get(op.a, ())
        known = {
            0: True if onward else None,
            1: True if op.a in self.has_parent else None,
            2: True,
            3: False,
            4: True if any(self.successors.get(w) for w in onward) else None,
            5: True,
            6: True if len(onward) >= 2 else None,
            7: True if onward and op.a in self.has_parent else None,
        }
        return known[op.b]


class Oracle:
    """The client-side model: what the server's ``E`` must be after the run."""

    def __init__(self, traffic: Traffic):
        self.traffic = traffic
        self.attempted = 0
        self.failed = 0
        self.first_failures: List[str] = []
        self._committed: List[Tuple[int, int, Op]] = []  # (version, arrival, op)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.first_failures) < 10:
            self.first_failures.append(why)

    def check(self, phase: Phase, ops: Sequence[Op]) -> int:
        """Check every response of one phase; returns how many failed."""
        before = self.failed
        for index, op in enumerate(ops):
            self.attempted += 1
            status = phase.status[index]
            if status != 200:
                self.fail(f"{op.kind}({op.a},{op.b}): HTTP {status or 'no response'}")
                continue
            payload = phase.payload(index)
            if op.is_write:
                if payload["status"] != op.expect:
                    self.fail(
                        f"{op.kind}({op.a},{op.b}): {payload['status']} "
                        f"({payload['reason']}), expected {op.expect}"
                    )
                if payload["status"] == "committed":
                    self._committed.append(
                        (payload["version"], len(self._committed), op)
                    )
                continue
            want = op.expect if op.kind == "contains" else (
                self.traffic.expected_evaluate(op)
            )
            got = payload["result"]
            if not isinstance(got, bool) or (want is not None and got != want):
                self.fail(f"{op.kind}({op.a},{op.b}): result {got!r}, expected {want!r}")
        return self.failed - before

    def final_edges(self) -> Set[Edge]:
        """Replay the committed writes in ``version`` order over the base graph.

        Writes sharing a version came from one group-commit batch (or read a
        snapshot at that version and changed nothing); validation keeps a
        batch's effective writes row-disjoint, so their order within the
        version cannot matter.
        """
        edges = set(self.traffic.base)
        for _version, _arrival, op in sorted(self._committed, key=lambda c: c[:2]):
            if op.kind == "unlink":
                edges.discard((op.a, op.b))
            else:
                edges.add((op.a, op.b))
        return edges

    def check_scan(self, rows: object, when: str) -> None:
        """``rows`` (a ``scan E`` result) must equal the model and be consistent."""
        self.attempted += 1
        served = {tuple(row) for row in rows} if isinstance(rows, list) else None
        model = self.final_edges()
        if served != model:
            extra = sorted((served or set()) - model)[:3]
            missing = sorted(model - (served or set()))[:3]
            self.fail(f"{when}: scan differs from the model (extra {extra}, missing {missing})")
        elif not consistent(served):
            self.fail(f"{when}: served state has a loop or a triangle")


def consistent(edges: Set[Edge]) -> bool:
    """No loops and no directed triangles, by plain set lookups."""
    onward: Dict[int, List[int]] = {}
    for a, b in edges:
        if a == b:
            return False
        onward.setdefault(a, []).append(b)
    for a, b in edges:
        for c in onward.get(b, ()):
            if (c, a) in edges:
                return False
    return True
