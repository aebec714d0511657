"""Every ``REPRO_*`` environment knob: one table, one reader.

Each row of :data:`KNOBS` declares one variable — its name, its kind, its
default, what it accepts and what it does — and :func:`setting` is the only
code that reads the process environment.  Every knob follows one rule: unset
or empty means the default; a value the row does not accept raises one
``RuntimeWarning`` naming the variable, the accepted values and the default,
and the default is used instead.  The kinds:

* ``choice`` — one of the row's values; where ``on``/``off`` are among
  them, ``1``/``true``/``yes`` read as ``"on"`` and ``0``/``false``/``no``
  as ``"off"``;
* ``integer`` — an integer inside the row's ``(low, high)`` bounds
  (``None`` for an open end);
* ``text`` — any string; where the row lists words (``REPRO_TRACE``'s
  ``off``/``on``) those are recognised, anything else is the text itself.

A knob is read where it takes effect — at import (``REPRO_BACKEND``,
``REPRO_TRACE``, ``REPRO_FAULTS``) or when the component it configures is
built — never per request.  ``python -m repro`` prints every knob's parsed
value; README's knob table is :func:`markdown_table`.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, NamedTuple, Optional, Tuple, Union

__all__ = [
    "Knob", "KNOBS", "KNOBS_BY_NAME", "setting", "current", "markdown_table",
]

CHOICE = "choice"
INTEGER = "integer"
TEXT = "text"

_SYNONYMS = {"1": "on", "true": "on", "yes": "on",
             "0": "off", "false": "off", "no": "off"}

Value = Union[str, int]
Bounds = Tuple[Optional[int], Optional[int]]
ON_OFF = ("on", "off")


class Knob(NamedTuple):
    """One environment variable: ``accepted`` holds the choices (``choice``,
    ``text``; empty for free text) or the ``(low, high)`` bounds
    (``integer``)."""

    name: str
    kind: str
    default: Value
    accepted: Union[Tuple[str, ...], Bounds]
    effect: str

    @property
    def choices(self) -> Tuple[str, ...]:
        return () if self.kind == INTEGER else self.accepted

    def expected(self) -> str:
        if self.kind != INTEGER:
            return "one of " + ", ".join(self.choices)
        low, high = self.accepted
        if high is not None:
            return f"an integer in {low}..{high}"
        return "an integer" + ("" if low is None else f" >= {low}")

    def parse(self, raw: str) -> Optional[Value]:
        """The value ``raw`` (stripped, non-empty) selects, or ``None``."""
        if self.kind == INTEGER:
            try:
                value = int(raw)
            except ValueError:
                return None
            low, high = self.accepted
            if (low is not None and value < low) or (high is not None and value > high):
                return None
            return value
        word = raw.lower()
        word = _SYNONYMS.get(word, word)
        if word in self.choices:
            return word
        return raw if self.kind == TEXT else None


KNOBS: Tuple[Knob, ...] = (
    Knob("REPRO_BACKEND", CHOICE, "compiled", ("naive", "compiled"),
         "evaluation backend, read at `import repro`"),
    Knob("REPRO_OPTIMIZER", CHOICE, "on", ON_OFF,
         "cost-based plan rewriting in the compiled backend (join "
         "reordering, complement avoidance, projection pushdown) — see "
         "`docs/optimizer.md`"),
    Knob("REPRO_METRICS", CHOICE, "on", ON_OFF,
         "process-wide metrics registry; `off` swaps in a shared no-op "
         "registry and leaves the legacy stats surfaces unchanged — see "
         "`docs/observability.md`"),
    Knob("REPRO_TRACE", TEXT, "off", ("off", "on"),
         "span tracing per transaction: `on` keeps finished spans in an "
         "in-process ring buffer, a file path also appends one JSON object "
         "per span to it — see `docs/observability.md`"),
    Knob("REPRO_FAULTS", TEXT, "", (),
         "fault injection at named commit-path sites, e.g. "
         "`wal.fsync:prob=0.1,exc=oserror;seed=42` (`off`, `0` and `none` "
         "inject nothing); invalid entries warn and are skipped — see "
         "`docs/robustness.md`"),
    Knob("REPRO_DURABLE", CHOICE, "off", ON_OFF,
         "`on` puts every new `Store` on the durable WAL engine (delta "
         "write-ahead log, snapshot checkpoints, crash recovery) — see "
         "`docs/durability.md`"),
    Knob("REPRO_WAL_DIR", TEXT, "", (),
         "WAL directory of env-selected durable stores; sharing it across "
         "store lifetimes is what makes restart recovery work, and one "
         "engine at a time holds it (`python -m repro.serve` exits 1 on a "
         "held one); unset, each store gets a temporary directory removed "
         "on `close()`"),
    Knob("REPRO_WAL_FSYNC", CHOICE, "commit", ("commit", "close", "never"),
         "fsync policy of WAL engines built without `fsync=`: every commit, "
         "at close only (survives process death, not power loss), or never "
         "(benchmarks); a typo falls back to the most durable, `commit`"),
    Knob("REPRO_SERVICE_WORKERS", INTEGER, 8, (1, None),
         "worker threads of the service workload driver and E16 (`--jobs` "
         "in `run_all.py`)"),
    Knob("REPRO_SEED", INTEGER, 0, (None, None),
         "seed of the workload streams and the test-suite generators "
         "(`--seed` in `run_all.py`)"),
    Knob("REPRO_SERVE_HOST", TEXT, "127.0.0.1", (),
         "listen address of `python -m repro.serve` (`--host` overrides)"),
    Knob("REPRO_SERVE_PORT", INTEGER, 7453, (0, 65535),
         "listen port of `python -m repro.serve`, `0` for an ephemeral one "
         "(`--port` overrides)"),
    Knob("REPRO_SERVE_WORKERS", INTEGER, 8, (1, None),
         "worker pool of every `TransactionServer` built without "
         "`workers=`: how many batch jobs (one per request kind per network "
         "batch) run at once (`--workers` overrides) — see "
         "`docs/serving.md`"),
)

KNOBS_BY_NAME: Dict[str, Knob] = {knob.name: knob for knob in KNOBS}


def _read(knob: Knob) -> Tuple[Value, Optional[str]]:
    """``(value, rejected raw text or None)`` for one knob."""
    raw = os.environ.get(knob.name, "").strip()
    if not raw:
        return knob.default, None
    value = knob.parse(raw)
    if value is None:
        return knob.default, raw
    return value, None


def setting(name: str) -> Value:
    """The parsed value of the ``REPRO_*`` variable ``name`` (see :data:`KNOBS`)."""
    knob = KNOBS_BY_NAME[name]
    value, rejected = _read(knob)
    if rejected is not None:
        warnings.warn(
            f"ignoring invalid {name}={rejected!r}; expected "
            f"{knob.expected()} — falling back to {value!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    return value


def current() -> Dict[str, Value]:
    """Every knob's parsed value now, in table order (an invalid value shows
    the default it falls back to; the read that took effect already warned)."""
    return {knob.name: _read(knob)[0] for knob in KNOBS}


def _values_cell(knob: Knob) -> str:
    if knob.kind == INTEGER:
        return f"{knob.expected()} (default `{knob.default}`)"
    cells = [
        f"`{choice}`" + (" (default)" if choice == knob.default else "")
        for choice in knob.choices
    ]
    if knob.kind != TEXT:
        return ", ".join(cells)
    if knob.default in knob.choices:
        return ", ".join(cells + ["other text"])
    default = f"`{knob.default}`" if knob.default else "unset"
    return f"text (default {default})"


def markdown_table() -> str:
    """README's knob table: one row per knob, in table order."""
    lines = ["| Variable | Values | Effect |", "| --- | --- | --- |"]
    lines += [
        f"| `{knob.name}` | {_values_cell(knob)} | {knob.effect} |"
        for knob in KNOBS
    ]
    return "\n".join(lines)
