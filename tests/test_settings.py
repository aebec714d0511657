"""The knob table: one rule for every ``REPRO_*`` variable, one README table.

Each knob is checked at the place that reads it where that is cheap to
reach (the backend, the storage engines, the server, the CLI parser, the
workload generator); the rest through :func:`repro.settings.setting`.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.db.engines import engine_from_env
from repro.db.wal import WalStorageEngine
from repro.engine import CompiledBackend
from repro.obs import metrics
from repro.serve import TransactionServer
from repro.serve.__main__ import parse_args
from repro.service.workloads import build_streams
from repro.settings import INTEGER, KNOBS, TEXT, markdown_table, setting
from strategies import repro_seed


def _durable():
    engine = engine_from_env()
    try:
        return "on" if engine.name == "wal" else "off"
    finally:
        engine.close()


def _fsync():
    engine = WalStorageEngine.ephemeral()
    try:
        return engine.fsync_policy
    finally:
        engine.close()


def _metrics():
    saved, metrics._registry = metrics._registry, None
    try:
        return "on" if metrics.metrics_enabled() else "off"
    finally:
        metrics._registry = saved


def _seed():
    def ops(**seed):
        streams = build_streams("mixed", 2, 8, 50, **seed)
        return [[(item.kind, item.params) for item in stream] for stream in streams]

    chosen = ops()
    return next((seed for seed in range(4) if ops(seed=seed) == chosen), None)


#: knob -> what the component that reads it took from the environment
READ_SITES = {
    "REPRO_OPTIMIZER": lambda: CompiledBackend().optimizer_mode,
    "REPRO_METRICS": _metrics,
    "REPRO_DURABLE": _durable,
    "REPRO_WAL_FSYNC": _fsync,
    "REPRO_SEED": _seed,
    "REPRO_SERVE_HOST": lambda: parse_args([]).host,
    "REPRO_SERVE_PORT": lambda: parse_args([]).port,
    "REPRO_SERVE_WORKERS": lambda: TransactionServer(None).workers,
}


def _valid(knob):
    """A value other than the default the knob accepts, and what it reads as."""
    if knob.kind == INTEGER:
        return str(knob.default + 1), knob.default + 1
    others = [choice for choice in knob.choices if choice != knob.default]
    if others:
        return f" {others[0].upper()} ", others[0]
    return " some text ", "some text"


def _garbage(knob):
    if knob.kind == INTEGER:
        low, high = knob.accepted
        outside = [str(bound + step) for bound, step in ((low, -1), (high, 1))
                   if bound is not None]
        return ["lots", *outside]
    return ["bogus"]


def test_each_knob_is_declared_once():
    assert len({knob.name for knob in KNOBS}) == len(KNOBS)


@pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.name)
def test_every_knob_follows_one_rule(knob, monkeypatch):
    """Unset or empty gives the default; a valid value is used; garbage warns,
    naming the variable, the accepted values and the default, and falls back
    to the default (free text has no garbage: every value is valid)."""
    read = READ_SITES.get(knob.name, lambda: setting(knob.name))
    raw, value = _valid(knob)
    monkeypatch.delenv(knob.name, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert read() == knob.default
        monkeypatch.setenv(knob.name, "")
        assert read() == knob.default
        monkeypatch.setenv(knob.name, raw)
        assert read() == value
    for garbage in [] if knob.kind == TEXT else _garbage(knob):
        monkeypatch.setenv(knob.name, garbage)
        with pytest.warns(RuntimeWarning) as caught:
            assert read() == knob.default
        message = str(caught[0].message)
        assert f"{knob.name}={garbage!r}" in message
        assert knob.expected() in message
        assert f"falling back to {knob.default!r}" in message


@pytest.mark.parametrize("word, value", [("1", "on"), ("yes", "on"),
                                         ("FALSE", "off"), ("no", "off")])
def test_on_off_synonyms(word, value, monkeypatch):
    monkeypatch.setenv("REPRO_OPTIMIZER", word)
    assert setting("REPRO_OPTIMIZER") == value
    monkeypatch.setenv("REPRO_TRACE", word)
    assert setting("REPRO_TRACE") == value


def test_the_test_harness_reads_the_seed_as_the_library_does(monkeypatch):
    monkeypatch.delenv("REPRO_SEED", raising=False)
    assert repro_seed() is None  # unset: hypothesis stays unseeded
    monkeypatch.setenv("REPRO_SEED", " 17 ")
    assert repro_seed() == setting("REPRO_SEED") == 17
    monkeypatch.setenv("REPRO_SEED", "0x11")
    with pytest.warns(RuntimeWarning, match="REPRO_SEED='0x11'"):
        assert repro_seed() == 0


def test_trace_takes_any_other_text_as_a_path(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", " spans/Run-1.jsonl ")
    assert setting("REPRO_TRACE") == "spans/Run-1.jsonl"


def test_readme_knob_table_is_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `REPRO_")]
    assert rows == markdown_table().splitlines()[2:]
    assert markdown_table() in readme
