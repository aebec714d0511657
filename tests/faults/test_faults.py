"""The fault-injection framework itself: schedules, determinism, hooks, env."""

from __future__ import annotations

import pytest

from repro import faults
from repro.db.engines import StorageEngineError


@pytest.fixture(autouse=True)
def clean_hooks():
    faults.uninstall()
    yield
    faults.uninstall()


class TestNullHooks:
    def test_no_plan_means_noops(self):
        assert faults.active_plan() is None
        faults.fire("wal.fsync")  # must not raise
        assert faults.fired("anything") is False
        assert faults.delay("anything") == 0.0

    def test_uninstall_restores_noops(self):
        plan = faults.FaultPlan().site("x")
        faults.install(plan)
        with pytest.raises(faults.InjectedFault):
            faults.fire("x")
        faults.uninstall()
        faults.fire("x")  # no-op again
        assert faults.active_plan() is None

    def test_unknown_site_is_free_with_plan_installed(self):
        faults.install(faults.FaultPlan().site("x"))
        faults.fire("some.other.site")
        assert faults.fired("some.other.site") is False


class TestSchedules:
    def test_hits_schedule_is_exact(self):
        plan = faults.FaultPlan().site("s", hits=(2, 5))
        fired = [plan.fired("s") for _ in range(6)]
        assert fired == [False, True, False, False, True, False]

    def test_after_skips_prefix(self):
        plan = faults.FaultPlan().site("s", after=3)
        assert [plan.fired("s") for _ in range(5)] == [
            False, False, False, True, True,
        ]

    def test_limit_caps_triggers(self):
        plan = faults.FaultPlan().site("s", limit=2)
        assert sum(plan.fired("s") for _ in range(10)) == 2
        assert plan.triggered("s") == 2

    def test_probability_is_seed_deterministic(self):
        def run(seed):
            plan = faults.FaultPlan(seed=seed).site("s", probability=0.5)
            return [plan.fired("s") for _ in range(64)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_sites_have_independent_streams(self):
        plan = faults.FaultPlan(seed=3)
        plan.site("a", probability=0.5)
        plan.site("b", probability=0.5)
        a_alone = faults.FaultPlan(seed=3).site("a", probability=0.5)
        interleaved = [plan.fired("a") for _ in range(32)]
        for _ in range(32):
            plan.fired("b")
        assert interleaved == [a_alone.fired("a") for _ in range(32)]

    def test_report_counts_calls_and_triggers(self):
        plan = faults.FaultPlan().site("s", hits=(1,))
        plan.fired("s")
        plan.fired("s")
        assert plan.report()["s"] == {"calls": 2, "triggers": 1}


class TestExceptionKinds:
    def test_default_is_injected_fault(self):
        plan = faults.FaultPlan().site("s")
        with pytest.raises(faults.InjectedFault) as err:
            plan.fire("s")
        assert err.value.site == "s"

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("oserror", OSError),
            ("disk_full", OSError),
            ("storage", StorageEngineError),
            ("conn_reset", ConnectionResetError),
            ("broken_pipe", BrokenPipeError),
            ("timeout", TimeoutError),
        ],
    )
    def test_kinds_map_to_exceptions(self, kind, expected):
        plan = faults.FaultPlan().site("s", exc=kind)
        with pytest.raises(expected):
            plan.fire("s")

    def test_disk_full_carries_enospc(self):
        plan = faults.FaultPlan().site("s", exc="disk_full")
        with pytest.raises(OSError) as err:
            plan.fire("s")
        assert err.value.errno == 28

    def test_exc_none_fires_without_raising(self):
        plan = faults.FaultPlan().site("s", exc="none", latency=0.25)
        plan.fire("s")  # latency-only sites never raise from fire()
        assert plan.delay("s") == 0.25

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultSpec(site="s", exc="nope")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultSpec(site="s", probability=1.5)


class TestDelay:
    def test_delay_returns_latency_without_sleeping(self):
        plan = faults.FaultPlan().site("s", latency=10.0, exc="none")
        import time

        begun = time.monotonic()
        assert plan.delay("s") == 10.0
        assert time.monotonic() - begun < 1.0

    def test_delay_zero_when_not_triggered(self):
        plan = faults.FaultPlan().site("s", latency=1.0, hits=(2,))
        assert plan.delay("s") == 0.0
        assert plan.delay("s") == 1.0


class TestInjectedContext:
    def test_context_installs_and_uninstalls(self):
        plan = faults.FaultPlan().site("x")
        with faults.injected(plan) as active:
            assert active is plan
            assert faults.active_plan() is plan
        assert faults.active_plan() is None


class TestEnvParsing:
    def test_parse_simple_plan(self):
        plan = faults.parse_plan(
            "wal.fsync:prob=0.5,exc=oserror;serve.read.slow:latency=0.05,exc=none;seed=42"
        )
        assert plan is not None
        assert plan.seed == 42
        report = plan.report()
        assert set(report) == {"wal.fsync", "serve.read.slow"}

    def test_parse_hits_and_limit(self):
        plan = faults.parse_plan("s:hits=2-5,limit=1")
        assert [plan.fired("s") for _ in range(5)] == [
            False, True, False, False, False,
        ]

    def test_malformed_entry_warns_and_skips(self):
        with pytest.warns(RuntimeWarning):
            plan = faults.parse_plan("garbage-no-colon;ok.site:prob=1.0")
        assert plan is not None
        assert set(plan.report()) == {"ok.site"}

    def test_invalid_option_warns_and_skips_entry(self):
        with pytest.warns(RuntimeWarning):
            plan = faults.parse_plan("s:prob=banana")
        assert plan is None

    def test_invalid_seed_warns(self):
        with pytest.warns(RuntimeWarning):
            plan = faults.parse_plan("seed=xyz;s:prob=1.0")
        assert plan is not None and plan.seed == 0

    def test_off_values_mean_no_plan(self, monkeypatch):
        for value in ("", "off", "0", "none"):
            monkeypatch.setenv("REPRO_FAULTS", value)
            assert faults.plan_from_env() is None

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "a.b:prob=1.0,exc=timeout")
        plan = faults.plan_from_env()
        assert plan is not None
        with pytest.raises(TimeoutError):
            plan.fire("a.b")
