#!/usr/bin/env python
"""Run every experiment benchmark under both engines and record the trajectory.

For each ``bench_e*.py`` in this directory the runner executes the benchmark
suite (via pytest, with pytest-benchmark's timing loops disabled so one run
measures one pass of the workload) under the naive and the compiled backend,
and writes a ``BENCH_<rev>.json`` perf-trajectory file next to the repository
root::

    {
      "rev": "abc1234",
      "python": "3.11.7",
      "src_lines": 22593,
      "repro_knobs": 17,
      "results": {
        "e09": {"naive": 12.81, "compiled": 1.07, "speedup": 11.9, "ok": true},
        ...
      }
    }

Collecting one file per revision gives the repo a perf history that later
sessions (and CI) can diff — the point of the exercise is that the compiled
engine keeps the whole experiment suite "as fast as the hardware allows".

Usage::

    python benchmarks/run_all.py                 # everything, both backends
    python benchmarks/run_all.py --quick         # the engine-bound ones
    python benchmarks/run_all.py -e e09,e13      # a subset
    python benchmarks/run_all.py -b compiled     # one backend only
    python benchmarks/run_all.py -e e16 --seed 7 --jobs 8   # reproducible E16

``--seed``/``--jobs`` pin the workload streams and the service worker count
(exported as ``REPRO_SEED`` / ``REPRO_SERVICE_WORKERS``); both are recorded
in the trajectory file, and experiments that print ``BENCH-METRIC`` lines
(E16's throughput/speedup/abort-rate) get them folded into their row.
``METRIC_CEILINGS`` holds the recorded ratios that every run must stay under
(E13's static-precondition over run-time-check cost).  ``src_lines`` (lines
of ``src/**/*.py``) and ``repro_knobs`` (distinct ``REPRO_*`` names under
``src/``) track the size of the code and of its configuration surface;
they are recorded, not gated.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the experiments dominated by formula evaluation (the engine's hot paths)
QUICK = (
    "e09", "e12", "e13", "e15", "e16", "e18", "e20", "e21", "e22",
)
# per-experiment extra backends beyond the requested ones: the update-stream
# experiment A/Bs the compiled engine with delta evaluation off, so the
# trajectory records the incremental win (``delta_speedup``) explicitly.
# Recorded, not gated: the ratio falls whenever *full* execution gets faster
# (8.54 at PR 10, 2.2 after PRs 13-18 made the non-incremental run 3.3x
# faster), so it cannot tell a slower incremental path from a faster
# baseline; ``e15-scale``'s ``scale_ratio`` ceiling below gates the
# incremental path in a form that survives both that and a change of hardware
EXTRA_BACKENDS = {"e15": ("compiled-nodelta",)}
# per-experiment backend restriction: the service experiment compares the
# concurrent pipeline against a serial baseline *inside* one process, and the
# optimizer experiment times naive/unoptimized/optimized itself — the naive
# interpreter plays no role and would only burn the timeout
ONLY_BACKENDS = {
    "e16": ("compiled",),
    "e18": ("compiled",),
    # the durability experiment measures the storage engine (WAL appends,
    # fsyncs, recovery replay); the query backend never runs
    "e20": ("compiled",),
    # the serving experiment drives the network front-end over the standard
    # service; like e16 it only makes sense on the compiled fast paths
    "e21": ("compiled",),
    # availability under injected faults exercises the same serving stack
    "e22": ("compiled",),
}

#: per-experiment ratio fields gated by ``--baseline`` (a drop below
#: ``BASELINE_TOLERANCE`` x the committed value fails the run)
BASELINE_FIELDS = ("speedup",)
BASELINE_TOLERANCE = 0.95

#: tighter floors for experiments that carry the fault-injection no-op
#: hooks on their hot paths (per-request serving): with ``REPRO_FAULTS``
#: unset the hooks must cost nothing, so these ratios get a stricter gate
#: than the general 0.95x.  Keys are ``(experiment, field)`` for
#: BASELINE_FIELDS entries and ``(experiment, metric, field)`` for
#: BASELINE_METRICS entries.
STRICT_BASELINE_TOLERANCE = 0.97
STRICT_BASELINE_KEYS = {
    ("e21", "e21-open-loop", "batch_amortization"),
}

#: the metrics-registry micro-overhead gate: E15 (the per-update hot path)
#: re-runs under ``REPRO_METRICS=off`` and the metrics-on run must retain at
#: least this fraction of the metrics-off throughput
METRICS_OVERHEAD_FLOOR = 0.97

#: per-experiment *metric* ratios additionally gated by ``--baseline``:
#: (metric name, field) pairs read from ``row["metrics"]``.  A pair is only
#: compared when both runs recorded the same ``cpus`` — a baseline from a
#: different runner is not a regression oracle
BASELINE_METRICS = {
    # deterministic (replay counts, not wall time): checkpoints must keep
    # shrinking recovery work by the same factor
    "e20": (("e20-checkpoint-recovery", "replay_reduction"),),
    # serving must keep amortising durable writes across the socket: acked
    # commits per WAL append under the 1024-client open-loop storm
    "e21": (("e21-open-loop", "batch_amortization"),),
    # e22's figures (availability, goodput, tails under a fault mix) are
    # recorded in the trajectory but deliberately NOT gated here: retry
    # backoff and injected latency make them wall-time-shaped, and the
    # benchmark asserts its own deterministic invariants inline
}


#: metric ceilings checked on every run, no baseline needed: ratios between
#: two configurations measured inside one benchmark process, so they survive
#: a change of hardware.  ``(metric name, field, highest accepted value)``.
METRIC_CEILINGS = {
    # the paper's opening argument: guarding with wpc(T, alpha) on the
    # pre-state must not cost a multiple of execute / re-check / roll back.
    # 13x before preconditions over fresh constants rode the state history's
    # carried sub-plans, 1.5x after; 1.33-1.39x measured since every instance
    # of a precondition runs one prepared plan.  Since the static policy
    # checks the guard derived from the constraint's denial form from a
    # state known consistent — true or false for the workload's edge
    # inserts, nothing to evaluate — it is below 1, the paper's claim.
    "e13": (("e13-static-vs-runtime", "static_over_runtime", 1.2),),
    # a transaction is a function from databases to databases, so a step
    # must cost what the update touches: a single-tuple transaction at 19.2k
    # rows over the same at 2.4k rows.  About 8x while each step copied the
    # flat row sets it patched; 2-3.5x since rows are persistent (what is
    # left are cloned counters and the delete statement's scan).
    "e15": (("e15-scale", "scale_ratio", 5.0),),
}


def discover() -> dict:
    """Map experiment ids (``e01``...) to benchmark file paths."""
    experiments = {}
    for path in sorted(glob.glob(os.path.join(HERE, "bench_e*.py"))):
        match = re.match(r"bench_(e\d+)", os.path.basename(path))
        if match:
            experiments[match.group(1)] = path
    return experiments


def source_size() -> tuple:
    """``(lines of src/**/*.py, distinct REPRO_* names under src/)``."""
    lines = 0
    knobs = set()
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        lines += text.count("\n")
        knobs.update(re.findall(r"REPRO_[A-Z_]+", text))
    return lines, len(knobs)


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except Exception:
        return "unknown"


def run_one(
    path: str, backend: str, timeout: int, seed: int, jobs: int,
    extra_env: dict = None,
) -> dict:
    """One pytest pass over one benchmark file under one backend."""
    env = dict(os.environ)
    env["REPRO_BACKEND"] = backend
    # an inherited REPRO_DELTA or REPRO_OPTIMIZER would silently corrupt
    # the A/Bs: the backend name alone must decide what the trajectory
    # measures (benchmarks that sweep the optimizer construct their own
    # backends explicitly); likewise an ambient REPRO_METRICS/REPRO_TRACE
    # would skew timings, so observability is pinned per run (metrics on by
    # default, tracing off — the overhead gate passes REPRO_METRICS=off)
    env.pop("REPRO_DELTA", None)
    env.pop("REPRO_OPTIMIZER", None)
    env.pop("REPRO_METRICS", None)
    env.pop("REPRO_TRACE", None)
    # an ambient fault plan would inject failures into every timing run;
    # E22 installs its chaos recipe programmatically instead
    env.pop("REPRO_FAULTS", None)
    # reproducibility knobs: workload streams derive from the seed, the
    # service driver's thread count from the job count (E16 records both)
    env["REPRO_SEED"] = str(seed)
    env["REPRO_SERVICE_WORKERS"] = str(jobs)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if extra_env:
        env.update(extra_env)
    command = [
        sys.executable, "-m", "pytest", path, "-q", "-s",
        "-p", "no:cacheprovider", "--benchmark-disable",
        # dumps the run's metrics-registry snapshot as a BENCH-OBS line at
        # session finish, folded into the trajectory row below
        "-p", "repro.obs.bench_plugin",
    ]
    started = time.perf_counter()
    metrics: dict = {}
    obs: dict = {}
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
        ok = proc.returncode == 0
        # prefer pytest's summary line; fall back to stderr (e.g. a bad
        # REPRO_BACKEND kills the run before pytest prints anything)
        output = proc.stdout.strip() or proc.stderr.strip()
        tail = output.splitlines()[-1] if output else ""
        # fold machine-readable per-benchmark figures into the trajectory
        for line in proc.stdout.splitlines():
            # pytest's progress dots may share the line with the marker
            marker = line.find("BENCH-METRIC ")
            if marker >= 0:
                try:
                    payload = json.loads(line[marker + len("BENCH-METRIC "):])
                    metrics[payload.pop("metric", "metric")] = payload
                except (ValueError, TypeError):
                    pass
            marker = line.find("BENCH-OBS ")
            if marker >= 0:
                try:
                    obs = json.loads(line[marker + len("BENCH-OBS "):])
                except (ValueError, TypeError):
                    pass
    except subprocess.TimeoutExpired:
        ok, tail = False, f"timeout after {timeout}s"
    return {
        "seconds": round(time.perf_counter() - started, 3),
        "ok": ok,
        "summary": tail,
        "metrics": metrics,
        "obs": obs,
    }


def find_baseline(explicit: str, exclude: str = "") -> str:
    """Resolve ``--baseline``: a path, or ``auto`` = the most recently
    committed ``BENCH_*.json`` in the repository root.

    ``exclude`` names the file the current run writes — the run must never
    gate against its own output.  Ordering uses per-file git commit times
    (the CI job checks out full history so they are meaningful) and falls
    back to filesystem mtime.
    """
    if explicit != "auto":
        return explicit
    excluded = os.path.abspath(exclude) if exclude else ""
    candidates = [
        path
        for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
        if os.path.abspath(path) != excluded
    ]
    if not candidates:
        raise SystemExit("--baseline auto: no committed BENCH_*.json found")

    def commit_time(path: str) -> int:
        try:
            out = subprocess.run(
                ["git", "log", "-1", "--format=%ct", "--", path],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            return int(out.stdout.strip() or 0)
        except Exception:
            return 0

    return max(candidates, key=lambda p: (commit_time(p), os.path.getmtime(p)))


def check_baseline(results: dict, baseline_path: str) -> list:
    """Speedup fields that regressed below ``BASELINE_TOLERANCE`` x baseline.

    Only experiments present in *both* trajectories are compared — a new
    experiment has no baseline yet, and a retired one no current value.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)

    def tolerance_for(*key) -> float:
        if key in STRICT_BASELINE_KEYS:
            return STRICT_BASELINE_TOLERANCE
        return BASELINE_TOLERANCE

    regressions = []
    for experiment, row in baseline.get("results", {}).items():
        current = results.get(experiment)
        if not current:
            continue
        for field in BASELINE_FIELDS:
            old = row.get(field)
            new = current.get(field)
            if old is None or new is None or old <= 0:
                continue
            tolerance = tolerance_for(experiment, field)
            if new < old * tolerance:
                regressions.append(
                    f"{experiment}.{field}: {new} < {tolerance} * "
                    f"baseline {old}"
                )
        for metric, field in BASELINE_METRICS.get(experiment, ()):
            old_metric = row.get("metrics", {}).get(metric) or {}
            new_metric = current.get("metrics", {}).get(metric) or {}
            if old_metric.get("cpus") != new_metric.get("cpus"):
                continue
            old = old_metric.get(field)
            new = new_metric.get(field)
            if old is None or new is None or old <= 0:
                continue
            tolerance = tolerance_for(experiment, metric, field)
            if new < old * tolerance:
                regressions.append(
                    f"{experiment}.{metric}.{field}: {new} < "
                    f"{tolerance} * baseline {old}"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-e", "--experiments", default=None,
        help="comma-separated experiment ids (e.g. e09,e13); default: all",
    )
    parser.add_argument(
        "-b", "--backends", default="naive,compiled",
        help="comma-separated backends to run (default: naive,compiled)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"only the engine-bound experiments {', '.join(QUICK)}",
    )
    parser.add_argument(
        "--no-extra-backends", action="store_true",
        help="skip the per-experiment extra backends (e.g. compiled-nodelta for e15)",
    )
    parser.add_argument(
        "--no-overhead-gate", action="store_true",
        help="skip the E15 REPRO_METRICS=off re-run and the "
        f"{METRICS_OVERHEAD_FLOOR}x metrics-overhead gate",
    )
    parser.add_argument(
        "--timeout", type=int, default=900, help="per-run timeout in seconds"
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (REPRO_SEED) so throughput numbers reproduce exactly",
    )
    parser.add_argument(
        "--jobs", type=int, default=8,
        help="service worker threads (REPRO_SERVICE_WORKERS) for E16",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="output JSON path (default: BENCH_<rev>.json in the repo root)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed BENCH_*.json (or 'auto' for the latest committed "
        "one) to gate against: exit non-zero when any speedup field drops "
        f"below {BASELINE_TOLERANCE}x its baseline value",
    )
    args = parser.parse_args(argv)

    experiments = discover()
    if args.quick:
        wanted = [e for e in QUICK if e in experiments]
    elif args.experiments:
        wanted = [e.strip() for e in args.experiments.split(",") if e.strip()]
        unknown = [e for e in wanted if e not in experiments]
        if unknown:
            parser.error(f"unknown experiments {unknown}; have {sorted(experiments)}")
    else:
        wanted = sorted(experiments)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]

    rev = git_revision()
    results: dict = {}
    all_ok = True
    for experiment in wanted:
        row: dict = {}
        exp_backends = list(backends)
        only = ONLY_BACKENDS.get(experiment)
        if only is not None:
            exp_backends = [b for b in exp_backends if b in only] or list(only)
        if not args.no_extra_backends:
            for extra in EXTRA_BACKENDS.get(experiment, ()):
                if extra not in exp_backends:
                    exp_backends.append(extra)
        for backend in exp_backends:
            outcome = run_one(
                experiments[experiment], backend, args.timeout,
                args.seed, args.jobs,
            )
            row[backend] = outcome["seconds"]
            row.setdefault("ok", True)
            row["ok"] = row["ok"] and outcome["ok"]
            if outcome["metrics"]:
                row.setdefault("metrics", {}).update(outcome["metrics"])
            if outcome["obs"]:
                row.setdefault("obs", {})[backend] = outcome["obs"]
            all_ok = all_ok and outcome["ok"]
            print(
                f"{experiment:<5} {backend:<16} {outcome['seconds']:>8.2f}s  "
                f"{'ok' if outcome['ok'] else 'FAIL: ' + outcome['summary']}"
            )
        if (
            experiment == "e15"
            and "compiled" in row
            and row["ok"]
            and not args.no_overhead_gate
        ):
            off = run_one(
                experiments[experiment], "compiled", args.timeout,
                args.seed, args.jobs, extra_env={"REPRO_METRICS": "off"},
            )
            on_seconds = row["compiled"]
            if off["ok"] and on_seconds > 0 and off["seconds"] > 0:
                # throughput ratio on/off == inverse wall-time ratio
                ratio = round(off["seconds"] / on_seconds, 3)
                gate_ok = ratio >= METRICS_OVERHEAD_FLOOR
                row["metrics_overhead"] = {
                    "on_seconds": on_seconds,
                    "off_seconds": off["seconds"],
                    "throughput_ratio": ratio,
                    "ok": gate_ok,
                }
                all_ok = all_ok and gate_ok
                print(
                    f"{experiment:<5} metrics-overhead {ratio:>6.3f}x  "
                    f"{'ok' if gate_ok else 'FAIL: metrics-on throughput '}"
                    f"{'' if gate_ok else f'below {METRICS_OVERHEAD_FLOOR}x metrics-off'}"
                )
            else:
                all_ok = all_ok and off["ok"]
                print(
                    f"{experiment:<5} metrics-overhead        "
                    f"{'skipped' if off['ok'] else 'FAIL: ' + off['summary']}"
                )
        for metric, field, ceiling in METRIC_CEILINGS.get(experiment, ()):
            value = row.get("metrics", {}).get(metric, {}).get(field)
            if value is None:  # no backend that reports it was requested
                continue
            gate_ok = value <= ceiling
            all_ok = all_ok and gate_ok
            print(
                f"{experiment:<5} {field} {value:>7.2f}x  "
                f"{'ok' if gate_ok else f'FAIL: above the {ceiling}x ceiling'}"
            )
        if "naive" in row and "compiled" in row and row["compiled"] > 0:
            row["speedup"] = round(row["naive"] / row["compiled"], 2)
            print(f"{experiment:<5} speedup  {row['speedup']:>7.2f}x")
        if "compiled-nodelta" in row and "compiled" in row and row["compiled"] > 0:
            row["delta_speedup"] = round(row["compiled-nodelta"] / row["compiled"], 2)
            print(f"{experiment:<5} delta-speedup  {row['delta_speedup']:>7.2f}x")
        results[experiment] = row

    src_lines, repro_knobs = source_size()
    print(f"src_lines {src_lines}  repro_knobs {repro_knobs}")
    payload = {
        "rev": rev,
        "python": platform.python_version(),
        "src_lines": src_lines,
        "repro_knobs": repro_knobs,
        # wall-time ratios between backends are hardware-shaped: a baseline
        # is only comparable with a run on as many processors
        "cpus": os.cpu_count(),
        "backends": backends,
        "seed": args.seed,
        "jobs": args.jobs,
        "results": results,
    }
    output = args.output or os.path.join(ROOT, f"BENCH_{rev}.json")
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {output}")
    if args.baseline:
        baseline_path = find_baseline(args.baseline, exclude=output)
        regressions = check_baseline(results, baseline_path)
        if regressions:
            print(f"PERF REGRESSION vs {os.path.basename(baseline_path)}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"baseline check ok vs {os.path.basename(baseline_path)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
