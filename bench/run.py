#!/usr/bin/env python3
"""The repository benchmark: four workloads, one command.

    python3 bench/run.py --workload serve-write --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 0            # every workload, both runs, ladder
    python3 bench/run.py --all --repeat 10 -o A.json   # sets for compare.py
    python3 bench/run.py --all --smoke             # toy sizes, a wiring check (about 25 s)

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is the separate traced run that yields the per-layer metrics.
Every metric is printed by name with its unit, every output is checked, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The exit code is 0 only if nothing failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOCKET_WORKLOADS = ("serve-write", "serve-read", "serve-mixed-large")


def load_contract() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def revision() -> str:
    """The commit under test, when the checkout is a git repository."""
    try:
        found = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def run_one(
    workload: str, seed: int, seconds: float, trace: bool, ladder: bool, smoke: bool
) -> Dict[str, object]:
    """One run of one workload: untraced (end to end) or traced (per layer)."""
    if workload in SOCKET_WORKLOADS:
        if trace:
            import traced

            return traced.run_serve(workload, seed, smoke=smoke)
        import serve_bench

        return serve_bench.run(workload, seed, seconds, ladder=ladder, smoke=smoke)
    if trace:
        import traced

        return traced.run_engine(seed, smoke=smoke)
    import engine_bench

    return engine_bench.run(seed, smoke=smoke, scale=seconds / 20.0)


def describe(workload: str, trace: bool, result: Dict[str, object], specs) -> None:
    """Print one run: every metric by name with its unit, then the details."""
    kind = "traced (per layer)" if trace else "untraced (end to end)"
    print(f"== {workload} — {kind}")
    for spec in specs:
        value = result["metrics"].get(spec["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"   {spec['name']:<42} {shown:>14} {spec['unit']}")
    detail = result["detail"]
    raw = detail.get("raw", {})
    for name, seen in raw.get("floor", {}).items():
        print(
            f"   floor, {name} class, raw: n={seen['n']} p50={seen['p50_ms']:.3f} "
            f"p95={seen['tail_ms']:.3f} p99={seen['p99_ms']:.3f} ms"
        )
    if raw:
        print(f"   server env {detail['server_env']}, {detail['connections']} connections")
        print(
            f"   raw: setup {raw['setup_s']} s, recovery {raw['recovery_s']} s, capacity "
            f"{raw['capacity_ops_s']:.1f} ops/s; speed factors {raw['speed_factor']}"
        )
    for step in detail.get("ladder", ()):
        classes = ", ".join(
            f"{name} n={step[name]['n']} p50={step[name]['p50_ms']:.2f} "
            f"p95={step[name]['tail_ms']:.2f} p99={step[name]['p99_ms']:.2f}"
            for name in ("light", "heavy") if name in step
        )
        print(
            f"   ladder {step['rate']:>5}/s{'*' if step['reference'] else ' '} "
            f"{step['verdict']:<17} sent {step['sent']}, failed {step['failed']}, "
            f"generator late p99 {step['late_p99_ms']:.2f} ms; raw ms: {classes}"
        )
    if "max_rate_ok" in detail:
        print(f"   max_rate_ok {detail['max_rate_ok']} ops/s (* = reference step)")
    if "scale_ratio" in detail:
        print(
            f"   scale_ratio {detail['scale_ratio']:.2f} "
            f"(run-time update p50 at 19.2k rows / at 2.4k rows)"
        )
        for size in ("small", "large"):
            streams = detail[size]
            print(
                f"   {size}, raw ms: cold_check {streams['cold_check_ms']:.2f}; "
                + "; ".join(
                    f"{label} p50={streams[key]['p50_ms']:.2f} p95={streams[key]['tail_ms']:.2f}"
                    for label, key in (
                        ("update", "runtime"), ("wpc_update", "static-precondition"),
                        ("same stream run-time", "runtime-check"),
                    )
                )
            )
    for row in detail.get("self_time", ())[:8]:
        print(
            f"   self time {row['span']:<32} {row['self_ms']:>10.1f} ms "
            f"{row['share']:>6.1%}  ({row['calls']} calls)"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"   checked {attempted} outputs, {failed} failed (fail_rate {failed / attempted:.4f})")
    for why in result["failures"]:
        print(f"   FAILED: {why}")


def final_line(results: List[Dict[str, object]], metrics: Dict[str, Dict]) -> bool:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all(
        isinstance(entry["value"], (int, float)) for entry in metrics.values()
    )
    correct = failed == 0 and complete and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": metrics,
    }))
    return correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced with the ladder, then traced")
    parser.add_argument("--ladder", action="store_true",
                        help="also run the rate ladder (implied by --all)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: run that many complete sets")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, about 25 s")
    parser.add_argument("--allow-env", action="store_true",
                        help="run even though REPRO_* variables are set")
    parser.add_argument("-o", "--output",
                        help="with --all: append each set to this file (for compare.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: {ROOT / 'src' / 'repro'} is missing — nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from server import OUT, stray_env

    stray = stray_env()
    if stray and not args.allow_env:
        print(f"run.py: refusing to run with {sorted(stray)} set (pass --allow-env "
              "to measure that configuration on purpose)", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if not args.all and args.workload not in names:
        parser.error(f"--workload must be one of {names} (or pass --all)")
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    if args.smoke:
        seconds = min(seconds, 2.0)

    print(f"rev {revision()}  python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"seed {args.seed}  seconds {seconds:g}  stray env {stray or 'none'}")
    OUT.mkdir(exist_ok=True)

    if not args.all:
        trace = bool(args.trace)
        specs = contract["per_layer" if trace else "end_to_end"]
        result = run_one(args.workload, args.seed, seconds, trace, args.ladder, args.smoke)
        describe(args.workload, trace, result, specs)
        metrics = {
            spec["name"]: {"value": result["metrics"].get(spec["name"]), "unit": spec["unit"]}
            for spec in specs
        }
        return 0 if final_line([result], metrics) else 1

    correct = True
    for repeat in range(args.repeat):
        began = time.time()
        results, flat, one_set = [], {}, {}
        for workload in names:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                result = run_one(workload, args.seed, seconds, trace, True, args.smoke)
                describe(workload, trace, result, contract[key])
                results.append(result)
                one_set.setdefault(workload, {}).update(result["metrics"])
                if not trace:
                    one_set[workload]["max_rate_ok"] = result["detail"].get("max_rate_ok")
                for spec in contract[key]:
                    flat[f"{workload}/{spec['name']}"] = {
                        "value": result["metrics"].get(spec["name"]), "unit": spec["unit"],
                    }
        record = {
            "rev": revision(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "seconds": seconds,
            "stray_env": stray, "began": began, "metrics": one_set,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        target = Path(args.output) if args.output else OUT / f"result-seed{args.seed}.json"
        sets = []
        if args.output and target.is_file():
            sets = json.loads(target.read_text())["sets"]
        target.write_text(json.dumps({"sets": sets + [record]}, indent=1))
        print(f"set {repeat + 1}/{args.repeat} written to {target}")
        correct = final_line(results, flat) and correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
