#!/usr/bin/env python3
"""Compare two result files of ``run.py --all --repeat N -o FILE``.

    python3 bench/compare.py A.json B.json      # A = parent commit, B = the change

Set ``i`` of A is paired with set ``i`` of B.  Produce the files in
alternation — A, B, B, A, A, B, ... — so that neither side always runs on
the warmer machine (``bench/README.md`` has the loop).  For every end-to-end
metric of every workload the program prints each side's median and
quartiles, the share of pairs the change won, and one verdict:

* ``improved``   — the change won at least nine tenths of the pairs (ties
  count for neither side), its median is better, and the medians differ by
  more than the distance between the parent's own quartiles; claimed only
  from ten pairs up;
* ``regressed``  — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — neither, and the parent's own quartiles lie further apart
  than the bound, so "no regression" cannot be read off these runs;
* ``unchanged``  — neither, and the parent repeats within the bound.

Exit code 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_A_CLAIM = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Apply the rule above to the paired values of one metric on one workload."""
    pairs = min(len(parent), len(change))
    parent, change = parent[:pairs], change[:pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    spread = p_high - p_low
    gain = sign * (c_mid - p_mid)
    if (
        pairs >= MIN_PAIRS_FOR_A_CLAIM and wins >= 0.9 * pairs
        and gain > 0 and abs(c_mid - p_mid) > spread
    ):
        result = "improved"
    elif p_mid and -gain > bound * abs(p_mid):
        result = "regressed"
    elif p_mid and spread > bound * abs(p_mid):
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "verdict": result, "pairs": pairs, "wins": wins, "losses": losses,
        "parent": (p_low, p_mid, p_high), "change": (c_low, c_mid, c_high),
    }


def load_sets(path: str) -> List[Dict[str, Dict[str, float]]]:
    with open(path) as handle:
        return [one["metrics"] for one in json.load(handle)["sets"]]


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    parent_sets, change_sets = load_sets(argv[0]), load_sets(argv[1])
    pairs = min(len(parent_sets), len(change_sets))
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    print(f"{pairs} pairs ({len(parent_sets)} parent sets, {len(change_sets)} change sets)")
    if pairs < MIN_PAIRS_FOR_A_CLAIM:
        print(f"fewer than {MIN_PAIRS_FOR_A_CLAIM} pairs: no gain can be claimed from these files")
    regressed = False
    for workload in (w["name"] for w in contract["workloads"]):
        print(f"== {workload}")
        for spec in contract["end_to_end"]:
            name = spec["name"]
            parent = [one[workload][name] for one in parent_sets[:pairs]]
            change = [one[workload][name] for one in change_sets[:pairs]]
            found = verdict(parent, change, spec["better"], spec["bound"])
            regressed = regressed or found["verdict"] == "regressed"
            p, c = found["parent"], found["change"]
            print(
                f"   {name:<16} {found['verdict']:<10} "
                f"parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]  "
                f"change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] {spec['unit']}  "
                f"won {found['wins']}/{found['pairs']} lost {found['losses']}  "
                f"bound {spec['bound']:.0%} ({spec['better']} is better)"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
