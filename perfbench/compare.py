"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

For every workload and end-to-end metric in BENCHMARK.json this prints
each side's quartiles, how many alternating pairs the change won, and a
verdict:

* ``better``: the change wins at least 9 of every 10 pairs and the
  medians differ by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: either side's spread (interquartile range over median)
  exceeds the bound, unless every change run beats every parent run;
* ``within bound`` otherwise.

Pairs are taken in file order, so record the runs alternating parent and
change.  Traced records are ignored.  Records whose Python version, CPU
count or CPU model differ, or whose seeds differ between the sides, are
flagged before the table.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
ENV_KEYS = ("python", "nproc", "cpu_model")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [r for r in map(json.loads, filter(str.strip, handle)) if r["trace"] == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    """``(verdict, wins, pairs)`` under the rules in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better", wins, len(pairs)
    if pm and sign * (pm - cm) / abs(pm) > bound:
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def environment_notes(parent: list[dict], change: list[dict]) -> list[str]:
    notes = []
    envs = {tuple(r["env"].get(k) for k in ENV_KEYS) for r in parent + change}
    if len(envs) > 1:
        notes.append(f"environment mismatch ({', '.join(ENV_KEYS)}): {sorted(map(str, envs))}")
    for label, records in (("parent", parent), ("change", change)):
        commits = {r["env"].get("commit") for r in records}
        if len(commits) > 1:
            notes.append(f"{label} mixes commits: {sorted(map(str, commits))}")
        loads = [x for r in records for x in r["env"].get("loadavg_1m", [])]
        nproc = records[0]["env"].get("nproc") or 1
        if loads and max(loads) > nproc:
            notes.append(f"{label} ran under load: 1-minute load average up to "
                         f"{max(loads):.2f} on {nproc} CPUs")
    workloads = {r["workload"] for r in parent} | {r["workload"] for r in change}
    for name in sorted(workloads):
        seeds_p = [r["seed"] for r in parent if r["workload"] == name]
        seeds_c = [r["seed"] for r in change if r["workload"] == name]
        if sorted(seeds_p) != sorted(seeds_c):
            notes.append(f"{name}: seeds differ (parent {seeds_p}, change {seeds_c})")
    return notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(args.parent), load(args.change)
    for note in environment_notes(parent, change):
        print(f"NOTE {note}")
    print(f"{'workload':14} {'metric':16} {'parent q1/median/q3':>34} "
          f"{'change q1/median/q3':>34} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["result"]["metrics"][name]["value"] for r in p_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            result, wins, pairs = verdict(p, c, metric["better"], metric["bound"])
            pq = "/".join(f"{x:.4g}" for x in quartiles(p))
            cq = "/".join(f"{x:.4g}" for x in quartiles(c))
            print(f"{workload:14} {name:16} {pq:>34} {cq:>34} {wins:>3}/{pairs:<2}  {result}")
        failed = [r["result"]["failed"] for r in c_runs]
        if any(failed) or not all(r["result"]["correct"] for r in c_runs):
            print(f"{workload:14} change runs failed the correctness gate: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
