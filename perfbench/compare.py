#!/usr/bin/env python3
"""Summarize or compare sets of benchmark results written by perfbench/run.py.

    python3 perfbench/compare.py RESULTS                 # one set: medians and spreads
    python3 perfbench/compare.py PARENT --vs CHANGE      # A/B: parent commit vs change

Each argument is a result file or a directory of them (``*.json``; traced runs
are skipped).  Bounds and directions come from ``BENCHMARK.json``.

The A/B verdict per workload and end-to-end metric follows the measuring
rules the benchmark was built for:

* runs pair up in start order (parent run i with change run i); a pair's
  winner is the side better by the metric's direction, ties count for
  neither, and the pairs should alternate which side ran first;
* ``gain``: the change wins at least 9 of 10 pairs (of at least ten) and the
  medians differ by more than the parent's interquartile spread; a gain is
  void when more operations failed than at the parent;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's spread (interquartile range over median) is
  wider than the bound, unless every change run beats every parent run;
* otherwise ``same``.

Figures that the seed fixes (``rel_err_median``, ``psnr_db_mean`` and the
failed operations per pass) are also compared seed by seed; any difference is
reported, since equal code must repeat them exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEED_FIXED = ("rel_err_median", "psnr_db_mean", "failed_per_pass")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(paths) -> list[dict]:
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    records = []
    for f in files:
        record = json.loads(f.read_text(encoding="ascii"))
        if "manifest" in record and record["manifest"].get("trace") == 0:
            records.append(record)
    return sorted(records, key=lambda r: r["manifest"]["started_utc"])


def seed_fixed(record) -> dict:
    """Figures a seed fixes: equal code must repeat them exactly."""
    passes = max(len(record["passes"]), 1)
    return {
        "rel_err_median": record["rel_err_median"],
        "psnr_db_mean": record["result"]["metrics"]["psnr_db_mean"]["value"],
        "failed_per_pass": record["failed_frac"]["failed"] / passes,
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def by_workload(records):
    out: dict[str, list] = {}
    for r in records:
        out.setdefault(r["manifest"]["workload"], []).append(r)
    return out


def metric_values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if r["result"]["metrics"].get(name, {}).get("value") is not None]


def summarize(records, metrics) -> int:
    """Median, quartiles and spread per workload and metric for one set of runs."""
    worst = 0.0
    for workload, runs in by_workload(records).items():
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds "
              f"{sorted(r['manifest']['seed'] for r in runs)}, {failed} failed checks")
        for m in metrics:
            values = metric_values(runs, m["name"])
            if not values:
                print(f"  {m['name']:<16} missing")
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"  {m['name']:<16} median {med:.6g} {m['unit']}  [q1 {q1:.6g}, q3 {q3:.6g}]"
                  f"  spread {s:.4f} = {s / m['bound']:.2f} x bound {m['bound']}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


def _better(a, b, direction):
    """+1 if a is better than b, -1 if worse, 0 if equal."""
    if a == b:
        return 0
    return 1 if (a > b) == (direction == "higher") else -1


def verdict(parent, change, metric, parent_failed, change_failed) -> tuple[str, str]:
    direction, bound = metric["better"], metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, direction) > 0)
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    q1, _, q3 = quartiles(parent)
    worse_by = -_better(c_med, p_med, direction) * abs(c_med - p_med) / abs(p_med)
    detail = f"wins {wins}/{len(pairs)}, change vs parent {(c_med - p_med) / p_med:+.2%}"
    all_better = all(_better(c, p, direction) > 0 for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved", detail + f", parent spread {spread(parent):.3f} > bound {bound}"
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and _better(c_med, p_med, direction) > 0 and abs(c_med - p_med) > q3 - q1):
        if change_failed > parent_failed:
            return "gain void", detail + f", failures {parent_failed} -> {change_failed}"
        return "gain", detail
    if worse_by > bound:
        return "regression", detail + f", worse by {worse_by:.2%} > bound {bound}"
    if all_better:
        return "better", detail + " (every change run beats every parent run)"
    note = "" if len(pairs) >= MIN_PAIRS else f" (only {len(pairs)} pairs)"
    return "same", detail + note


def compare(parent_records, change_records, metrics) -> int:
    regressions = 0
    parents, changes = by_workload(parent_records), by_workload(change_records)
    for workload in sorted(set(parents) | set(changes)):
        p_runs, c_runs = parents.get(workload, []), changes.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload}: runs on one side only ({len(p_runs)} parent, {len(c_runs)} change)")
            continue
        firsts = ["P" if p["manifest"]["started_utc"] < c["manifest"]["started_utc"] else "C"
                  for p, c in zip(p_runs, c_runs)]
        alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
        p_failed = sum(seed_fixed(r)["failed_per_pass"] for r in p_runs)
        c_failed = sum(seed_fixed(r)["failed_per_pass"] for r in c_runs)
        print(f"{workload}: {min(len(p_runs), len(c_runs))} pairs, first-run order "
              f"{''.join(firsts)} ({'alternating' if alternating else 'NOT alternating'}), "
              f"failed operations per pass, summed over runs {p_failed:g} -> {c_failed:g}")
        for m in metrics:
            pv, cv = metric_values(p_runs, m["name"]), metric_values(c_runs, m["name"])
            if not pv or not cv:
                print(f"  {m['name']:<16} missing")
                continue
            name, detail = verdict(pv, cv, m, p_failed, c_failed)
            regressions += name == "regression"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"  {m['name']:<16} {name:<11} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}; {detail}")
        p_seed = {r["manifest"]["seed"]: seed_fixed(r) for r in p_runs}
        c_seed = {r["manifest"]["seed"]: seed_fixed(r) for r in c_runs}
        common = sorted(set(p_seed) & set(c_seed))
        for name in SEED_FIXED:
            moved = [s for s in common if p_seed[s][name] != c_seed[s][name]]
            if moved:
                print(f"  {name} differs on {len(moved)} of {len(common)} shared seeds: {moved}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", metavar="RESULTS",
                        help="the runs to summarize, or the parent's runs with --vs")
    parser.add_argument("--vs", nargs="+", metavar="CHANGE", help="the change's results")
    parser.add_argument("--benchmark", default=str(BENCH_DIR.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    metrics = json.loads(Path(args.benchmark).read_text(encoding="ascii"))["end_to_end"]
    parent = load_results(args.sets)
    if not parent:
        print("no untraced results found", file=sys.stderr)
        return 2
    if not args.vs:
        return summarize(parent, metrics)
    return compare(parent, load_results(args.vs), metrics)


if __name__ == "__main__":
    sys.exit(main())
