#!/usr/bin/env python3
"""Run one semsnr benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 10 --trace 0

Workloads: generate, estimate, denoise, sweep (see perfbench/README.md).
With ``--trace 0`` the run sets the workload up several times, repeats its
timed pass for at least ``--seconds`` seconds and reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced run
instead.  Every pass's outputs are checked.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with its run manifest, is also written under ``perfbench/results/``.

Exit codes: 0 all checks passed, 1 a correctness check failed, 2 the
checkout lacks the package or its pinned data.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
# Set-up repeats: at least 3 and until 1 s has been spent, so that a set-up
# of a few milliseconds is still a median of many.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("generate", "estimate", "denoise", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(workload, seconds):
    """Repeated set-ups from an empty directory, then timed passes until ``seconds`` elapse."""
    setup_times = []
    while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS):
        workload.clear()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    passes, checks = [], []
    while not passes or sum(dt for _, dt in passes) < seconds:
        t0 = time.perf_counter()
        units = workload.run_pass(len(passes))
        passes.append((units, time.perf_counter() - t0))
        checks.append(workload.check(len(passes) - 1))
    return setup_times, passes, checks


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "semsnr" / "__init__.py").is_file():
        print(f"no semsnr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import semsnr
    from semsnr.estimators import ALL_METHODS
    from tracing import traced_run
    from workloads import (DENOISE_SPECS, ESTIMATOR_CONFIG, JOBS, WORKLOADS, SetupError,
                           load_pins)

    started = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{started}-{os.getpid()}"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    work = RESULTS_DIR / f"work-{run_id}"
    workload = WORKLOADS[args.workload](ROOT, args.seed, work)
    try:
        load_pins(ROOT)  # every workload needs a complete checkout
        workload.clear()
        if args.trace:
            metrics, checks, notes = traced_run(
                workload, ESTIMATOR_CONFIG, DENOISE_SPECS, JOBS,
                RESULTS_DIR / f"{run_id}.spans.jsonl")
            setup_times, passes = [], []
        else:
            setup_times, passes, checks = _measure(workload, args.seconds)
    except SetupError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    status_failed = sum(c.status_failed for c in checks)
    first = checks[0]
    rel_err = statistics.median(first.rel_errors) if first.rel_errors else None
    if not args.trace:
        rates = [units / dt for units, dt in passes]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "images_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "psnr_db_mean": (statistics.fmean(first.psnrs) if first.psnrs else None, "dB"),
        }
        notes = [f"{len(passes)} timed passes of {passes[0][0]} {workload.unit}s "
                 f"in {sum(dt for _, dt in passes):.2f} s; {len(setup_times)} set-ups of "
                 f"{min(setup_times):.4f} to {max(setup_times):.4f} s"]
    correct = (failed == 0 and rel_err is not None
               and all(v is not None for v, _ in metrics.values()))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    manifest = {
        **workload.manifest(),
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_repeats": len(setup_times),
        "jobs": JOBS,
        "nproc": os.cpu_count(),
        "methods": list(ALL_METHODS),
        "estimator_config": asdict(ESTIMATOR_CONFIG),
        "filter_specs": list(DENOISE_SPECS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "semsnr": semsnr.__version__,
        "platform": platform.platform(),
        "started_utc": started,
    }
    record = {
        "manifest": manifest,
        "result": result,
        "passes": [{"units": u, "seconds": dt} for u, dt in passes],
        "setup_s_all": setup_times,
        "rel_err_median": rel_err,
        "failed_frac": {"failed": failed + status_failed, "attempted": attempted,
                        "status_failed": status_failed, "gate_failed": failed},
        "gate_notes": [n for c in checks for n in c.notes],
        "notes": notes,
    }
    out_path = RESULTS_DIR / f"{run_id}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{workload.inputs()}, jobs {JOBS}, nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>12} {unit}")
    shown = "n/a" if rel_err is None else f"{rel_err:.6g}"
    print(f"  {'rel_err_median':<44} {shown:>12} ratio  (fixed by the seed)")
    frac = (failed + status_failed) / attempted if attempted else 0.0
    print(f"  {'failed_frac':<44} {frac:>12.6g} ratio  ({failed + status_failed} of {attempted}: "
          f"{status_failed} estimator statuses, {failed} failed checks)")
    for note in notes + record["gate_notes"]:
        print(f"  {note}")
    print(f"  result and manifest: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
