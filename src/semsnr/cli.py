"""Command-line front end.

Subcommands: generate, estimate, sweep, denoise, report.  Exit codes:
0 success, 2 configuration error, 3 data error (including a corrupt corpus
file and an ``--out`` path that cannot be created or written), 4 internal
error.  Every command writes its ``--out`` files into a sibling
``<out>.partial/`` first and moves them into ``<out>`` only on success, so a
failed run leaves neither directory behind.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

from .bench import (
    SUMMARY_FIELDS,
    SWEEP_FIELDS,
    SWEEP_PARAMETERS,
    corpus_spec_from_config,
    estimator_config_from_config,
    load_config,
    parse_methods,
    print_summary,
    run_denoise,
    run_estimation,
    run_sweep,
    summarize_results,
)
from .corpus import generate_corpus, read_csv, write_csv
from .denoise import parse_filter_spec
from .errors import ConfigError, DataError, DomainError, SemSnrError
from .estimators import DEFAULT_CONFIG, SINGLE_IMAGE_METHODS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_SWEEP_HELP = (
    "Synthetic analogs of instrument factor studies: 'dose' scales the mean "
    "electrons per pixel (the beam-current / scan-rate analog; counting SNR "
    "grows like sqrt(dose)); 'dwell' maps dwell seconds to dose through the "
    "beam current; 'contrast' rescales intensities of a fixed acquisition "
    "(autocorrelation-based estimates are scale-invariant, so curves should "
    "be flat)."
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semsnr",
        description="Synthetic SEM-style SNR benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus with oracle truth")
    gen.add_argument("--config", required=True, help="flat key/value config with [corpus]")
    gen.add_argument("--out", required=True, help="corpus output directory")
    gen.add_argument("--jobs", type=int, default=None,
                     help="worker threads (default: every core the process may use)")

    est = sub.add_parser("estimate", help="run SNR estimators over a corpus")
    est.add_argument("--corpus", required=True, help="corpus directory from 'generate'")
    est.add_argument("--out", required=True, help="output directory for results.csv")
    est.add_argument("--methods", default="all", help="comma list or 'all'")
    est.add_argument("--config", default=None, help="optional config with [estimate]")
    est.add_argument("--jobs", type=int, default=None,
                     help="worker threads (default: every core the process may use)")
    est.add_argument("--pairs", action="store_true",
                     help="regenerate each image's second acquisition from its recipe and run "
                          "the two-image methods (frank_alali, smart) on the pair")

    swp = sub.add_parser("sweep", help="sensitivity sweep; " + _SWEEP_HELP)
    swp.add_argument("--config", required=True, help="config with [corpus] (+ optional [estimate])")
    swp.add_argument("--out", required=True, help="output directory for sweep.csv")
    swp.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS,
                     help=_SWEEP_HELP)
    swp.add_argument("--range", required=True,
                     help="comma-separated strictly increasing values, e.g. 25,100,400")
    swp.add_argument("--methods", default="nn,lsr,acldr",
                     help=f"comma list from {','.join(SINGLE_IMAGE_METHODS)}, or 'all' for all of them")
    swp.add_argument("--seeds", type=int, default=3, help="seeds per swept value")

    den = sub.add_parser("denoise", help="filter a corpus and report MSE/PSNR")
    den.add_argument("--corpus", required=True)
    den.add_argument("--out", required=True)
    den.add_argument("--filter", required=True, dest="filter_spec",
                     help="filter spec, e.g. ar_wiener:ar_order=1,window=7")

    rep = sub.add_parser("report", help="summarize an existing results.csv")
    rep.add_argument("--results", required=True, help="results.csv from 'estimate'")
    rep.add_argument("--out", default=None, help="optional output directory for summary.csv")
    return parser


@contextmanager
def _staged_out(out_dir):
    """Yield a fresh ``<out>.partial/`` to write into; move its files into ``out_dir``
    when the block succeeds and remove it when the block or the move raises."""
    out = Path(os.path.abspath(out_dir))
    stage = out.with_name(out.name + ".partial")
    stage.mkdir(parents=True)  # an existing one is not ours to overwrite
    try:
        yield stage
        out.mkdir(exist_ok=True)
        for path in stage.iterdir():
            path.replace(out / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _cmd_generate(args) -> int:
    spec = corpus_spec_from_config(load_config(args.config))
    with _staged_out(args.out) as out:
        rows = generate_corpus(spec, out, jobs=args.jobs)
    print(f"generated {len(rows)} image pair(s) in {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    methods = parse_methods(args.methods)
    est_cfg = DEFAULT_CONFIG
    if args.config:
        est_cfg = estimator_config_from_config(load_config(args.config))
    with _staged_out(args.out) as out:
        _, summary = run_estimation(args.corpus, methods, est_cfg, out_dir=out, jobs=args.jobs,
                                    pairs=args.pairs)
    print_summary(summary)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    methods = parse_methods(args.methods)
    cfg = load_config(args.config)
    spec = corpus_spec_from_config(cfg)
    est_cfg = estimator_config_from_config(cfg)
    try:
        values = [float(v) for v in args.range.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --range value: {exc}") from exc
    rows = run_sweep(args.parameter, values, spec, methods, est_cfg, seeds=args.seeds)
    with _staged_out(args.out) as out:
        write_csv(out / "sweep.csv", SWEEP_FIELDS, rows)
    print(f"wrote {len(rows)} sweep rows to {Path(args.out) / 'sweep.csv'}")
    return EXIT_OK


def _cmd_denoise(args) -> int:
    try:
        spec = parse_filter_spec(args.filter_spec)
    except DomainError as exc:
        raise ConfigError(f"bad --filter value: {exc}") from exc
    with _staged_out(args.out) as out:
        rows = run_denoise(args.corpus, spec, out_dir=out)
    if rows:
        mean = sum(r["mse_vs_clean"] for r in rows) / len(rows)
        print(f"filtered {len(rows)} image(s); mean MSE vs clean = {mean:.4g}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        summary = summarize_results(read_csv(args.results))
    except (KeyError, ValueError) as exc:  # a missing column or a non-numeric rel_error
        raise DataError(f"{args.results}: bad results row: {exc!r}") from exc
    print_summary(summary)
    if args.out:
        with _staged_out(args.out) as out:
            write_csv(out / "summary.csv", SUMMARY_FIELDS, summary)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "denoise": _cmd_denoise,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SemSnrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
