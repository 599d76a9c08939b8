#!/usr/bin/env python3
"""Generate the reference corpus on disk, run every estimator, and summarize.

Usage: python scripts/run_benchmark.py [out_dir]

Writes the corpus under <out_dir>/corpus and results under <out_dir>/results,
then prints the per-method summary table.  Everything is deterministic.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semsnr.bench import print_summary, run_estimation
from semsnr.corpus import generate_corpus, reference_corpus_spec
from semsnr.estimators import ALL_METHODS, DEFAULT_CONFIG


def main() -> int:
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("benchmark_out")
    corpus_dir = out_root / "corpus"
    results_dir = out_root / "results"

    print(f"generating the reference corpus in {corpus_dir} ...")
    rows = generate_corpus(reference_corpus_spec(), corpus_dir)
    print(f"  {len(rows)} image pairs written")

    print("running the estimator suite ...")
    _, summary = run_estimation(corpus_dir, ALL_METHODS, DEFAULT_CONFIG,
                                out_dir=results_dir, jobs=2)
    print_summary(summary)
    print(f"results in {results_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
