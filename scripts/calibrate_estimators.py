#!/usr/bin/env python3
"""Record the estimator regression baseline on the frozen oracle corpus.

Writes the 54-image reference corpus to a temporary directory and scores it
with the shipped ``estimate --pairs`` path (``bench.run_estimation`` with
every method, ``pairs=True``), then writes each method's ok count and median
absolute relative error to tests/data/estimator_baseline.csv.  The test suite
pins future runs to these values within +-20% of themselves, so regenerate
the file only when an estimator change is intentional.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semsnr.bench import print_summary, run_estimation
from semsnr.corpus import generate_corpus, reference_corpus_spec, write_csv
from semsnr.estimators import ALL_METHODS, DEFAULT_CONFIG


def main() -> int:
    with tempfile.TemporaryDirectory() as corpus:
        generate_corpus(reference_corpus_spec(), corpus)
        _, summary = run_estimation(corpus, ALL_METHODS, DEFAULT_CONFIG, pairs=True)
    print_summary(summary)
    by_method = {line["method"]: line for line in summary}
    rows = [{"method": m, "n": by_method[m]["n_ok"],
             "median_abs_rel_error": by_method[m]["median_abs_rel_error"]} for m in ALL_METHODS]
    out = Path(__file__).resolve().parents[1] / "tests" / "data" / "estimator_baseline.csv"
    write_csv(out, ("method", "n", "median_abs_rel_error"), rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
