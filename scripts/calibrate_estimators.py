#!/usr/bin/env python3
"""Record the estimator regression baseline on the frozen oracle corpus.

Runs every single-image estimator over the 54-image reference corpus and
writes each method's median absolute relative error to
tests/data/estimator_baseline.csv.  The test suite pins future runs to these
values within +-20% of themselves, so regenerate the file only when an
estimator change is intentional.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semsnr.corpus import iter_corpus, reference_corpus_spec, write_csv
from semsnr.estimators import DEFAULT_CONFIG, SINGLE_IMAGE_METHODS, estimate_all


def main() -> int:
    errors = {m: [] for m in SINGLE_IMAGE_METHODS}
    count = 0
    for image_id, _, _, gt, row in iter_corpus(reference_corpus_spec()):
        results = estimate_all(gt.noisy, DEFAULT_CONFIG, methods=SINGLE_IMAGE_METHODS)
        for method in SINGLE_IMAGE_METHODS:
            est = results[method]
            if est.status != "ok":
                print(f"WARNING: {image_id} {method} -> {est.status}", file=sys.stderr)
                continue
            errors[method].append(abs((est.snr_linear - row["true_snr"]) / row["true_snr"]))
        count += 1
        if count % 9 == 0:
            print(f"  {count} images done")

    out = Path(__file__).resolve().parents[1] / "tests" / "data" / "estimator_baseline.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for method in SINGLE_IMAGE_METHODS:
        median = float(np.median(errors[method]))
        rows.append({"method": method, "n": len(errors[method]), "median_abs_rel_error": median})
        print(f"{method:>8}: median |rel err| = {median:.4f} over {len(errors[method])} images")
    write_csv(out, ("method", "n", "median_abs_rel_error"), rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
