#!/usr/bin/env python3
"""Record the estimator regression baseline on the frozen oracle corpus.

Runs every estimator over the 54-image reference corpus and writes each
method's median absolute relative error to tests/data/estimator_baseline.csv.
The two-image methods run on each image and its second acquisition
(``corpus.second_seed`` of the image's noise seed, as ``estimate --pairs``
regenerates it): ``frank_alali`` is scored against the image oracle and
paired ``smart`` against its region's oracle.  The test suite pins future
runs to these values within +-20% of themselves, so regenerate the file only
when an estimator change is intentional.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semsnr.corpus import iter_corpus, reference_corpus_spec, second_seed, write_csv
from semsnr.estimators import ALL_METHODS, DEFAULT_CONFIG, estimate_all, smart_region_oracle
from semsnr.noise import simulate


def main() -> int:
    errors = {m: [] for m in ALL_METHODS}
    count = 0
    for image_id, _, (recipe, _, _), gt, row in iter_corpus(reference_corpus_spec()):
        second = simulate(replace(recipe, seed=second_seed(recipe.seed)))
        results = estimate_all(gt.noisy, DEFAULT_CONFIG, second=second.noisy)
        for method in ALL_METHODS:
            est = results[method]
            if est.status != "ok":
                print(f"WARNING: {image_id} {method} -> {est.status}", file=sys.stderr)
                continue
            oracle = row["true_snr"]
            if method == "smart":
                oracle = smart_region_oracle(gt.noisy, gt.clean, est.diagnostics["roi_size"])
            errors[method].append(abs((est.snr_linear - oracle) / oracle))
        count += 1
        if count % 9 == 0:
            print(f"  {count} images done")

    out = Path(__file__).resolve().parents[1] / "tests" / "data" / "estimator_baseline.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for method in ALL_METHODS:
        median = float(np.median(errors[method]))
        rows.append({"method": method, "n": len(errors[method]), "median_abs_rel_error": median})
        print(f"{method:>12}: median |rel err| = {median:.4f} over {len(errors[method])} images")
    write_csv(out, ("method", "n", "median_abs_rel_error"), rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
