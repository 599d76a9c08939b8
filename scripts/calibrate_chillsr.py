#!/usr/bin/env python3
"""Fit the optional quadratic correction of the spline estimator offline.

The raw spline estimate is mapped through corrected = a*raw^2 + b*raw + c,
with (a, b, c) fitted against the oracle SNR of the reference corpus.  The
coefficients are written as a small CSV; pass them to EstimatorConfig via
chillsr_correction to apply.  The correction is never applied silently: the
in-package default stays the identity (0, 1, 0).

Usage: python scripts/calibrate_chillsr.py [out_csv]
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semsnr.corpus import iter_corpus, reference_corpus_spec, write_csv
from semsnr.estimators import DEFAULT_CONFIG, estimate_chillsrsnr, fit_quadratic_correction


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("chillsr_correction.csv")
    raw, actual = [], []
    for _, _, _, gt, row in iter_corpus(reference_corpus_spec()):
        est = estimate_chillsrsnr(gt.noisy, DEFAULT_CONFIG)
        raw.append(est.snr_linear)
        actual.append(row["true_snr"])
    a, b, c = fit_quadratic_correction(np.array(raw), np.array(actual))

    before = np.median(np.abs(np.array(raw) / np.array(actual) - 1.0))
    corrected = a * np.array(raw) ** 2 + b * np.array(raw) + c
    after = np.median(np.abs(corrected / np.array(actual) - 1.0))
    print(f"coefficients: a={a!r} b={b!r} c={c!r}")
    print(f"median |rel err| raw {before:.4f} -> corrected {after:.4f} (in-sample)")

    write_csv(out, ("a", "b", "c"), [{"a": a, "b": b, "c": c}])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
