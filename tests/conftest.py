import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from semsnr.corpus import (
    acquisition_recipe,
    corpus_image,
    read_csv,
    reference_corpus_spec,
    scene_basis,
    second_seed,
)
from semsnr.estimators import DEFAULT_CONFIG, estimate_all, smart_region_oracle
from semsnr.noise import simulate
from semsnr.parallel import map_on_cores

DATA_DIR = Path(__file__).parent / "data"

# CPython 3.11 and later hand a call's arguments over to the callee; 3.10
# keeps them on the caller's stack, so there a recipe handed to simulate
# outlives its deviation plane and an image holds four planes, not three
HANDS_OVER_ARGUMENTS = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps a call's arguments alive on the caller's stack")


def traced_peak(fn) -> int:
    """Peak traced bytes of a second ``fn()``; the first fills lazily built state."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

# the estimator configuration used for every benchmark/regression run: the
# package default, whose line fit has no additive error term
BENCH_CONFIG = DEFAULT_CONFIG

# filter specs that must fail validation: unknown key, out-of-range or
# non-integral int, non-finite float, duplicate key, overflowing default, an
# int too large for a float, a sigma whose 2 sigma**2 underflows to 0
MALFORMED_FILTER_SPECS = (
    "gaussian:sigma=1.5,raduis=2",
    "gaussian:sigma=1,radius=-1",
    "ar_wiener:ar_order=2.7,window=7",
    "gaussian:sigma=inf",
    "wiener_local:window=7,noise_var=nan",
    "median:window=5.0",
    "gaussian:sigma=1.5,radius=2.5",
    "gaussian:sigma=1,sigma=2",
    "gaussian:sigma=1e308",
    "wiener_global:noise_var=1" + "0" * 400,
    "bilateral:sigma_s=1e-200,sigma_r=1",
    "gaussian:sigma=1e-200",
    "bilateral:sigma_s=1,sigma_r=1e-200",
)


@pytest.fixture(scope="session")
def oracle_corpus():
    """The frozen 54-image oracle corpus, kept in memory for the session.

    Built on every core by ``map_on_cores``, as ``generate`` builds a corpus:
    the images are the same for any number of threads.  Each item keeps only
    its ground truth and truth row, not its basis and dose planes.
    """
    spec = reference_corpus_spec()
    return [
        {"image_id": row["image_id"], "gt": gt, "truth": row}
        for gt, row in map_on_cores(lambda index: corpus_image(spec, index)[3:],
                                    range(spec.image_count()), None)
    ]


@pytest.fixture(scope="session")
def corpus_estimates(oracle_corpus):
    """estimate_all over the frozen corpus with the benchmark configuration."""
    out = []
    for entry in oracle_corpus:
        out.append(
            {
                "image_id": entry["image_id"],
                "truth": entry["truth"],
                "results": estimate_all(entry["gt"].noisy, BENCH_CONFIG),
            }
        )
    return out


@pytest.fixture(scope="session")
def paired_estimates(oracle_corpus):
    """The two-image methods on each frozen image and its second acquisition.

    The second acquisition is the image's recipe under ``second_seed``, as
    ``estimate --pairs`` regenerates it.  Each item keeps the two estimates,
    paired smart's region oracle on the stored clean plane, and whether the
    second acquisition's clean plane equals that one.
    """
    spec = reference_corpus_spec()

    def pair(index):
        entry = oracle_corpus[index]
        gt, truth = entry["gt"], entry["truth"]
        recipe, _, _ = acquisition_recipe(spec, scene_basis(spec, index), truth["seed"],
                                          truth["snr_target"])
        second = simulate(replace(recipe, seed=second_seed(recipe.seed)))
        results = estimate_all(gt.noisy, BENCH_CONFIG, second=second.noisy,
                               methods=("frank_alali", "smart"))
        return {"image_id": entry["image_id"], "truth": truth, "results": results,
                "region_oracle": smart_region_oracle(gt.noisy, gt.clean,
                                                     results["smart"].diagnostics["roi_size"]),
                "same_clean": bool((second.clean.data == gt.clean.data).all())}

    return map_on_cores(pair, range(len(oracle_corpus)), None)


@pytest.fixture(scope="session")
def estimator_baseline():
    """Median |relative error| pins recorded at the first calibrated run."""
    path = DATA_DIR / "estimator_baseline.csv"
    if not path.exists():
        pytest.skip("estimator_baseline.csv missing; run scripts/calibrate_estimators.py")
    return {row["method"]: float(row["median_abs_rel_error"]) for row in read_csv(path)}


def rel_error(estimate: float, oracle: float) -> float:
    assert oracle > 0 and math.isfinite(oracle)
    return (estimate - oracle) / oracle


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))
