"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import BENCH_CONFIG, rel_error
from semsnr.cli import main
from semsnr.corpus import CorpusSpec, SceneSpec, acquisition_recipe, scene_basis
from semsnr.correlation import autocorrelation, snr_db, snr_from_peaks
from semsnr.denoise import mse, wiener_global, wiener_local, wiener_transfer
from semsnr.denoise import estimate_noise_variance_ar
from semsnr.estimators import (
    SINGLE_IMAGE_METHODS,
    asnn_correct,
    estimate_acldr,
    estimate_chillsrsnr,
    estimate_fol,
    estimate_frank_alali,
    estimate_lsr,
    estimate_nllsr,
    estimate_nn,
    levinson_durbin,
)
from semsnr.noise import NoiseRecipe, simulate
from semsnr.raster import pgm_bytes, raster_from_array, raster_from_pgm_bytes
from semsnr.yield_snr import snr_detected, snr_from_image

TABLE_ROWS = [
    ("151 nm", 77279.9, 77251.0, 75289.8, 67.86, 18.32),
    ("89 nm", 77177.3, 77149.6, 75331.4, 65.64, 18.17),
    ("60 nm", 77114.6, 77070.3, 75323.0, 39.44, 15.96),
    ("38 nm", 77050.6, 76991.0, 75227.2, 29.59, 14.71),
    ("25 nm", 76591.0, 76538.5, 75990.3, 10.44, 10.18),
]


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_published_acf_rows():
    start = time.perf_counter()
    for label, r0, rnf, mu2, snr_printed, db_printed in TABLE_ROWS:
        snr = snr_from_peaks(r0, rnf, math.sqrt(mu2))
        assert abs(snr - snr_printed) <= 0.01, label
        assert abs(snr_db(snr) - db_printed) <= 0.01, label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"five published ACF rows reproduced to +-0.01 (SNR and dB) in {elapsed:.3f}s")


def test_criterion_2_dual_path_consistency():
    start = time.perf_counter()
    image_side = [
        (68.0, 12.1, 2.35, 24),
        (45.0, 12.3, 1.72, 19),
        (41.0, 11.8, 1.35, 22),
    ]
    for i_mean, i_dc, sigma, expected in image_side:
        assert round(snr_from_image(i_mean, i_dc, sigma)) == expected
    for yield_side, expected in ((40.0, 19), (42.0, 20), (40.0, 19)):
        assert round(snr_detected(yield_side, 0.23)) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"image-side rows -> 24/19/22 and sqrt(0.23) x yield rows -> 19/20/19 in {elapsed:.3f}s")


def test_criterion_3_affine_correction_constants():
    assert asnn_correct(10.0) == 0.99744 * 10.0 - 0.00645
    assert asnn_correct(10.0) == pytest.approx(9.9679, abs=6e-5)
    assert asnn_correct(1.0) == pytest.approx(0.99099, abs=1e-9)
    _report(3, "affine correction applies 0.99744 x - 0.00645 exactly; 10 -> 9.9679")


def test_criterion_4_shot_noise_law():
    start = time.perf_counter()
    for dose in (25.0, 100.0, 400.0):
        recipe = NoiseRecipe(dose_map=np.full((256, 256), dose),
                             emission_model="poisson-pe", seed=1234, bit_depth=16)
        x = simulate(recipe).noisy.data
        measured = x.mean() / x.std()
        assert abs(measured - math.sqrt(dose)) <= 0.05 * math.sqrt(dose), dose
    se = NoiseRecipe(dose_map=np.full((256, 256), 100.0), emission_model="poisson-se",
                     se_yield=0.16, seed=77, bit_depth=16)
    x = simulate(se).noisy.data
    predicted = math.sqrt(100.0 / (1.0 + 1.0 / 0.16))
    assert abs(x.mean() / x.std() - predicted) <= 0.05 * predicted
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"sqrt(dose) law at 25/100/400 and compound secondary yield within 5% in {elapsed:.1f}s")


def test_criterion_5_two_image_recovery():
    start = time.perf_counter()
    spec = CorpusSpec(
        scene=SceneSpec(kind="spectral", width=256, height=256, corr_length=8.0,
                        spectral_nugget=0.004),
        model="additive-gaussian", snr_targets=(1.0,), base_seed=21,
        dose_min=5000.0, dose_max=30000.0, dc_offset=20000.0,
    )
    for target in (1.0, 5.0, 20.0):
        rels = []
        for s in range(10):
            recipe, _, _ = acquisition_recipe(spec, scene_basis(spec, s), 300 + s, target)
            g1 = simulate(recipe)
            g2 = simulate(replace(recipe, seed=4000 + s))
            est = estimate_frank_alali(g1.noisy, g2.noisy)
            rels.append(rel_error(est.snr_linear, 0.5 * (g1.true_snr + g2.true_snr)))
        assert abs(np.median(rels)) <= 0.10, target
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"two-acquisition recovery at SNR 1/5/20 within 10% (median of 10 seeds) in {elapsed:.1f}s")


def test_criterion_6_single_image_recovery(corpus_estimates, estimator_baseline):
    smooth = [e for e in corpus_estimates if e["truth"]["scene"] == "spectral"]
    assert len(smooth) >= 50
    medians = {}
    for method in SINGLE_IMAGE_METHODS:
        errs = []
        for entry in corpus_estimates:
            est = entry["results"][method]
            assert est.status == "ok", (entry["image_id"], method, est.status)
            assert math.isfinite(est.snr_linear)
            errs.append(abs(rel_error(est.snr_linear, entry["truth"]["true_snr"])))
        medians[method] = float(np.median(errs))
        pinned = estimator_baseline[method]
        assert abs(medians[method] - pinned) <= 0.20 * pinned, (method, medians[method], pinned)
    lsr_errs = [abs(rel_error(e["results"]["lsr"].snr_linear, e["truth"]["true_snr"]))
                for e in smooth]
    nn_errs = [abs(rel_error(e["results"]["nn"].snr_linear, e["truth"]["true_snr"]))
               for e in smooth]
    assert np.median(lsr_errs) <= np.median(nn_errs)
    summary = " ".join(f"{m}={medians[m]:.3f}" for m in SINGLE_IMAGE_METHODS)
    _report(6, f"all 7 single-image methods finite on {len(corpus_estimates)} images; "
               f"medians within 20% of pins ({summary}); LSR beats NN on the smooth corpus")


def test_criterion_7_levinson_equals_direct_solve():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(2024))
    checked = 0
    while checked < 200:
        order = int(rng.integers(1, 9))
        psd = rng.uniform(0.1, 2.0, size=(order + 2) * 4)
        acf = np.fft.irfft(psd)[: order + 2]
        acf[0] += 1e-6
        res = levinson_durbin(acf, order)
        toeplitz = acf[np.abs(np.subtract.outer(np.arange(order), np.arange(order)))]
        phi = np.linalg.solve(toeplitz, acf[1 : order + 1])
        assert np.allclose(-res.ar_coeffs, phi, atol=1e-9)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, f"order recursion matches the direct Toeplitz solve on 200 sequences in {elapsed:.1f}s")


def test_criterion_8_wiener_properties(oracle_corpus):
    low = [e for e in oracle_corpus if e["truth"]["snr_target"] <= 10.0]
    assert len(low) == 36
    img = low[0]["gt"].noisy
    transfer = wiener_transfer(img, low[0]["gt"].noise_energy)
    assert transfer.min() >= 0.0 and transfer.max() <= 1.0
    identity = wiener_global(img, 0.0)
    assert np.allclose(identity.output.data, img.data, atol=1e-9)

    for entry in low:
        gt = entry["gt"]
        baseline = mse(gt.noisy, gt.clean)
        got_g = wiener_global(gt.noisy, gt.noise_energy).output
        got_l = wiener_local(gt.noisy, 7, gt.noise_energy).output
        assert mse(got_g, gt.clean) < baseline, entry["image_id"]
        assert mse(got_l, gt.clean) < baseline, entry["image_id"]

    spec = CorpusSpec(
        scene=SceneSpec(kind="spectral", width=256, height=256, corr_length=60.0,
                        spectral_nugget=0.004),
        model="additive-gaussian", snr_targets=(2.0,), base_seed=61,
        dose_min=5000.0, dose_max=30000.0, dc_offset=20000.0,
    )
    hits = total = 0
    for s in range(5):
        gt = simulate(acquisition_recipe(spec, scene_basis(spec, s), 70 + s, 2.0)[0])
        estimate = estimate_noise_variance_ar(gt.noisy, 2)
        total += 1
        if abs(estimate - gt.noise_energy) <= 0.15 * gt.noise_energy:
            hits += 1
    assert hits == total
    _report(8, "transfer in [0,1]; zero-noise identity; strict MSE reduction on all 36 "
               "low-SNR images; blind variance within 15% at 256x256")


def test_criterion_9_invariance_suite(oracle_corpus, rng):
    entry = oracle_corpus[5]
    img = entry["gt"].noisy
    for lam in (0.5, 3.0):
        scaled = img.scaled(lam)
        for fn in (estimate_nn, estimate_fol, estimate_lsr, estimate_nllsr,
                   estimate_acldr, estimate_chillsrsnr):
            base = fn(img, BENCH_CONFIG)
            after = fn(scaled, BENCH_CONFIG).snr_linear
            assert after == pytest.approx(base.snr_linear, rel=1e-6), (base.method, lam)

    for _ in range(5):
        arr = rng.uniform(0.0, 400.0, size=(48, 40))
        r = raster_from_array(arr, bit_depth=16)
        curve = autocorrelation(r, max_lag=2)
        assert curve.value(0) - curve.mean**2 == pytest.approx(np.var(r.data), rel=1e-9)

    for depth in (8, 16):
        arr = rng.integers(0, (1 << depth) - 1, size=(23, 31), endpoint=True).astype(float)
        r = raster_from_array(arr, bit_depth=depth)
        blob = pgm_bytes(r)
        assert pgm_bytes(raster_from_pgm_bytes(blob)) == blob
    _report(9, "scale invariance at 0.5x/3x within 1e-6; variance identity at 1e-9; "
               "PGM round-trip byte-exact")


CONFIG_TEXT = """\
[corpus]
scene = spectral
width = 64
height = 64
corr_length = 8
model = additive-gaussian
snr_targets = 2,8
seeds_per_level = 2
base_seed = 11
dose_min = 1000
dose_max = 8000
dc_offset = 2000
bit_depth = 16

[estimate]
epsilon_policy = zero
"""


def _run_pipeline(root, config):
    corpus = root / "corpus"
    results = root / "results"
    sweep = root / "sweep"
    assert main(["generate", "--config", str(config), "--out", str(corpus)]) == 0
    assert main(["estimate", "--corpus", str(corpus), "--out", str(results),
                 "--methods", "all", "--config", str(config)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(sweep),
                 "--parameter", "contrast", "--range", "0.5,1,2", "--seeds", "2",
                 "--methods", "nn,lsr"]) == 0
    return corpus, results, sweep


def _csv_without_runtime(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    drop = header.index("runtime_ms") if "runtime_ms" in header else None
    out = [lines[0], ",".join(h for h in header if h != "runtime_ms")]
    for line in lines[2:]:
        cells = line.split(",")
        if drop is not None:
            cells = cells[:drop] + cells[drop + 1:]
        out.append(",".join(cells))
    return "\n".join(out)


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(CONFIG_TEXT)
    with capsys.disabled():
        pass
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir(), run_b.mkdir()
    corpus_a, results_a, sweep_a = _run_pipeline(run_a, config)
    corpus_b, results_b, sweep_b = _run_pipeline(run_b, config)
    assert (corpus_a / "truth.csv").read_bytes() == (corpus_b / "truth.csv").read_bytes()
    for name, a_dir, b_dir in (
        ("results.csv", results_a, results_b),
        ("summary.csv", results_a, results_b),
        ("sweep.csv", sweep_a, sweep_b),
    ):
        assert _csv_without_runtime(a_dir / name) == _csv_without_runtime(b_dir / name), name
    _report(10, "generate+estimate+sweep twice from one config: identical CSVs "
                "(runtime column excluded)")
