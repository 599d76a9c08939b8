import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCH_CONFIG, rel_error
from semsnr.corpus import corpus_image, reference_corpus_spec
from semsnr.correlation import AcfCurve, LagTable, autocorrelation, lag_table, snr_from_peaks
from semsnr.errors import (
    DegenerateError,
    DomainError,
    LogDomainError,
    NonpositiveCorrelationError,
    NonStationaryError,
)
from semsnr.estimators import (
    ASNN_INTERCEPT,
    ASNN_SLOPE,
    METHODS,
    SINGLE_IMAGE_METHODS,
    EstimatorConfig,
    SnrEstimate,
    acldr_covariance_peak,
    asnn_correct,
    estimate_acldr,
    estimate_all,
    estimate_asnn,
    estimate_chillsrsnr,
    estimate_fol,
    estimate_frank_alali,
    estimate_lsr,
    estimate_nllsr,
    estimate_nn,
    estimate_smart,
    levinson_durbin,
    snr_from_correlation,
)
from semsnr.raster import raster_from_array


def curve_from(values, mean=0.0):
    values = np.asarray(values, dtype=float)
    return AcfCurve(values, mean)


# --- Levinson-Durbin ----------------------------------------------------------


def test_levinson_first_order_example():
    res = levinson_durbin([1.0, 0.5], 1)
    assert res.ar_coeffs.tolist() == [-0.5]
    assert res.reflection.tolist() == [-0.5]
    assert res.errors.tolist() == [1.0, 0.75]


def test_levinson_white_sequence():
    res = levinson_durbin([1.0, 0.0, 0.0], 2)
    assert np.allclose(res.ar_coeffs, 0.0)
    assert np.allclose(res.errors, 1.0)


def test_levinson_nonstationary_error():
    with pytest.raises(NonStationaryError):
        levinson_durbin([1.0, 1.2], 1)
    with pytest.raises(NonStationaryError):
        levinson_durbin([1.0, 1.0, 1.0], 2)  # |R|=1 at a non-final stage
    # marginal |R| = 1 is tolerated on the final stage only
    res = levinson_durbin([1.0, 1.0], 1)
    assert res.reflection.tolist() == [-1.0]
    assert res.errors[-1] == 0.0


def _random_valid_acf(rng, length):
    # a positive power spectrum guarantees a positive-definite sequence
    psd = rng.uniform(0.1, 2.0, size=length * 4)
    acf = np.fft.irfft(psd)[:length]
    acf[0] += 1e-6  # keep strictly positive definite
    return acf


def test_levinson_matches_direct_toeplitz_solve(rng):
    for _ in range(50):
        order = int(rng.integers(1, 9))
        acf = _random_valid_acf(rng, order + 2)
        res = levinson_durbin(acf, order)
        toeplitz = acf[np.abs(np.subtract.outer(np.arange(order), np.arange(order)))]
        phi = np.linalg.solve(toeplitz, acf[1 : order + 1])
        assert np.allclose(-res.ar_coeffs, phi, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), order=st.integers(1, 8))
def test_levinson_toeplitz_property(seed, order):
    rng = np.random.Generator(np.random.Philox(seed))
    acf = _random_valid_acf(rng, order + 2)
    res = levinson_durbin(acf, order)
    toeplitz = acf[np.abs(np.subtract.outer(np.arange(order), np.arange(order)))]
    phi = np.linalg.solve(toeplitz, acf[1 : order + 1])
    assert np.allclose(-res.ar_coeffs, phi, atol=1e-9)
    assert np.all(np.abs(res.reflection) < 1.0)


# --- single-image rules on hand-built lag tables --------------------------------


def table_of(x, y=None, mean=0.0):
    """A lag table of profiles ``x`` and ``y`` (``x`` when omitted)."""
    return LagTable(curve_from(x, mean), curve_from(x if y is None else y, mean))


def rule(method, x, y=None, mean=0.0, cfg=EstimatorConfig()):
    """``METHODS[method].rule`` on :func:`table_of`'s table."""
    return METHODS[method].rule(table_of(x, y, mean), cfg)


def test_nn_and_fol_rules():
    assert rule("nn", [20.0, 10.0], [20.0, 12.0])[0] == 11.0
    assert rule("fol", [20.0, 10.0, 8.0])[0] == 12.0
    assert rule("fol", [20.0, 9.0, 9.0])[0] == 9.0  # flat tail reduces to the nearest offset


def test_lsr_hand_example():
    # exactly linear tail with a noisy peak: alpha=100, beta=-1, noise energy 102-100
    peak, diag = rule("lsr", [102.0, 99.0, 98.0, 97.0, 96.0], mean=5.0)
    assert peak == pytest.approx(100.0, abs=1e-9)
    assert diag["alpha"] == pytest.approx(100.0)
    assert diag["beta"] == pytest.approx(-1.0)
    snr = snr_from_peaks(102.0, peak, 5.0)
    assert snr == pytest.approx((100.0 - 25.0) / 2.0)


def test_lsr_zero_epsilon_noise_free_line_degenerates():
    peak, _ = rule("lsr", [100.0, 99.0, 98.0, 97.0, 96.0], mean=2.0)
    assert peak == pytest.approx(100.0)
    with pytest.raises(DegenerateError):
        snr_from_peaks(100.0, peak, 2.0)


def test_nllsr_recovers_exact_power_law():
    values = [100.0] + [100.0 * k**-0.1 for k in range(1, 6)]
    peak, diag = rule("nllsr", values)
    assert diag["alpha"] == pytest.approx(100.0, rel=1e-6)
    assert diag["beta"] == pytest.approx(-0.1, abs=1e-6)
    assert peak == pytest.approx(100.0, rel=1e-6)


def test_nllsr_flat_tail_reduces_toward_nearest_offset():
    values = [110.0, 100.0, 100.0, 100.0, 100.0, 100.0]
    peak, diag = rule("nllsr", values)
    assert diag["beta"] == pytest.approx(0.0, abs=1e-12)
    assert peak == pytest.approx(100.0)


def test_nllsr_log_domain_guard():
    with pytest.raises(LogDomainError):
        rule("nllsr", [10.0, 5.0, 0.0, -1.0, 2.0, 2.0])


def test_acldr_exact_geometric_tail():
    values = [100.0 * 0.9**k for k in range(4)]
    for order in (1, 2):
        peak, diag = acldr_covariance_peak(table_of(values[: order + 2]), order)
        assert peak == pytest.approx(100.0, rel=1e-12)
    assert "reflection" in diag


def test_acldr_flat_tail_reduces_to_nearest_offset():
    peak, _ = acldr_covariance_peak(table_of([10.0, 5.0, 5.0]), 1)
    assert peak == pytest.approx(5.0)


def test_acldr_steps_its_order_down_until_the_recursion_is_stationary():
    peak, diag = acldr_covariance_peak(table_of([10.0, 8.0, 6.0, 1.0, 9.0]), 3)
    assert list(diag) == ["order", "ar_coeffs", "reflection", "error_power"]
    assert diag["order"] == 2
    assert peak == pytest.approx(32.0 / 3.0, rel=1e-12)
    assert acldr_covariance_peak(table_of([10.0, 8.0, 6.0, 9.0, 1.0]), 3)[1]["order"] == 1
    with pytest.raises(NonStationaryError):
        acldr_covariance_peak(table_of([10.0, 8.0, 9.0, 1.0, 1.0]), 3)


def test_chillsr_quadratic_oracle():
    # analytic curve r(k) = 100 - k^2 sampled at lags 0..3
    peak, _ = rule("chillsr", [100.0 - k * k for k in range(4)])
    assert abs(peak - 100.0) <= 1.0


@pytest.mark.parametrize("lags,tangents,peak", [
    ((10.0, 8.0, 7.0), [-2.5, -4.0 / 3.0], 38.0 / 3.0),  # monotone tail
    ((10.0, 8.0, 9.0), [-3.5, 0.0], 14.0),  # secants change sign: mid = 0
    ((5.0, 5.0, 4.0), [0.0, 0.0], 5.0),  # a flat first secant zeroes both tangents
    ((1.0, 2.0, 6.0), [0.0, 1.6], 2.8),  # end tangent against its secant: clipped to 0
    ((5.0, 6.0, 2.0), [3.0, 0.0], -2.0),  # end tangent over 3a on a sign change: clipped to 3a
    ((10.0, 8.0, 11.0), [-4.5, 0.0], 18.0),  # a sign change with |t| under 3|a| keeps t
], ids=["monotone", "mid_zero", "flat", "end_zero", "end_3a", "end_under_3a"])
def test_chillsr_branches_by_hand(lags, tangents, peak):
    got, diag = rule("chillsr", [0.0, *lags])  # the spline reads no r(0)
    assert got == pytest.approx(peak, rel=1e-12)
    assert diag["tangents"] == pytest.approx(tangents, rel=1e-12)


def test_lag_table_xy_refuses_a_lag_either_profile_lacks(rng):
    table = lag_table(raster_from_array(rng.uniform(0.0, 100.0, size=(32, 32))), 5, 1)
    assert table.xy(1).values.size == 2
    with pytest.raises(DomainError, match="^lag 2 "):
        table.xy(2)
    with pytest.raises(DomainError, match="^lag 5 "):
        estimate_nllsr(table)


SHORT_CONFIG = EstimatorConfig(n_points=3, lag_start=2, nllsr_lag_start=3, acldr_order=3)


@pytest.mark.parametrize("cfg", [BENCH_CONFIG, SHORT_CONFIG], ids=["default", "short"])
@pytest.mark.parametrize("method", SINGLE_IMAGE_METHODS)
def test_every_rule_reads_only_its_declared_lags(oracle_corpus, method, cfg):
    # a lag beyond the declared need is absent from the small table, and reading it raises
    img = oracle_corpus[20]["gt"].noisy
    entry = METHODS[method]
    peak, diag = entry.rule(lag_table(img, *entry.lags(cfg)), cfg)
    assert math.isfinite(peak)
    assert (peak, diag) == entry.rule(lag_table(img, 8, 8), cfg)


def test_every_rule_returns_its_peak_where_the_snr_step_refuses():
    # the clean planes of a nugget-free scene: nllsr's peak reaches r(0) on every one
    spec = reference_corpus_spec()
    spec = replace(spec, scene=replace(spec.scene, width=128, height=128, spectral_nugget=0.0),
                   snr_targets=(1.0, 5.0, 20.0), seeds_per_level=3)
    refused = []
    for index in range(spec.image_count()):
        clean = corpus_image(spec, index)[3].clean
        table = lag_table(clean, 5, 5)
        results = estimate_all(clean, BENCH_CONFIG, methods=SINGLE_IMAGE_METHODS)
        for method, est in results.items():
            peak, _ = METHODS[method].rule(table, BENCH_CONFIG)
            assert math.isfinite(peak), (index, method)
            if est.status == "ok":
                assert est.predicted_nf_peak == peak, (index, method)
            else:
                assert est.status == "degenerate", (index, method, est.status)
                refused.append(method)
    assert refused.count("nllsr") == spec.image_count() == 9


def test_ok_estimates_carry_their_rules_peak(oracle_corpus, corpus_estimates):
    for image, entry in zip(oracle_corpus, corpus_estimates):
        table = lag_table(image["gt"].noisy, 5, 5)
        for method in SINGLE_IMAGE_METHODS:
            est = entry["results"][method]
            if est.status == "ok":
                peak, _ = METHODS[method].rule(table, BENCH_CONFIG)
                assert est.predicted_nf_peak == peak, (entry["image_id"], method)


def test_asnn_correction_below_zero_is_degenerate():
    # r(1) / (r0 - r(1)) = 4.975 / 995.025 ~ 0.005, under asnn's zero crossing at ~0.00647
    curve = curve_from([1000.0, 4.975])
    table = LagTable(curve, curve)
    assert estimate_nn(table).snr_linear == pytest.approx(0.005, rel=1e-4)
    with pytest.raises(DegenerateError, match="^corrected SNR ") as exc:
        estimate_asnn(table)
    assert exc.value.status == "degenerate"


def test_asnn_affine_constants():
    assert asnn_correct(10.0) == pytest.approx(0.99744 * 10.0 - 0.00645, rel=1e-15)
    assert asnn_correct(10.0) == pytest.approx(9.9679, abs=6e-5)
    assert asnn_correct(1.0) == pytest.approx(0.99099, abs=1e-9)
    # the affine map crosses zero at intercept/slope ~ 0.006467
    assert asnn_correct(0.0064) < 0.0


# --- image-level behavior -------------------------------------------------------


def test_constant_image_all_failure_statuses():
    img = raster_from_array(np.full((80, 80), 9.0))
    results = estimate_all(img, BENCH_CONFIG)
    for method, est in results.items():
        assert est.status != "ok", method
        if method in SINGLE_IMAGE_METHODS:
            assert est.status != "not_applicable", method


def test_single_image_marks_two_acquisition_method():
    img = raster_from_array(np.add.outer(np.arange(160.0), np.arange(160.0)))
    results = estimate_all(img, BENCH_CONFIG)
    assert results["frank_alali"].status == results["smart"].status == "not_applicable"
    # perfbench's traced probe calls smart in this form: it must return, not raise
    assert estimate_smart(img, None, BENCH_CONFIG) == SnrEstimate("smart", "not_applicable")


def test_estimate_all_on_oracle_image(oracle_corpus):
    entry = oracle_corpus[30]  # a mid-SNR image
    results = estimate_all(entry["gt"].noisy, BENCH_CONFIG)
    ok = [m for m, est in results.items() if est.status == "ok"]
    assert len(ok) >= 7
    for est in results.values():
        if est.status == "ok":
            assert est.snr_linear > 0
            assert est.snr_db == pytest.approx(10.0 * math.log10(est.snr_linear), abs=1e-9)


def test_image_level_matches_curve_level(oracle_corpus):
    cfg = BENCH_CONFIG
    img = oracle_corpus[20]["gt"].noisy
    curve = autocorrelation(img, max_lag=5)
    curve_y = autocorrelation(img, max_lag=1, axis="y")
    for method, estimate in (("lsr", estimate_lsr), ("fol", estimate_fol), ("nn", estimate_nn)):
        peak, _ = rule(method, curve.values, curve_y.values, curve.mean, cfg)
        assert estimate(img, cfg).snr_linear == snr_from_peaks(curve.value(0), peak, curve.mean)


def test_asnn_is_affine_of_nn(oracle_corpus):
    cfg = BENCH_CONFIG
    values = []
    for entry in oracle_corpus[::11]:
        nn = estimate_nn(entry["gt"].noisy, cfg)
        asnn = estimate_asnn(entry["gt"].noisy, cfg)
        assert asnn.snr_linear == pytest.approx(
            ASNN_SLOPE * nn.snr_linear - ASNN_INTERCEPT, rel=1e-12
        )
        assert list(asnn.diagnostics) == ["snr_base", "slope", "intercept"]
        assert asnn.diagnostics["snr_base"] == nn.snr_linear
        values.append((nn.snr_linear, asnn.snr_linear))
    order_nn = np.argsort([v[0] for v in values])
    order_asnn = np.argsort([v[1] for v in values])
    assert np.array_equal(order_nn, order_asnn)


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_scale_equivariance(oracle_corpus, lam):
    entry = oracle_corpus[5]
    img = entry["gt"].noisy
    scaled = img.scaled(lam)
    for fn in (estimate_nn, estimate_fol, estimate_lsr, estimate_nllsr,
               estimate_acldr, estimate_chillsrsnr):
        base = fn(img, BENCH_CONFIG)
        after = fn(scaled, BENCH_CONFIG)
        assert after.snr_linear == pytest.approx(base.snr_linear, rel=1e-6), base.method


def test_acf_scales_quadratically(oracle_corpus):
    img = oracle_corpus[0]["gt"].noisy
    lam = 3.0
    base = autocorrelation(img, max_lag=3)
    scaled = autocorrelation(img.scaled(lam), max_lag=3)
    assert np.allclose(scaled.values, lam**2 * base.values, rtol=1e-12)


# --- two-acquisition methods ----------------------------------------------------


def test_snr_from_correlation_values():
    assert snr_from_correlation(0.5) == pytest.approx(1.0)
    assert snr_from_correlation(0.9) == pytest.approx(9.0)
    assert math.isinf(snr_from_correlation(1.0))
    with pytest.raises(NonpositiveCorrelationError):
        snr_from_correlation(0.0)


def test_frank_alali_identical_images_infinite(rng):
    arr = rng.uniform(10.0, 200.0, size=(64, 64))
    a = raster_from_array(arr)
    est = estimate_frank_alali(a, a)
    assert est.status == "infinite"
    assert math.isinf(est.snr_linear)


def test_frank_alali_independent_noise_error(rng):
    a = raster_from_array(rng.uniform(0.0, 100.0, size=(64, 64)))
    b = raster_from_array(100.0 - a.data)  # anti-correlated
    with pytest.raises(NonpositiveCorrelationError):
        estimate_frank_alali(a, b)


def test_frank_alali_recovers_oracle():
    from semsnr.corpus import CorpusSpec, SceneSpec, acquisition_recipe, scene_basis
    from semsnr.noise import simulate

    spec = CorpusSpec(
        scene=SceneSpec(kind="spectral", width=256, height=256, corr_length=8.0,
                        spectral_nugget=0.004),
        model="additive-gaussian", snr_targets=(5.0,), base_seed=13,
        dose_min=5000.0, dose_max=30000.0, dc_offset=20000.0,
    )
    rels = []
    for s in range(6):
        recipe, _, _ = acquisition_recipe(spec, scene_basis(spec, s), 40 + s, 5.0)
        g1 = simulate(recipe)
        g2 = simulate(replace(recipe, seed=900 + s))
        est = estimate_frank_alali(g1.noisy, g2.noisy)
        rels.append(rel_error(est.snr_linear, 0.5 * (g1.true_snr + g2.true_snr)))
    assert abs(np.median(rels)) <= 0.10


def test_smart_duplicated_second_image(rng):
    from semsnr.corpus import SceneSpec, make_scene
    from semsnr.noise import rng_for

    scene = make_scene(SceneSpec(kind="spectral", width=256, height=256,
                                 corr_length=20.0, spectral_nugget=0.004), rng_for(5, 0))
    img = raster_from_array(20000.0 * scene + 1000.0, 16)
    est = estimate_smart(img, second=img, cfg=BENCH_CONFIG)
    assert est.status == "infinite"
    assert est.diagnostics["peak_offset"] == (4, 0)
    assert est.diagnostics["fwhm"] >= 1.0


@pytest.mark.parametrize("roll,ccf_offset,smart_offset", [
    ((3, -5), (-5, 3), (9, -3)), ((-2, 7), (7, -2), (-3, 2)), ((5, 0), (0, 5), (4, -5))])
def test_smart_realigns_a_rolled_copy_on_both_axes(roll, ccf_offset, smart_offset):
    # a noise-free copy rolled by (dy, dx) is the same scene: once smart cuts its
    # second region at the recovered offset on both axes, the regions are equal
    from semsnr.corpus import SceneSpec, make_scene
    from semsnr.correlation import cross_correlate
    from semsnr.noise import rng_for

    scene = make_scene(SceneSpec(kind="spectral", width=256, height=256,
                                 corr_length=20.0, spectral_nugget=0.004), rng_for(5, 0))
    img = raster_from_array(20000.0 * scene + 1000.0, 16)
    second = raster_from_array(np.roll(img.data, roll, axis=(0, 1)), 16)
    # cross_correlate reads the content shift (dx, dy); smart reads its region
    # offset (smart_shift - dx, -dy), since its second region starts smart_shift along x
    dx, dy = cross_correlate(img, second).peak_offset
    assert (dx, dy) == ccf_offset
    est = estimate_smart(img, second, BENCH_CONFIG)
    assert est.diagnostics["peak_offset"] == smart_offset == (BENCH_CONFIG.smart_shift - dx, -dy)
    assert est.status == "infinite" and est.diagnostics["rho"] == 1.0


@pytest.mark.parametrize("stream", range(6))
def test_exact_duplicate_reads_infinite_whatever_the_rounding(stream):
    # a rho divided by the product of two std() values lands an ulp or two
    # under 1 on some of these planes (stream 5), an "ok" SNR of about 9e15
    from semsnr.corpus import SceneSpec, make_scene
    from semsnr.noise import rng_for

    scene = make_scene(SceneSpec(kind="spectral", width=256, height=256,
                                 corr_length=20.0, spectral_nugget=0.004), rng_for(5, stream))
    img = raster_from_array(20000.0 * scene + 1000.0, 16)
    for est in (estimate_smart(img, second=img, cfg=BENCH_CONFIG), estimate_frank_alali(img, img)):
        assert est.status == "infinite", est.method
        assert est.diagnostics["rho"] == 1.0


def test_smart_too_small_image():
    img = raster_from_array(np.add.outer(np.arange(32.0), np.arange(32.0)))
    with pytest.raises(DomainError):
        estimate_smart(img, img, cfg=BENCH_CONFIG)


def test_paired_methods_match_their_oracles_and_pins(paired_estimates, estimator_baseline):
    errors = {"frank_alali": [], "smart": []}
    for entry in paired_estimates:
        assert entry["same_clean"], entry["image_id"]  # a pair shares its clean plane
        results = entry["results"]
        assert results["frank_alali"].status == results["smart"].status == "ok"
        errors["frank_alali"].append(
            rel_error(results["frank_alali"].snr_linear, entry["truth"]["true_snr"]))
        errors["smart"].append(rel_error(results["smart"].snr_linear, entry["region_oracle"]))
    assert max(map(abs, errors["frank_alali"])) <= 0.01
    assert max(map(abs, errors["smart"])) <= 0.02
    for method, errs in errors.items():
        median = float(np.median(np.abs(errs)))
        pinned = estimator_baseline[method]
        assert abs(median - pinned) <= 0.20 * pinned, (method, median, pinned)


# --- corpus-level behavior --------------------------------------------------------


def test_all_single_image_methods_finite_on_corpus(corpus_estimates):
    for entry in corpus_estimates:
        for method in SINGLE_IMAGE_METHODS:
            est = entry["results"][method]
            assert est.status == "ok", (entry["image_id"], method, est.status)
            assert math.isfinite(est.snr_linear)


def test_nn_underestimates_within_bound_at_snr_10(corpus_estimates):
    errs = [
        rel_error(e["results"]["nn"].snr_linear, e["truth"]["true_snr"])
        for e in corpus_estimates
        if e["truth"]["snr_target"] == 10.0
    ]
    median = float(np.median(errs))
    assert median < 0.0  # the nearest-offset rule reads low on smooth scenes
    assert abs(median) <= 0.30


def test_lsr_beats_nn_on_smooth_corpus(corpus_estimates):
    lsr_errs, nn_errs = [], []
    for entry in corpus_estimates:
        oracle = entry["truth"]["true_snr"]
        lsr_errs.append(abs(rel_error(entry["results"]["lsr"].snr_linear, oracle)))
        nn_errs.append(abs(rel_error(entry["results"]["nn"].snr_linear, oracle)))
    assert np.median(lsr_errs) <= np.median(nn_errs)


def test_acldr_error_variance_not_worse_than_nn(corpus_estimates):
    acldr = [rel_error(e["results"]["acldr"].snr_linear, e["truth"]["true_snr"])
             for e in corpus_estimates]
    nn = [rel_error(e["results"]["nn"].snr_linear, e["truth"]["true_snr"])
          for e in corpus_estimates]
    assert np.var(acldr) <= np.var(nn)


def test_acldr_order_2_is_order_1_and_order_3_is_not(oracle_corpus):
    # order 2 predicts r(1)^2 / r(2) of the covariance tail, as order 1 does
    same = differs = 0
    for entry in oracle_corpus:
        table = lag_table(entry["gt"].noisy, 4, 4)
        one, two, three = (estimate_acldr(table, EstimatorConfig(acldr_order=k)) for k in (1, 2, 3))
        same += (one.status, one.snr_linear) == (two.status, two.snr_linear)
        differs += (three.status, three.snr_linear) != (one.status, one.snr_linear)
    assert (same, differs) == (len(oracle_corpus), len(oracle_corpus)) == (54, 54)


def test_estimator_medians_match_baseline(corpus_estimates, estimator_baseline):
    for method in SINGLE_IMAGE_METHODS:
        errs = [abs(rel_error(e["results"][method].snr_linear, e["truth"]["true_snr"]))
                for e in corpus_estimates]
        median = float(np.median(errs))
        pinned = estimator_baseline[method]
        assert abs(median - pinned) <= 0.20 * pinned, (method, median, pinned)


# --- one estimation core: shared lag table and method registry ----------------------

STANDALONE = {
    "nn": estimate_nn, "fol": estimate_fol, "lsr": estimate_lsr, "nllsr": estimate_nllsr,
    "asnn": estimate_asnn, "acldr": estimate_acldr, "chillsr": estimate_chillsrsnr,
}


def test_estimate_all_matches_standalone_estimators(oracle_corpus, corpus_estimates):
    for image, entry in zip(oracle_corpus, corpus_estimates):
        img, results = image["gt"].noisy, entry["results"]
        for method, run in STANDALONE.items():
            # equality compares every value and diagnostic bit for bit
            assert results[method] == run(img, BENCH_CONFIG), (entry["image_id"], method)
        assert results["smart"] == estimate_smart(img, None, BENCH_CONFIG), entry["image_id"]


def test_subset_run_matches_full_run(oracle_corpus, corpus_estimates):
    for image, entry in zip(oracle_corpus, corpus_estimates):
        subset = estimate_all(image["gt"].noisy, BENCH_CONFIG, methods=("nn", "lsr"))
        assert list(subset) == ["nn", "lsr"]
        for method, est in subset.items():
            assert est == entry["results"][method], (entry["image_id"], method)


def test_small_image_keeps_per_method_statuses():
    # 9x9 fits lags up to 4: nllsr needs lag 5
    from semsnr.noise import rng_for

    yy, xx = np.mgrid[0:9, 0:9]
    base = 500.0 + 300.0 * np.sin(xx / 2.0) * np.cos(yy / 2.5)
    img = raster_from_array(np.clip(base + rng_for(7, 0).normal(0.0, 60.0, (9, 9)), 0.0, None), 16)
    results = estimate_all(img, BENCH_CONFIG)
    assert {m: e.status for m, e in results.items()} == {
        "nn": "ok", "fol": "degenerate", "lsr": "degenerate", "nllsr": "error",
        "asnn": "ok", "acldr": "degenerate", "chillsr": "degenerate", "smart": "not_applicable",
        "frank_alali": "not_applicable",
    }
    assert results["nllsr"].diagnostics["detail"].startswith("max_lag 5 ")
    for est in results.values():
        json.dumps(est.diagnostics, allow_nan=False)
    assert results["nn"] == estimate_nn(img, BENCH_CONFIG)
    assert results["asnn"] == estimate_asnn(img, BENCH_CONFIG)
    assert estimate_all(img, BENCH_CONFIG, methods=("nllsr",))["nllsr"].status == "error"
    with pytest.raises(DomainError):
        estimate_nllsr(img, BENCH_CONFIG)


def test_ok_estimates_are_plain_floats(oracle_corpus, corpus_estimates):
    gt = oracle_corpus[30]["gt"]
    paired = estimate_all(gt.noisy, BENCH_CONFIG, second=gt.clean)
    seen = set()
    for results in [e["results"] for e in corpus_estimates] + [paired]:
        for method, est in results.items():
            json.dumps(est.diagnostics, allow_nan=False)  # plain, finite values, every status
            if est.status == "ok":
                assert type(est.snr_linear) is float, method
                seen.add(method)
    assert seen >= set(SINGLE_IMAGE_METHODS) | {"frank_alali", "smart"}


def test_estimate_all_times_each_method_and_rejects_unknown(oracle_corpus):
    img = oracle_corpus[0]["gt"].noisy
    results = estimate_all(img, BENCH_CONFIG, methods=("smart", "nn"))
    assert list(results) == ["nn", "smart"]  # registry order
    assert all(math.isfinite(e.runtime_ms) and e.runtime_ms >= 0.0 for e in results.values())
    assert math.isnan(estimate_nn(img, BENCH_CONFIG).runtime_ms)
    with pytest.raises(DomainError):
        estimate_all(img, BENCH_CONFIG, methods=("nn", "psychic"))


def test_estimate_all_leaves_no_reference_cycles(oracle_corpus):
    # a cycle would keep each image plane alive until a full collection, so a
    # corpus run's memory would grow with the number of images
    import gc

    small = raster_from_array(np.add.outer(np.arange(9.0), np.arange(9.0)))
    estimate_all(small, BENCH_CONFIG)
    gc.collect()
    gc.disable()
    try:
        estimate_all(oracle_corpus[30]["gt"].noisy, BENCH_CONFIG)
        estimate_all(small, BENCH_CONFIG, methods=("asnn", "nllsr"))
        assert gc.collect() == 0
    finally:
        gc.enable()
