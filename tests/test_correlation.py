import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from semsnr import correlation, raster
from semsnr.correlation import (
    AcfCurve,
    autocorrelation,
    ccf_surface,
    cross_correlate,
    lag_table,
    snr_db,
    snr_from_peaks,
)
from semsnr.corpus import iter_corpus, reference_corpus_spec
from semsnr.errors import DegenerateError, DomainError, NonpositiveSignalError
from semsnr.raster import raster_from_array

TABLE_ROWS = [
    # noisy peak, noise-free peak, squared mean, printed SNR, printed dB
    (77279.9, 77251.0, 75289.8, 67.86, 18.32),
    (77177.3, 77149.6, 75331.4, 65.64, 18.17),
    (77114.6, 77070.3, 75323.0, 39.44, 15.96),
    (77050.6, 76991.0, 75227.2, 29.59, 14.71),
    (76591.0, 76538.5, 75990.3, 10.44, 10.18),
]


def test_constant_image_acf_flat():
    r = raster_from_array(np.full((16, 16), 3.0))
    curve = autocorrelation(r, max_lag=4)
    assert np.allclose(curve.values, 9.0)


def test_white_noise_acf(rng):
    arr = rng.normal(0.0, 4.0, size=(128, 128))
    arr -= arr.min()  # keep the raster nonnegative
    r = raster_from_array(arr)
    curve = autocorrelation(r, max_lag=5)
    var = np.var(r.data)
    mu2 = curve.mean**2
    assert curve.value(0) - mu2 == pytest.approx(var, rel=1e-9)
    # off-peak covariance stays inside 3 sigma Monte-Carlo bands
    band = 3.0 * 16.0 / math.sqrt(arr.size)
    for k in range(1, 6):
        assert abs(curve.value(k) - mu2) <= band


def test_acf_identity_random_images(rng):
    for _ in range(5):
        arr = rng.uniform(0.0, 200.0, size=(32, 48))
        r = raster_from_array(arr)
        curve = autocorrelation(r, max_lag=3)
        assert curve.value(0) - curve.mean**2 == pytest.approx(np.var(r.data), rel=1e-9)


def test_acf_symmetry_via_reflection(rng):
    # r(k) computed left-to-right equals r(-k) computed via the mirrored image
    arr = rng.uniform(0.0, 10.0, size=(24, 24))
    fwd = autocorrelation(raster_from_array(arr), max_lag=5)
    bwd = autocorrelation(raster_from_array(arr[:, ::-1]), max_lag=5)
    assert np.allclose(fwd.values, bwd.values, rtol=1e-12)


def test_acf_axes_and_radial(rng):
    arr = rng.uniform(0.0, 10.0, size=(32, 32))
    r = raster_from_array(arr)
    cx = autocorrelation(r, max_lag=3, axis="x")
    cy = autocorrelation(r, max_lag=3, axis="y")
    assert cx.value(0) == pytest.approx(cy.value(0))
    with pytest.raises(DomainError):
        autocorrelation(r, max_lag=3, axis="radial")  # only the x and y profiles exist


def test_acf_max_lag_guard():
    r = raster_from_array(np.ones((16, 16)))
    with pytest.raises(DomainError):
        autocorrelation(r, max_lag=8)
    with pytest.raises(DomainError):
        autocorrelation(r, max_lag=2, axis="diagonal")


@pytest.mark.parametrize("r0,rnf,mu2,snr,db", TABLE_ROWS)
def test_snr_from_peaks_reproduces_published_rows(r0, rnf, mu2, snr, db):
    value = snr_from_peaks(r0, rnf, math.sqrt(mu2))
    assert abs(value - snr) <= 0.01
    assert abs(snr_db(value) - db) <= 0.01


def test_snr_from_peaks_specialization():
    # with zero mean the ratio reduces to r_nf / (r0 - r_nf)
    r0, rnf = 100.0, 99.0
    assert snr_from_peaks(r0, rnf, 0.0) == pytest.approx(rnf / (r0 - rnf))


def test_snr_from_peaks_error_paths():
    with pytest.raises(DegenerateError):
        snr_from_peaks(100.0, 100.0, 1.0)
    with pytest.raises(DegenerateError):
        snr_from_peaks(100.0, 101.0, 1.0)
    with pytest.raises(NonpositiveSignalError):
        snr_from_peaks(100.0, 50.0, 8.0)


def test_cross_correlate_detects_wraparound_shift(rng):
    arr = rng.uniform(0.0, 100.0, size=(64, 64))
    a = raster_from_array(arr)
    b = raster_from_array(np.roll(arr, (2, 3), axis=(0, 1)))
    res = cross_correlate(a, b)
    assert res.peak_offset == (3, 2)
    assert res.correlation == pytest.approx(1.0, abs=1e-9)


def test_cross_correlate_self():
    rng = np.random.Generator(np.random.Philox(8))
    arr = rng.uniform(0.0, 100.0, size=(32, 32))
    a = raster_from_array(arr)
    res = cross_correlate(a, a)
    assert res.peak_offset == (0, 0)
    assert res.correlation == pytest.approx(1.0, abs=1e-9)
    assert res.fwhm >= 1.0


def test_cross_correlate_self_is_exactly_one():
    # the coefficient is pearson's: a mean product over two std() values read
    # an ulp or two under 1 on some of these planes
    from semsnr.noise import rng_for

    for stream in range(40):
        a = raster_from_array(rng_for(stream).uniform(0.0, 100.0, size=(64, 64)))
        assert cross_correlate(a, a).correlation == 1.0, stream
    flat = raster_from_array(np.full((64, 64), 7.0))
    assert cross_correlate(a, flat).correlation == 0.0


def test_cross_correlate_matches_brute_force(rng):
    arr1 = rng.uniform(0.0, 10.0, size=(32, 32))
    arr2 = rng.uniform(0.0, 10.0, size=(32, 32))
    res = cross_correlate(raster_from_array(arr1), raster_from_array(arr2))
    xa = arr1 - arr1.mean()
    xb = arr2 - arr2.mean()
    # brute-force circular cross-correlation surface
    best = -np.inf
    best_off = None
    for dy in range(32):
        for dx in range(32):
            v = float(np.mean(xa * np.roll(xb, (-dy, -dx), axis=(0, 1))))
            if v > best:
                best, best_off = v, (dx, dy)
    assert res.peak_value == pytest.approx(best, rel=1e-6)
    assert res.peak_offset == (
        best_off[0] - 32 if best_off[0] > 16 else best_off[0],
        best_off[1] - 32 if best_off[1] > 16 else best_off[1],
    )


def test_cross_correlate_recovers_known_snr(oracle_corpus):
    # two realizations of one scene at a known oracle SNR close to 4
    from dataclasses import replace

    from semsnr.corpus import CorpusSpec, SceneSpec, acquisition_recipe, scene_basis
    from semsnr.noise import simulate

    spec = CorpusSpec(
        scene=SceneSpec(kind="spectral", width=256, height=256, corr_length=8.0,
                        spectral_nugget=0.004),
        model="additive-gaussian", snr_targets=(4.0,), base_seed=77,
        dose_min=5000.0, dose_max=30000.0, dc_offset=20000.0,
    )
    rels = []
    for s in range(5):
        recipe, _, _ = acquisition_recipe(spec, scene_basis(spec, s), 100 + s, 4.0)
        g1 = simulate(recipe)
        g2 = simulate(replace(recipe, seed=7000 + s))
        res = cross_correlate(g1.noisy, g2.noisy)
        assert res.peak_offset == (0, 0)
        snr = res.correlation / (1.0 - res.correlation)
        oracle = 0.5 * (g1.true_snr + g2.true_snr)
        rels.append(snr / oracle - 1.0)
        # two-image correlation at oracle 4 sits near 0.8
        assert res.correlation == pytest.approx(0.8, abs=0.05)
    assert abs(np.median(rels)) <= 0.10


def test_cross_correlate_dimension_guards():
    a = raster_from_array(np.ones((32, 32)))
    b = raster_from_array(np.ones((16, 32)))
    with pytest.raises(DomainError):
        cross_correlate(a, b)
    small = raster_from_array(np.ones((8, 8)))
    with pytest.raises(DomainError):
        cross_correlate(small, small)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), w=st.integers(12, 40), h=st.integers(12, 40))
def test_variance_identity_property(seed, w, h):
    rng = np.random.Generator(np.random.Philox(seed))
    arr = rng.uniform(0.0, 300.0, size=(h, w))
    r = raster_from_array(arr, bit_depth=16)
    curve = autocorrelation(r, max_lag=2)
    assert curve.value(0) - curve.mean**2 == pytest.approx(np.var(r.data), rel=1e-9)


def test_acf_curve_lags_are_zero_to_k():
    with pytest.raises(DomainError):
        AcfCurve([[3.0, 2.0], [1.0, 0.5]])  # a profile is 1-D: value k is lag k
    curve = AcfCurve([3.0, 2.0, 1.0])
    assert [curve.value(k) for k in range(3)] == [3.0, 2.0, 1.0]
    for lag in (-1, 3):
        with pytest.raises(DomainError):
            curve.value(lag)


def _direct_products(arr, x_lags, y_lags):
    """The product-plane formula, np.mean(a * b) per lag, as x and y value lists."""
    h, w = arr.shape
    return ([float(np.mean(arr[:, : w - k] * arr[:, k:])) for k in range(x_lags + 1)],
            [float(np.mean(arr[: h - k] * arr[k:])) for k in range(y_lags + 1)])


def test_lag_table_matches_direct_products(rng):
    # integer-valued planes, as every stored plane is: the same means exactly
    _, _, _, gt, _ = next(iter_corpus(reference_corpus_spec(seeds_per_level=1)))
    for arr in (rng.integers(0, 65536, size=(20, 30)).astype(float), gt.noisy.data):
        table = lag_table(raster_from_array(arr, 16), 5, 5)
        assert (table.x.values.tolist(), table.y.values.tolist()) == _direct_products(arr, 5, 5)
        assert table.mean == float(arr.mean())
    # a float plane: within rounding of the product-plane means
    arr = rng.uniform(0.0, 50.0, size=(20, 30))
    r = raster_from_array(arr)
    table = lag_table(r, 6, 3)
    xs, ys = _direct_products(arr, 6, 3)
    np.testing.assert_allclose(table.x.values, xs, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(table.y.values, ys, rtol=1e-12, atol=0.0)
    assert table.mean == float(arr.mean())
    assert table.xy(3).values.tolist() == (0.5 * (table.x.values[:4] + table.y.values)).tolist()
    with pytest.raises(DomainError):
        lag_table(r, 0, 10)  # 10 >= 20 / 2


def test_a_lag_does_not_depend_on_the_table_that_holds_it(rng):
    # each lag is its own pass: on a float plane, where the summation order
    # shows in the last bits, a fused pass over every lag gave other values
    r = raster_from_array(rng.uniform(0.0, 50.0, size=(33, 47)))
    full = lag_table(r, 5, 5)
    for x_lags, y_lags in ((1, 1), (2, 0)):
        part = lag_table(r, x_lags, y_lags)
        assert part.x.values.tolist() == full.x.values[: x_lags + 1].tolist()
        assert part.y.values.tolist() == full.y.values[: y_lags + 1].tolist()


def test_ccf_surface_reads_brute_force_surface(rng):
    arr1 = rng.uniform(0.0, 10.0, size=(24, 32))
    arr2 = np.roll(arr1, (1, 2), axis=(0, 1)) + rng.normal(0.0, 1.0, size=(24, 32))
    res = ccf_surface(arr1, arr2)
    xa, xb = arr1 - arr1.mean(), arr2 - arr2.mean()
    brute = np.array([[np.mean(xa * np.roll(xb, (-dy, -dx), axis=(0, 1))) for dx in range(32)]
                      for dy in range(24)])
    assert res.peak_offset == (2, 1)
    assert res.peak_value == pytest.approx(brute[1, 2], rel=1e-9)
    mask = np.ones_like(brute, dtype=bool)
    mask[np.ix_(np.arange(-1, 4) % 24, np.arange(0, 5) % 32)] = False
    assert res.background == pytest.approx(np.median(brute[mask]), abs=1e-9 * brute[1, 2])
    assert math.isnan(res.correlation)  # only cross_correlate aligns and correlates


@pytest.mark.parametrize("size,count", [(256, 65511), (17, 264)], ids=["odd", "even"])
def test_ccf_background_is_np_median_outside_the_peak_block(size, count):
    gen = np.random.default_rng(size)
    a = gen.normal(100.0, 5.0, size=(size, size))
    b = np.roll(a, (3, -2), axis=(0, 1)) + gen.normal(0.0, 2.0, size=(size, size))
    xa, xb = a - a.mean(), b - b.mean()
    surface = np.fft.irfft2(np.conj(np.fft.rfft2(xa)) * np.fft.rfft2(xb), s=xa.shape) / xa.size
    my, mx = np.unravel_index(int(np.argmax(surface)), surface.shape)
    mask = np.ones_like(surface, dtype=bool)
    mask[np.ix_(np.arange(my - 2, my + 3) % size, np.arange(mx - 2, mx + 3) % size)] = False
    assert int(mask.sum()) == count
    assert ccf_surface(a, b).background == float(np.median(surface[mask]))


@pytest.mark.parametrize("shape", [(512, 512), (130, 97), (97, 130), (33, 2), (2, 33), (7, 5)])
def test_ccf_surface_equals_the_numpy_rfft2_form(shape, rng, monkeypatch):
    a = rng.normal(100.0, 5.0, size=shape)
    b = np.roll(a, (1, 1), axis=(0, 1)) + rng.normal(0.0, 2.0, size=shape)
    xa, xb = a - a.mean(), b - b.mean()
    expected = np.fft.irfft2(np.conj(np.fft.rfft2(xa)) * np.fft.rfft2(xb), s=shape) / xa.size
    surfaces = []

    def recording(*args, **kwargs):  # the surface is scaled in this plane afterwards
        surfaces.append(raster.irfft2(*args, **kwargs))
        return surfaces[-1]

    monkeypatch.setattr(correlation, "irfft2", recording)
    res = ccf_surface(a, b)
    assert len(surfaces) == 1 and np.array_equal(surfaces[0], expected)
    assert res.peak_value == float(expected.max())


def _reference_median(values):
    """np.median's arithmetic from one in-place selection, as a hand-written reference."""
    k = values.size // 2
    odd = values.size % 2
    values.partition(k if odd else (k - 1, k))
    return float(values[k] if odd else (values[k - 1] + values[k]) / 2)


def _reference_fwhm(profile, peak_idx, peak, background):
    """The FWHM walked one sample at a time outward from the peak on each side."""
    half = background + 0.5 * (peak - background)
    n = profile.size

    def crossing(direction):
        prev = peak
        for step in range(1, n):
            idx = peak_idx + direction * step
            if idx < 0 or idx >= n:
                return float(step - 1) + 0.5  # ran off the profile edge
            cur = profile[idx]
            if cur < half:
                return float(step - 1) + (prev - half) / (prev - cur)
            prev = cur
        return float(n - 1)

    return max(crossing(+1) + crossing(-1), 1.0)


def _reference_readings(a, b):
    """(background, fwhm) read off NumPy's surface by the reference median and walk."""
    xa, xb = a - a.mean(), b - b.mean()
    surface = np.fft.irfft2(np.conj(np.fft.rfft2(xa)) * np.fft.rfft2(xb), s=a.shape) / a.size
    h, w = surface.shape
    my, mx = np.unravel_index(int(np.argmax(surface)), surface.shape)
    mask = np.ones_like(surface, dtype=bool)
    mask[np.ix_(np.arange(my - 2, my + 3) % h, np.arange(mx - 2, mx + 3) % w)] = False
    background = _reference_median(surface[mask])
    profile = np.roll(surface[my, :], w // 2 - mx)
    return background, _reference_fwhm(profile, w // 2, float(surface[my, mx]), background)


def _ccf_pair(pair, shape, gen):
    from semsnr.corpus import SceneSpec, make_scene

    h, w = shape
    a = gen.normal(100.0, 5.0, size=shape)
    noise = gen.normal(0.0, 2.0, size=shape)
    if pair == "shifted":
        return a, np.roll(a, (h // 3, -(w // 4)), axis=(0, 1)) + noise
    if pair == "wrap":  # the peak sits in the last row and column: its block wraps
        return a, np.roll(a, (-1, -1), axis=(0, 1)) + noise
    if pair == "independent":
        return a, noise
    # correlated: two noisy acquisitions of one smooth scene, a broad peak
    scene = 1000.0 * make_scene(SceneSpec(kind="spectral", width=w, height=h,
                                          corr_length=6.0), gen)
    return scene + 30.0 * noise, scene + gen.normal(0.0, 60.0, size=shape)


@pytest.mark.parametrize("shape", [(16, 16), (16, 17), (17, 17), (33, 48), (45, 23), (64, 64)])
@pytest.mark.parametrize("pair", ["shifted", "wrap", "correlated", "independent"])
def test_ccf_background_and_fwhm_equal_the_reference_readings(shape, pair):
    # odd and even widths, and masked counts (h * w - 25) of both parities
    gen = np.random.default_rng([shape[0], shape[1], len(pair)])
    a, b = _ccf_pair(pair, shape, gen)
    res = ccf_surface(a, b)
    assert (res.background, res.fwhm) == _reference_readings(a, b)
    assert type(res.fwhm) is float
    if pair == "wrap":
        assert res.peak_offset == (-1, -1)


def test_ccf_fwhm_side_without_a_crossing_runs_half_a_sample_off_the_edge():
    # a profile that stays above half maximum up to its edges on both sides
    profile = np.array([5.0, 6.0, 8.0, 10.0, 9.0, 7.0])
    for fwhm in (correlation._profile_fwhm, _reference_fwhm):
        assert fwhm(profile, 3, 10.0, 0.0) == 3.5 + 2.5
    # and one that crosses on both sides: 1 + 1/3 samples right, 5/6 of one left
    profile = np.array([0.0, 0.0, 4.0, 10.0, 6.0, 3.0, 0.0])
    width = correlation._profile_fwhm(profile, 3, 10.0, 0.0)
    assert width == _reference_fwhm(profile, 3, 10.0, 0.0)
    assert width == pytest.approx(1.0 + 1.0 / 3.0 + 5.0 / 6.0, rel=1e-15)


def test_ccf_surface_keeps_no_mean_removed_copy():
    # the surface, its masked copy and the spectrum: under 3.5 planes, where
    # keeping both mean-removed planes past their transforms needed over 5
    gen = np.random.default_rng(256)
    a = gen.normal(100.0, 5.0, size=(256, 256))
    b = np.roll(a, (3, -2), axis=(0, 1)) + gen.normal(0.0, 2.0, size=a.shape)
    assert traced_peak(lambda: ccf_surface(a, b)) < 3.5 * a.nbytes
