import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import BENCH_CONFIG, MALFORMED_FILTER_SPECS
from semsnr import bench, denoise, parallel
from semsnr.bench import run_denoise
from semsnr.corpus import CorpusSpec, SceneSpec, generate_corpus
from semsnr.correlation import lag_table
from semsnr.denoise import (
    FilterSpec,
    _gaussian_kernel,
    apply_filter,
    ar_wiener,
    estimate_noise_variance_ar,
    filter_spec_to_string,
    gaussian_blur,
    mse,
    parse_filter_spec,
    psnr_db,
    spatial_filter,
    wiener_global,
    wiener_local,
    wiener_transfer,
)
from semsnr.errors import DomainError
from semsnr.estimators import EstimatorConfig, estimate_acldr
from semsnr.raster import raster_from_array


def test_parse_filter_spec_grammar():
    spec = parse_filter_spec("wiener_local:window=7,noise_var=25.0")
    assert spec.kind == "wiener_local"
    assert spec.params == {"window": 7, "noise_var": 25.0}
    spec = parse_filter_spec("gaussian:sigma=1.5")
    assert spec.params["radius"] == 5  # ceil(3 sigma) default
    with pytest.raises(DomainError):
        parse_filter_spec("blurry:sigma=1")
    with pytest.raises(DomainError):
        parse_filter_spec("median:window")
    with pytest.raises(DomainError):
        parse_filter_spec("median:window=4")  # even window
    with pytest.raises(DomainError):
        parse_filter_spec("bilateral:sigma_s=2")  # missing sigma_r


@pytest.mark.parametrize("text", MALFORMED_FILTER_SPECS)
def test_malformed_filter_spec_is_domain_error(text):
    with pytest.raises(DomainError):
        parse_filter_spec(text)


def test_huge_int_float_parameter_is_domain_error():
    # an int too large for a float fails the finite rule instead of overflowing
    with pytest.raises(DomainError, match="sigma must be finite and > 0"):
        FilterSpec("gaussian", {"sigma": 10**400})


@pytest.mark.parametrize("kind,params", [("gaussian", {"sigma": True}),
                                         ("wiener_local", {"window": 3, "noise_var": True}),
                                         ("bilateral", {"sigma_s": True, "sigma_r": 2.0})])
def test_bool_real_parameter_is_domain_error(kind, params):
    # a bool is a numbers.Real, but its label (sigma=True) does not parse back
    with pytest.raises(DomainError, match="must be"):
        FilterSpec(kind, params)


@pytest.mark.parametrize("text,label", [
    # the benchmark's denoise specs, the README example and an explicit-variance local Wiener
    ("ar_wiener:ar_order=2,window=7", "ar_wiener:ar_order=2,window=7"),
    ("ar_wiener:ar_order=1,window=7", "ar_wiener:ar_order=1,window=7"),
    ("wiener_global:noise_var=1000000", "wiener_global:noise_var=1000000"),
    ("median:window=5", "median:window=5"),
    ("bilateral:sigma_s=2,sigma_r=2000", "bilateral:radius=4,sigma_r=2000,sigma_s=2"),
    ("gaussian:sigma=1.5", "gaussian:radius=5,sigma=1.5"),
    ("wiener_local:window=7,noise_var=25", "wiener_local:noise_var=25,window=7"),
])
def test_filter_labels_are_pinned(text, label):
    spec = parse_filter_spec(text)
    assert filter_spec_to_string(spec) == label
    assert parse_filter_spec(label) == spec


@pytest.mark.parametrize("text", ["gaussian:sigma=1e-160", "bilateral:sigma_s=1,sigma_r=1e-155",
                                  "bilateral:sigma_s=1,sigma_r=1e-151"])
def test_tiny_sigma_weights_underflow_to_zero_without_warnings(text):
    # neighbours 16-bit apart by far more than 1900 overflow even the 1e-151 range exponent
    data = np.random.default_rng(3).integers(0, 65536, size=(16, 16)).astype(np.float64)
    img = raster_from_array(data, bit_depth=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = spatial_filter(img, parse_filter_spec(text))
    # only the centre tap (and, at the edges, its mirror copies) keeps weight
    if text.startswith("gaussian"):
        assert np.array_equal(out.data, data)
    else:
        np.testing.assert_allclose(out.data, data, rtol=1e-14)


def test_filter_kind_guards():
    img = raster_from_array(np.ones((8, 8)))
    with pytest.raises(DomainError):
        spatial_filter(img, parse_filter_spec("wiener_global:noise_var=1"))
    with pytest.raises(DomainError):
        ar_wiener(img, parse_filter_spec("median:window=3"))
    with pytest.raises(DomainError):  # radius ceil(2 * 40) spans more than the image
        spatial_filter(img, parse_filter_spec("bilateral:sigma_s=40,sigma_r=10"))
    for window, noise_var in ((4, 1.0), (5.0, 1.0), (5, -1.0), (5, math.nan)):
        with pytest.raises(DomainError):
            wiener_local(img, window, noise_var)


@pytest.mark.parametrize("text", [
    "gaussian:sigma=1.0",
    "median:window=3",
    "bilateral:sigma_s=1.5,sigma_r=10",
])
def test_spatial_filters_preserve_constant(text):
    img = raster_from_array(np.full((24, 24), 50.0))
    out = spatial_filter(img, parse_filter_spec(text))
    assert np.allclose(out.data, 50.0, atol=1e-9)


def test_median_removes_impulse():
    arr = np.zeros((15, 15))
    arr[7, 7] = 255.0
    out = spatial_filter(raster_from_array(arr), parse_filter_spec("median:window=3"))
    assert np.all(out.data == 0.0)


def test_gaussian_white_noise_variance_matches_kernel_algebra(rng):
    # independent pixels: output variance = input variance * sum of squared
    # weights of the 2-D kernel (computed here from first principles)
    sigma, radius = 1.0, 3
    offsets = np.arange(-radius, radius + 1)
    k1 = np.exp(-(offsets**2) / (2 * sigma * sigma))
    k1 /= k1.sum()
    weight_sq = float((np.outer(k1, k1) ** 2).sum())
    arr = rng.normal(100.0, 10.0, size=(256, 256))
    out = spatial_filter(raster_from_array(arr), parse_filter_spec("gaussian:sigma=1.0"))
    expected = 100.0 * weight_sq
    measured = float(np.var(out.data))
    assert abs(measured - expected) <= 0.08 * expected


def test_spatial_filter_window_guard():
    img = raster_from_array(np.ones((8, 8)))
    with pytest.raises(DomainError):
        spatial_filter(img, FilterSpec("median", {"window": 9}))


@pytest.mark.parametrize("text", [
    "gaussian:sigma=1.0",
    "median:window=3",
    "bilateral:sigma_s=1.5,sigma_r=10",
    "wiener_local:window=5,noise_var=4.0",
])
def test_intensity_shift_equivariance(text, rng):
    arr = rng.uniform(20.0, 80.0, size=(32, 32))
    spec = parse_filter_spec(text)
    base = apply_filter(raster_from_array(arr), spec).output.data
    shifted = apply_filter(raster_from_array(arr + 30.0), spec).output.data
    assert np.allclose(shifted, base + 30.0, atol=1e-8)


def test_wiener_transfer_bounds_and_identity(rng):
    img = raster_from_array(rng.uniform(0.0, 100.0, size=(64, 64)))
    transfer = wiener_transfer(img, 25.0)
    assert transfer.min() >= 0.0 and transfer.max() <= 1.0
    assert transfer[0, 0] == 1.0

    report = wiener_global(img, 0.0)
    assert np.allclose(report.output.data, img.data, atol=1e-9)
    with pytest.raises(DomainError):
        wiener_transfer(img, -1.0)


def test_wiener_global_huge_noise_flattens_to_mean(rng):
    arr = rng.uniform(40.0, 60.0, size=(64, 64))
    img = raster_from_array(arr)
    report = wiener_global(img, 1e12)
    assert np.allclose(report.output.data, arr.mean(), atol=1e-3)


def test_wiener_global_preserves_mean(rng):
    arr = rng.uniform(50.0, 150.0, size=(64, 64))
    img = raster_from_array(arr)
    report = wiener_global(img, 30.0)
    assert float(report.output.data.mean()) == pytest.approx(float(arr.mean()), rel=1e-12)


def test_wiener_global_reduces_mse_on_oracle(oracle_corpus):
    checked = 0
    for entry in oracle_corpus[::7]:
        if entry["truth"]["snr_target"] > 10:
            continue
        gt = entry["gt"]
        report = wiener_global(gt.noisy, gt.noise_energy)
        assert mse(report.output, gt.clean) < mse(gt.noisy, gt.clean)
        checked += 1
    assert checked >= 3


def test_wiener_local_identity_and_flat_limits(rng):
    arr = rng.uniform(10.0, 90.0, size=(32, 32))
    img = raster_from_array(arr)
    report = wiener_local(img, 5, 0.0)
    assert np.array_equal(report.output.data, arr)

    flat = raster_from_array(np.full((32, 32), 40.0) + rng.normal(0, 0.1, (32, 32)) ** 2)
    huge = wiener_local(flat, 5, 1e9)
    views_mean = huge.output.data
    # every window variance is below the noise floor: output is the local mean
    assert np.allclose(views_mean, flat.data.mean(), atol=1.0)


def _wiener_local_window_view(x, window, noise_var):
    """The direct formula: statistics over a materialised mirror-padded window view."""
    r = window // 2
    padded = np.pad(x, r, mode="symmetric")
    views = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    m = views.mean(axis=(2, 3))
    v = np.mean((views - m[..., None, None]) ** 2, axis=(2, 3))
    gain = np.maximum(v - noise_var, 0.0) / np.maximum(v, noise_var)
    return np.maximum(m + gain * (x - m), 0.0)


@pytest.mark.parametrize("window", [3, 5, 7])
def test_wiener_local_matches_window_view_formula(window, rng):
    arr = rng.uniform(20.0, 80.0, size=(32, 32))
    out = wiener_local(raster_from_array(arr), window, 150.0).output.data
    assert np.max(np.abs(out - _wiener_local_window_view(arr, window, 150.0))) <= 1e-8


def test_wiener_local_matches_window_view_formula_on_oracle(oracle_corpus):
    gt = oracle_corpus[10]["gt"]
    out = wiener_local(gt.noisy, 7, gt.noise_energy).output.data
    expected = _wiener_local_window_view(gt.noisy.data, 7, gt.noise_energy)
    assert np.max(np.abs(out - expected)) <= 1e-8


def _median_window_view(x, window):
    """The direct formula: np.median over a materialised mirror-padded window view."""
    r = window // 2
    padded = np.pad(x, r, mode="symmetric")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, (window, window)),
                     axis=(2, 3))


# at 8 rows a strip, "one_strip" (12 x 33) is one whole strip and a 4-row remainder
@pytest.mark.parametrize("window", [3, 5, 7])
@pytest.mark.parametrize("shape", [(130, 97), (12, 33)], ids=["strips_and_remainder", "one_strip"])
def test_median_matches_window_view_formula(window, shape, rng):
    floats = rng.uniform(0.0, 1000.0, size=shape)
    ties = rng.integers(0, 6, size=shape).astype(np.float64)  # many equal neighbours
    for arr in (floats, ties):
        out = spatial_filter(raster_from_array(arr), parse_filter_spec(f"median:window={window}"))
        assert np.array_equal(out.data, _median_window_view(arr, window))


def _bilateral_whole_plane(x, sigma_s, sigma_r, radius):
    """The whole-plane loop: one pass over full planes per neighbour offset."""
    padded = np.pad(x, radius, mode="symmetric")
    h, w = x.shape
    acc = np.zeros_like(x)
    norm = np.zeros_like(x)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            spatial = math.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s * sigma_s))
            nb = padded[radius + dy : radius + dy + h, radius + dx : radius + dx + w]
            weight = spatial * np.exp(-((nb - x) ** 2) / (2.0 * sigma_r * sigma_r))
            acc += weight * nb
            norm += weight
    return acc / norm


# at 64 rows a tile, "two_tiles" (64 x 64) is one whole tile and "two_whole_tiles" two
@pytest.mark.parametrize("radius", [0, 1, 4])
@pytest.mark.parametrize("shape", [(130, 97), (20, 33), (64, 64), (128, 40)],
                         ids=["tiles_and_remainder", "one_short_tile", "two_tiles",
                              "two_whole_tiles"])
def test_bilateral_matches_whole_plane_loop(radius, shape, rng):
    floats = rng.uniform(0.0, 1000.0, size=shape)
    ties = rng.integers(0, 6, size=shape).astype(np.float64)  # many equal neighbours
    for arr, sigma_r in ((floats, 300.0), (ties, 2.0)):
        spec = parse_filter_spec(f"bilateral:sigma_s=1.5,sigma_r={sigma_r},radius={radius}")
        out = spatial_filter(raster_from_array(arr), spec)
        assert np.array_equal(out.data, _bilateral_whole_plane(arr, 1.5, sigma_r, radius))


def test_tiny_sigma_r_does_not_warn_on_worker_threads(tmp_path, monkeypatch):
    # np.errstate is per thread: a filter run on a worker must set its own;
    # at two cores run_denoise filters each of the two images on a worker
    corpus_dir, out = tmp_path / "corpus", tmp_path / "out"
    spec = CorpusSpec(scene=SceneSpec(width=16, height=130), snr_targets=(2.0,),
                      seeds_per_level=2)
    generate_corpus(spec, corpus_dir)
    ran_on, real = [], denoise._bilateral

    def bilateral(*args):
        ran_on.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(denoise, "_bilateral", bilateral)
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_denoise(corpus_dir, parse_filter_spec("bilateral:sigma_s=1,sigma_r=1e-155,radius=1"),
                    out)
    assert len(ran_on) == 2 and threading.main_thread() not in ran_on
    for image_id in ("img0000", "img0001"):  # each pixel keeps only its own value
        assert ((out / f"{image_id}.filtered.pgm").read_bytes()
                == (corpus_dir / f"{image_id}.noisy.pgm").read_bytes())


@pytest.mark.parametrize("h", [1, 31, 32, 33, 130])
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_on_cores_covers_the_rows_once_in_whole_tiles(h, cores, monkeypatch):
    # run_denoise filters each image on a core of its own; there each tile
    # filter makes one pass over whole 32-row tiles, covering every row once
    monkeypatch.setattr(parallel, "cores", lambda: cores)
    for name in ("_MEDIAN_STRIP", "_BILATERAL_ROWS", "_TILE_ROWS"):
        monkeypatch.setattr(denoise, name, 32)
    calls, tiles = [], denoise._tiles

    def record(step, n):
        calls.append((step, n, tiles(step, n)))
        return calls[-1][2]

    monkeypatch.setattr(denoise, "_tiles", record)
    arr = np.random.default_rng(h).uniform(0.0, 1000.0, size=(h, 7))
    runs = {"median": (lambda: denoise._median(arr, 3), lambda: _median_window_view(arr, 3)),
            "bilateral": (lambda: denoise._bilateral(arr, 1.5, 300.0, 1),
                          lambda: _bilateral_whole_plane(arr, 1.5, 300.0, 1)),
            "gaussian": (lambda: gaussian_blur(arr, 0.3),
                         lambda: _convolve_separable_whole_plane(arr, _gaussian_kernel(0.3, 1)))}
    outs = parallel.map_on_cores(lambda run: run[0](), list(runs.values()), None)
    for kind, out, (_, whole_plane) in zip(runs, outs, runs.values()):
        assert np.array_equal(out, whole_plane()), kind
    assert len(calls) == len(runs)
    for step, n, blocks in calls:
        assert (step, n) == (32, h)
        assert [top for top, _ in blocks] == list(range(0, h, 32))
        assert all(rows == 32 for _, rows in blocks[:-1]) and 0 < blocks[-1][1] <= 32
        assert sum(rows for _, rows in blocks) == h


@pytest.mark.parametrize("cores", [2, 3])
def test_on_cores_raises_an_error_from_a_worker(cores, tmp_path, monkeypatch):
    # images run on worker threads; the first failing one in truth.csv order
    # ends the pass with its own error
    corpus_dir = tmp_path / "corpus"
    generate_corpus(CorpusSpec(scene=SceneSpec(width=16, height=16), snr_targets=(2.0,),
                               seeds_per_level=4), corpus_dir)
    monkeypatch.setattr(parallel, "cores", lambda: cores)
    real = bench.load_plane

    def load_plane(root, image_id, kind):
        if image_id != "img0000":
            raise ZeroDivisionError(f"image {image_id} on {threading.current_thread().name}")
        return real(root, image_id, kind)

    monkeypatch.setattr(bench, "load_plane", load_plane)
    with pytest.raises(ZeroDivisionError, match="image img0001 on ThreadPoolExecutor"):
        run_denoise(corpus_dir, parse_filter_spec("median:window=3"), tmp_path / "out")


def _convolve_separable_whole_plane(x, kernel):
    """The whole-plane passes: horizontal over the plane, then vertical over its padded result."""
    radius = kernel.size // 2
    padded = np.pad(x, ((0, 0), (radius, radius)), mode="symmetric")
    out = np.zeros_like(x)
    for i, w in enumerate(kernel):
        out += w * padded[:, i : i + x.shape[1]]
    padded = np.pad(out, ((radius, radius), (0, 0)), mode="symmetric")
    out = np.zeros_like(x)
    for i, w in enumerate(kernel):
        out += w * padded[i : i + x.shape[0], :]
    return out


def _wiener_local_whole_plane(x, window, noise_var):
    """The whole-plane formula: box sums of the mean-removed plane and its square."""
    mean = x.mean()
    c = x - mean
    flat = np.full(window, 1.0 / window)
    m = _convolve_separable_whole_plane(c, flat)
    v = _convolve_separable_whole_plane(c * c, flat) - m * m
    gain = np.maximum(v - noise_var, 0.0) / np.maximum(v, noise_var)
    return np.maximum(mean + m + gain * (c - m), 0.0)


BAND_SHAPES = {"bands_and_remainder": (130, 97), "one_short_band": (20, 33),
               "two_bands": (64, 64), "narrower_than_the_padding": (6, 40),
               "few_columns": (33, 2), "few_rows_and_columns": (3, 9)}


def _band_planes(shape, rng):
    floats = rng.uniform(0.0, 1000.0, size=shape)
    ties = rng.integers(0, 6, size=shape).astype(np.float64)  # many equal neighbours
    return floats, ties


@pytest.mark.parametrize("shape", BAND_SHAPES.values(), ids=BAND_SHAPES.keys())
def test_gaussian_blur_matches_whole_plane_passes(shape, rng):
    for arr in _band_planes(shape, rng):
        for sigma in (0.5, 1.5, 3.0):
            kernel = _gaussian_kernel(sigma, math.ceil(3.0 * sigma))
            assert np.array_equal(gaussian_blur(arr, sigma),
                                  _convolve_separable_whole_plane(arr, kernel))


@pytest.mark.parametrize("shape", BAND_SHAPES.values(), ids=BAND_SHAPES.keys())
def test_wiener_local_matches_whole_plane_formula(shape, rng):
    for arr in _band_planes(shape, rng):
        img = raster_from_array(arr)
        for window in (w for w in (3, 5, 7) if w <= min(shape)):
            for noise_var in (0.5, 150.0, 1e6):
                out = wiener_local(img, window, noise_var).output.data
                assert np.array_equal(out, _wiener_local_whole_plane(arr, window, noise_var))


@pytest.mark.parametrize("kind, limit", [("wiener_local", 3.0), ("gaussian_blur", 2.5)])
def test_band_filters_keep_few_planes(kind, limit, rng):
    # the whole-plane passes peaked near 6.1 (wiener_local) and 3.2
    # (gaussian_blur) planes on 256 x 256; the band loops hold their output
    # plane and band buffers
    arr = rng.uniform(0.0, 1000.0, size=(256, 256))
    img = raster_from_array(arr)
    run = {"wiener_local": lambda: wiener_local(img, 7, 150.0),
           "gaussian_blur": lambda: gaussian_blur(arr, 1.5)}[kind]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit * arr.nbytes, peak / arr.nbytes


def test_wiener_global_keeps_few_planes(rng):
    # on 256 x 256: the half spectrum, its transfer and the output plane
    # (2.02 measured); NumPy's irfft2 made one complex plane more (3.02)
    img = raster_from_array(rng.uniform(0.0, 1000.0, size=(256, 256)))
    wiener_global(img, 150.0)
    tracemalloc.start()
    try:
        wiener_global(img, 150.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * img.data.nbytes, peak / img.data.nbytes


@pytest.mark.parametrize("kind, limit", [("bilateral", 3.5), ("median", 3.1)])
def test_tile_filters_keep_one_tile_buffer(kind, limit, rng):
    # on 256 x 256: the output plane, the padded plane and one tile buffer
    # make 1 + 1.06 + 1.0 = 3.06 planes for the bilateral (radius 4, 4 x 64-row
    # buffers; 3.20 measured) and 1 + 1.03 + 0.78 = 2.81 for the median
    # (window 5, an 8-row stack of 25 neighbours; 2.82 measured); np.pad's and
    # the ufuncs' scratch add the rest, but not a second tile buffer
    arr = rng.uniform(0.0, 1000.0, size=(256, 256))
    run = {"bilateral": lambda: denoise._bilateral(arr, 2.0, 300.0, 4),
           "median": lambda: denoise._median(arr, 5)}[kind]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit * arr.nbytes, peak / arr.nbytes


def _wiener_global_full_spectrum(x, noise_var):
    """The full-spectrum formula: fft2, the spectral-subtraction gain, ifft2."""
    spectrum = np.fft.fft2(x)
    p_f = np.maximum(np.abs(spectrum) ** 2 / x.size - noise_var, 0.0)
    transfer = p_f / (p_f + noise_var) if noise_var > 0.0 else np.ones(x.shape)
    transfer[0, 0] = 1.0
    return np.maximum(np.fft.ifft2(transfer * spectrum).real, 0.0)


@pytest.mark.parametrize("shape", [(64, 64), (63, 97)], ids=["square", "odd_width"])
def test_wiener_global_matches_full_spectrum_formula(shape, rng):
    arr = rng.uniform(0.0, 200.0, size=shape)
    img = raster_from_array(arr)
    half = (shape[0], shape[1] // 2 + 1)
    for noise_var in (0.0, 25.0, 900.0, 1e12):
        out = wiener_global(img, noise_var).output.data
        expected = _wiener_global_full_spectrum(arr, noise_var)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert wiener_transfer(img, noise_var).shape == half
    for bad in (np.full(half, 25.0), -1.0, math.nan):  # the noise variance is one scalar
        with pytest.raises(DomainError):
            wiener_transfer(img, bad)
        with pytest.raises(DomainError):
            wiener_global(img, bad)


def _wiener_global_numpy_rfft2(x, noise_var):
    """wiener_global on NumPy's rfft2/irfft2, which make a complex plane per pass."""
    spectrum = np.fft.rfft2(x)
    spectrum *= denoise._transfer(spectrum, x.size, noise_var)
    return np.maximum(np.fft.irfft2(spectrum, s=x.shape), 0.0)


@pytest.mark.parametrize("shape", [(512, 512), (130, 97), (97, 130), (33, 2), (2, 33), (7, 5)])
def test_wiener_global_equals_the_numpy_rfft2_form(shape, rng):
    arr = rng.uniform(0.0, 200.0, size=shape)
    img = raster_from_array(arr)
    for noise_var in (0.0, 25.0, 900.0, 1e12):
        expected = _wiener_global_numpy_rfft2(arr, noise_var)
        assert wiener_global(img, noise_var).output.data.tobytes() == expected.tobytes()
        assert np.array_equal(wiener_transfer(img, noise_var),
                              denoise._transfer(np.fft.rfft2(arr), arr.size, noise_var))


def test_wiener_local_reduces_mse_on_oracle(oracle_corpus):
    entry = oracle_corpus[10]
    gt = entry["gt"]
    report = wiener_local(gt.noisy, 7, gt.noise_energy)
    assert mse(report.output, gt.clean) < mse(gt.noisy, gt.clean)


def test_psnr_identity():
    assert psnr_db(0.0, 255) == math.inf
    value = psnr_db(12.5, 255)
    assert value == pytest.approx(20 * math.log10(255) - 10 * math.log10(12.5), abs=1e-9)


def test_noise_variance_ar_clean_smooth_image(oracle_corpus):
    entry = oracle_corpus[0]
    clean = entry["gt"].clean
    estimate = estimate_noise_variance_ar(clean, 2)
    signal_var = float(np.var(clean.data))
    assert estimate <= 0.01 * signal_var


def test_noise_variance_ar_recovers_injected_variance(oracle_corpus):
    hits = 0
    total = 0
    for entry in oracle_corpus:
        if entry["truth"]["snr_target"] not in (2.0, 5.0):
            continue
        gt = entry["gt"]
        estimate = estimate_noise_variance_ar(gt.noisy, 2)
        total += 1
        if abs(estimate - gt.noise_energy) <= 0.15 * gt.noise_energy:
            hits += 1
    assert total >= 10 and hits == total


def test_noise_variance_ar_needs_lags_that_fit():
    with pytest.raises(DomainError, match="max_lag 3"):  # ar_order 2 reads lags 0..3
        estimate_noise_variance_ar(raster_from_array(np.ones((5, 5))), 2)


def test_noise_variance_ar_white_noise_only():
    from semsnr.noise import rng_for

    # without the 5% structure-free rule the two 128^2 Gaussian fields read
    # 0.92 and 0.98 of their variance
    fields = [rng_for(3, 1).uniform(50.0, 150.0, size=(256, 256))]
    fields += [rng_for(s, 7).normal(100.0, 10.0, (128, 128)) for s in (7, 10)]
    for arr in fields:
        estimate = estimate_noise_variance_ar(raster_from_array(arr), 2)
        assert estimate == pytest.approx(float(np.var(arr)), rel=1e-6), arr.shape


@pytest.mark.parametrize("order", [1, 2, 3])
def test_noise_variance_ar_is_acldr_on_the_lag_table(oracle_corpus, order):
    # one path: the blind variance is r(0) less acldr's predicted peak
    for entry in (oracle_corpus[0], oracle_corpus[12], oracle_corpus[53]):
        noisy = entry["gt"].noisy
        est = estimate_acldr(noisy, EstimatorConfig(acldr_order=order))
        assert est.status == "ok"
        expected = lag_table(noisy, 0, 0).x.value(0) - est.predicted_nf_peak
        assert estimate_noise_variance_ar(noisy, order) == pytest.approx(expected, rel=1e-12)


def test_ar_wiener_composition(oracle_corpus):
    entry = oracle_corpus[12]
    gt = entry["gt"]
    spec = parse_filter_spec("ar_wiener:ar_order=2,window=7")
    report = ar_wiener(gt.noisy, spec)
    standalone = estimate_noise_variance_ar(gt.noisy, 2)
    assert report.estimated_noise_variance == standalone
    # blind filtering lands near the oracle-informed filter
    informed = wiener_local(gt.noisy, 7, gt.noise_energy)
    assert mse(report.output, gt.clean) <= 1.10 * mse(informed.output, gt.clean)


def test_ar_wiener_zero_variance_is_identity():
    flat = raster_from_array(np.full((32, 32), 77.0))
    spec = parse_filter_spec("ar_wiener:ar_order=1,window=5")
    report = ar_wiener(flat, spec)
    assert report.estimated_noise_variance == 0.0
    assert np.array_equal(report.output.data, flat.data)


def test_filtering_raises_nn_snr(oracle_corpus):
    from semsnr.estimators import estimate_nn

    entry = oracle_corpus[8]
    gt = entry["gt"]
    report = wiener_local(gt.noisy, 7, gt.noise_energy)
    before = estimate_nn(gt.noisy, BENCH_CONFIG).snr_linear
    after = estimate_nn(report.output, BENCH_CONFIG).snr_linear
    assert after >= before


def test_gaussian_blur_helper_normalized():
    arr = np.zeros((21, 21))
    arr[10, 10] = 1.0
    out = gaussian_blur(arr, 2.0)
    assert out.sum() == pytest.approx(1.0, rel=1e-9)
