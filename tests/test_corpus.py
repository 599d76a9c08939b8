import hashlib
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import HANDS_OVER_ARGUMENTS, traced_peak
from semsnr import corpus
from semsnr.corpus import (
    CorpusSpec,
    SceneSpec,
    _spectral_amplitude,
    _spectral_field,
    generate_corpus,
    make_scene,
    read_csv,
    reference_corpus_spec,
    regenerate_image,
    second_realization,
)
from semsnr.errors import ConfigError, DomainError
from semsnr.noise import rng_for


def _spectral_field_full_complex(h, w, corr_length, nugget, rng):
    """The full-spectrum synthesis that the cached half-spectrum path replaced."""
    dy = np.minimum(np.arange(h), h - np.arange(h))[:, None]
    dx = np.minimum(np.arange(w), w - np.arange(w))[None, :]
    radius = np.hypot(dy, dx)
    smooth_psd = np.fft.fft2(np.exp(-radius / corr_length)).real
    psd = (1.0 - nugget) * np.maximum(smooth_psd, 0.0) + nugget
    amplitude = np.sqrt(psd)
    amplitude[0, 0] = 0.0
    white = np.fft.fft2(rng.standard_normal((h, w)))
    magnitude = np.abs(white)
    phases = np.where(magnitude > 0.0, white / np.where(magnitude > 0.0, magnitude, 1.0), 1.0)
    field_ = np.fft.ifft2(amplitude * phases).real
    field_ = field_ - field_.mean(axis=0, keepdims=True)
    field_ = field_ - field_.mean(axis=1, keepdims=True)
    return field_


@pytest.mark.parametrize("h,w,corr_length", [(512, 512, 110.0), (97, 64, 9.0), (64, 97, 9.0)])
def test_spectral_field_matches_full_complex_formula(h, w, corr_length):
    for stream in range(3):
        got = _spectral_field(h, w, corr_length, 0.004, rng_for(17, stream))
        ref = _spectral_field_full_complex(h, w, corr_length, 0.004, rng_for(17, stream))
        assert got.shape == (h, w)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _spectral_field_numpy_rfft2(h, w, corr_length, nugget, rng):
    """_spectral_field on NumPy's rfft2/irfft2, which make a complex plane per pass."""
    amplitude = _spectral_amplitude(h, w, corr_length, nugget)
    spectrum = np.fft.rfft2(rng.standard_normal((h, w)))
    magnitude = np.abs(spectrum)
    with np.errstate(divide="ignore", invalid="ignore"):
        spectrum /= magnitude
    spectrum[magnitude == 0.0] = 1.0
    spectrum *= amplitude
    field_ = np.fft.irfft2(spectrum, s=(h, w))
    field_ -= field_.mean(axis=0, keepdims=True)
    field_ -= field_.mean(axis=1, keepdims=True)
    return field_


@pytest.mark.parametrize("h,w", [(512, 512), (130, 97), (97, 130), (33, 2), (2, 33), (7, 5)])
def test_spectral_field_equals_the_numpy_rfft2_form(h, w):
    dy = np.minimum(np.arange(h), h - np.arange(h))[:, None]
    dx = np.minimum(np.arange(w), w - np.arange(w))[None, :]
    smooth_psd = np.fft.rfft2(np.exp(-np.hypot(dy, dx) / 9.0)).real
    amplitude = np.sqrt(0.996 * np.maximum(smooth_psd, 0.0) + 0.004)
    amplitude[0, 0] = 0.0
    assert np.array_equal(_spectral_amplitude(h, w, 9.0, 0.004), amplitude)
    for stream in range(2):
        got = _spectral_field(h, w, 9.0, 0.004, rng_for(17, stream))
        assert np.array_equal(got, _spectral_field_numpy_rfft2(h, w, 9.0, 0.004,
                                                               rng_for(17, stream)))


def test_spectral_make_scene_keeps_few_planes():
    # the white-noise plane, the half spectrum and its magnitude; NumPy's
    # rfft2/irfft2 made one complex plane more per pass and peaked at 3.01 planes
    spec = SceneSpec(kind="spectral", width=512, height=512, corr_length=110.0)
    make_scene(spec, rng_for(3, 0))  # fills the amplitude cache
    plane = spec.width * spec.height * 8
    tracemalloc.start()
    try:
        make_scene(spec, rng_for(3, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * plane, peak / plane


def test_cached_amplitude_is_read_only_half_spectrum():
    amplitude = _spectral_amplitude(64, 97, 9.0, 0.004)
    assert amplitude.shape == (64, 97 // 2 + 1)
    assert _spectral_amplitude(64, 97, 9.0, 0.004) is amplitude
    with pytest.raises(ValueError):
        amplitude[1, 1] = 0.0


@pytest.mark.parametrize("key", [(65, 97, 9.0, 0.004), (64, 96, 9.0, 0.004),
                                 (64, 97, 9.5, 0.004), (64, 97, 9.0, 0.01)],
                         ids=["h", "w", "corr_length", "nugget"])
def test_each_cache_key_value_changes_the_amplitude(key):
    base = _spectral_amplitude(64, 97, 9.0, 0.004)
    other = _spectral_amplitude(*key)
    assert other.shape != base.shape or not np.array_equal(other, base)


def test_make_scene_is_deterministic_per_stream():
    spec = SceneSpec(kind="spectral", width=97, height=64, corr_length=9.0)
    first = make_scene(spec, rng_for(3, 1))
    assert np.array_equal(first, make_scene(spec, rng_for(3, 1)))
    assert not np.array_equal(first, make_scene(spec, rng_for(3, 2)))
    assert first.min() == 0.0 and first.max() == 1.0


def _small_spec(kind, model, corr_length=8.0, **kw):
    return CorpusSpec(scene=SceneSpec(kind=kind, width=96, height=64, corr_length=corr_length),
                      model=model, snr_targets=(5.0, 20.0), seeds_per_level=1, base_seed=3, **kw)


PINNED_SPECS = {
    "ar_field-poisson-se": _small_spec("ar_field", "poisson-se"),
    "blobs-binomial-bse-8bit": _small_spec("blobs", "binomial-bse", bit_depth=8, dc_offset=20.0),
    "ramp-poisson-pe": _small_spec("ramp", "poisson-pe"),
    "constant-none": _small_spec("constant", "none"),
    "spectral-poisson-se-inflated": _small_spec("spectral", "poisson-se", corr_length=9.0,
                                                yield_inflation=1.5),
    "reference-512": replace(reference_corpus_spec(seeds_per_level=1), snr_targets=(1.0,)),
}

# SHA-256 of every file generate_corpus writes for each spec above, recorded
# before the scene, acquisition, quantize and PGM paths were rewritten in place
CORPUS_SHA256 = {
    'ar_field-poisson-se': {
        'img0000.clean.pgm': '4adfaae51ef9d8476e4775e92859d122e03c268052ec47ec6f8f4d8b275ddcf7',
        'img0000.noisy.pgm': '8e8d87dabf18df672b279af91b4fbbf0fe81e401653bfe15c9f6016d52646a9b',
        'img0000.recipe.txt': '5b6170e5ea6742756ec85b3588b4c60c1b14071ea8f2a1779e676b16d284a353',
        'img0000.scene.pgm': 'fd2785018642e35bd39b41c56fd9fc591028d26f0347a8de05b3548b3c07b503',
        'img0001.clean.pgm': '251eea0e29ec335635ecb47e37ee02c66be8f04e53057d1a89325b4c11f19fa2',
        'img0001.noisy.pgm': '88db511994fbaa00f5b185f76eb863495a693c5d1f8d63a56740b608ce2d9582',
        'img0001.recipe.txt': 'da856eedc576bb7b33b9d8ed32179b71ec2804ddf4db0899bc7c942a48ad29f8',
        'img0001.scene.pgm': 'b4404fc6efa5bb585adf04cdf8deb698872c3846def9746da8bfc1cc1eb35794',
        'manifest.txt': 'a77585cd66fbfc0ef269211565e62e0ea847b865178aedb93b79e09207634afb',
        'truth.csv': '693ed48348a9df05f5e96b68bead9d6269164154df22d8b655b718e4c45c776d',
    },
    'blobs-binomial-bse-8bit': {
        'img0000.clean.pgm': 'c6e879755650202f2a9d2f7eac1a3c1c99fc186095e790d94d6d10e436de5369',
        'img0000.noisy.pgm': 'dd6843cfa2d5675ffa36085637ace9af3bec64bcce39f722aea3180a0ac14908',
        'img0000.recipe.txt': 'cadc1ace3d1a80ed4f4330165211c05b3e8265292217511a42c5931c4f563422',
        'img0000.scene.pgm': '06c92ecafcb1732199b2ffb208fabdfd67982af27e24d0824d0ad207bad14a72',
        'img0001.clean.pgm': '11b475b7b2f8b1fa8c8a60b65f94207679664a24efe470bbfa77352e142bdbeb',
        'img0001.noisy.pgm': 'fee7bde3ba950a181316b919e8e7def9494fd666d8a1e4b381fa50a28d0cd886',
        'img0001.recipe.txt': 'e57ad6bae31e63be24e0494e71f9cbdb56188428b9d8bcb59a750a05118bb569',
        'img0001.scene.pgm': '81e702fca8ff4e36f5fea51b443ff6fa05cc1b1bc180adb12d2baec7450046de',
        'manifest.txt': 'fd37a33f362cc2188a11a8ec35ebb1bc54d5b02eb961d221b495acc1c76a704c',
        'truth.csv': '7acd8206734239270ed3775a452fcccdcec95249b2655119d5a6d4eb11018a33',
    },
    'ramp-poisson-pe': {
        'img0000.clean.pgm': 'b55bf7bcdb1da481259b813de06d7a880d9fd9db11c35e3ae4122076b2305e0f',
        'img0000.noisy.pgm': '912dd8e5174cf96e7a8e7389c5635a12edaffa1fb683382d66c51dc79c7a9656',
        'img0000.recipe.txt': '589424a9b1b98e86a47c96158fe429265744398de55512b6e45be97a84e0b7e1',
        'img0000.scene.pgm': '72a75349cc57a2455a6c8719a266d0303e63b010fa081deebbd1de8a089546cb',
        'img0001.clean.pgm': 'b55bf7bcdb1da481259b813de06d7a880d9fd9db11c35e3ae4122076b2305e0f',
        'img0001.noisy.pgm': '5ea69404bafe53e7c70b9a8e695223b556907a59acc2c9cfc6dac292182c852e',
        'img0001.recipe.txt': '444b11672bbe9c6fe4c7a3aa3612e05458b1d2513f305208639d24844a1dcedd',
        'img0001.scene.pgm': '72a75349cc57a2455a6c8719a266d0303e63b010fa081deebbd1de8a089546cb',
        'manifest.txt': '86f3d49db7ba206dbf5b0d525106a5dacbee7a34675feef73fe391272426ddc4',
        'truth.csv': '247ffec3216422209af79fd29ee7122bd618c892c018cbb1976a78402cf5113e',
    },
    'constant-none': {
        'img0000.clean.pgm': '8396d149def4b578171b8c9d35e8258b115f6e9530f365b0351489994eae0e59',
        'img0000.noisy.pgm': '8396d149def4b578171b8c9d35e8258b115f6e9530f365b0351489994eae0e59',
        'img0000.recipe.txt': '7ec36bb40db9f66c164f106a58dcf26d6ae700a073a7733197509a22d78b9509',
        'img0000.scene.pgm': '31269363a2b109b0e5368b35576579ad0a0572c78a9a8b5a6bd3d9b81cb9a83a',
        'img0001.clean.pgm': '8396d149def4b578171b8c9d35e8258b115f6e9530f365b0351489994eae0e59',
        'img0001.noisy.pgm': '8396d149def4b578171b8c9d35e8258b115f6e9530f365b0351489994eae0e59',
        'img0001.recipe.txt': '0d0feabd946f08fdc213535f472ed8f3b2adf25c2a0e9ff38ce0a2893779049a',
        'img0001.scene.pgm': '31269363a2b109b0e5368b35576579ad0a0572c78a9a8b5a6bd3d9b81cb9a83a',
        'manifest.txt': 'dbf0cc28ad2483ac4ceefe9c5c30c09cde892c7cb70c2efc6c7904b8a12f7c3d',
        'truth.csv': 'ef6f9d77a5590d7c9a193184bdd7f6c3a2419df4975e57c5c9b2b40d731abb5b',
    },
    'spectral-poisson-se-inflated': {
        'img0000.clean.pgm': 'bd7394c9011d219b4ac09fe64127a89ddb32f3154fbd5e4d8eb7dbb0429822f3',
        'img0000.noisy.pgm': '1a199dd94bb5d0d38431fe9f710f0d91b374980423f0475581c4f685a087bd81',
        'img0000.recipe.txt': '93286f055e95cb3bd1ae0cf9f3abc164bb3828625e4366a59471d0e9e5abcbfe',
        'img0000.scene.pgm': '34aa446b1f99189cc2f74c453c4afa68ff69bd1b142c5abe90b0f81f2e10e07b',
        'img0001.clean.pgm': '14de342bb58967a1ebd7984d44c036f35114f36f927c78967cc3100d80d45595',
        'img0001.noisy.pgm': 'dab0b082ddd60920067a8e1322e41240f45fd7b2f4a66efbae7966874a0f30a9',
        'img0001.recipe.txt': '92504c95094d7d35d36692c68706b59ea66af0fca64ca64909a5ae2756707006',
        'img0001.scene.pgm': '63b576f231ed0dcef31db94fe98e48cc5793212979959ed84ba3abea70b8d550',
        'manifest.txt': 'b46d51b427b76d2ce804c4b85baf6145780dc21a14658568f354307cd7e17d8e',
        'truth.csv': 'ff9955a00372655142fe6a03b726b0b6098c6311e4ed6634f3b3df2a0d107407',
    },
    'reference-512': {
        'img0000.clean.pgm': '29fc80c74268023c8a05cc6ac597d949e53df5f9a21463d281688addcf511be6',
        'img0000.noisy.pgm': 'bfd2bf73b831a9ad7bfd0a4ca0db93ab27ea7da8e942b86de0b1494350ede8e4',
        'img0000.recipe.txt': '5b37b9785068a5aaa33e473e1a6d6d29be826d30e08b982e6833b80059d6d77c',
        'img0000.scene.pgm': 'b3a2706fd0116a237f7dd342a2be0f2a9c0f98f427f1e8cd730f05127be0e2dc',
        'manifest.txt': '11ce304747e8f388109170c4db8dc5facace62b2e45a516f4394129ea5e4899c',
        'truth.csv': '998a259fad9e3d1e989a415e3ea71702806040c3c769cf6bbfd67e9967528629',
    },
}


def _digests(corpus_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in corpus_dir.iterdir()}


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_generated_corpus_files_are_pinned(tmp_path, name):
    generate_corpus(PINNED_SPECS[name], tmp_path)
    assert _digests(tmp_path) == CORPUS_SHA256[name]


@pytest.mark.parametrize("jobs", [2, 3, None, 8])
@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_generated_corpus_files_are_pinned_for_every_jobs(tmp_path, name, jobs):
    generate_corpus(PINNED_SPECS[name], tmp_path, jobs=jobs)
    assert _digests(tmp_path) == CORPUS_SHA256[name]


def test_generate_jobs_keep_index_order(tmp_path):
    spec = replace(_small_spec("spectral", "additive-gaussian", corr_length=9.0),
                   snr_targets=(2.0, 5.0, 20.0), seeds_per_level=3)
    ids = [f"img{i:04d}" for i in range(9)]
    for jobs in (1, 2, 3):
        rows = generate_corpus(spec, tmp_path / str(jobs), jobs=jobs)
        assert [row["image_id"] for row in rows] == ids
        assert [row["image_id"] for row in read_csv(tmp_path / str(jobs) / "truth.csv")] == ids
        manifest = (tmp_path / str(jobs) / "manifest.txt").read_text(encoding="ascii")
        assert [line.split()[2] for line in manifest.splitlines()
                if line.startswith("image = ")] == ids
        assert _digests(tmp_path / str(jobs)) == _digests(tmp_path / "1")


@pytest.mark.parametrize("jobs", [0, -1])
def test_generate_jobs_below_one_is_config_error(tmp_path, jobs):
    with pytest.raises(ConfigError, match=f"^jobs must be at least 1, got {jobs}$"):
        generate_corpus(_small_spec("ramp", "poisson-pe"), tmp_path / "out", jobs=jobs)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,detector", [
    ("additive-gaussian", {}),
    ("none", {}),
    ("poisson-pe", {}),
    ("poisson-se", {"se_yield": 0.5, "detector_gain": 2.0}),
    ("binomial-bse", {"bse_yield": 0.25, "detector_gain": 4.0}),
])
def test_spec_whose_clean_top_would_clamp_is_config_error(model, detector):
    # dose_max * count yield * gain is 50 for every model; the 8-bit maximum is 255,
    # and quantize rounds a top below 255.5 to it
    at_max = _small_spec("ramp", model, dose_min=10.0, dose_max=50.0, dc_offset=205.0,
                         bit_depth=8, **detector)
    replace(at_max, dc_offset=205.4999)
    with pytest.raises(ConfigError, match=r"^the clean intensity at dose_max is 255\.5, .*"
                                          r"the 8-bit maximum 255$"):
        replace(at_max, dc_offset=205.5)
    with pytest.raises(ConfigError, match=r"is 65536\.0, .* 16-bit maximum 65535$"):
        replace(at_max, bit_depth=16, dc_offset=65486.0)


def test_failing_image_stops_the_generate_pass(tmp_path, monkeypatch):
    spec = replace(_small_spec("ramp", "poisson-pe"), seeds_per_level=6)  # 12 images
    started = []
    real_basis = corpus.scene_basis

    def basis(spec_, index):
        started.append(index)
        if index == 0:
            raise DomainError("bad image")
        time.sleep(0.05)  # leaves the main thread time to cancel the rest
        return real_basis(spec_, index)

    monkeypatch.setattr(corpus, "scene_basis", basis)
    with pytest.raises(DomainError, match="^bad image$"):
        generate_corpus(spec, tmp_path, jobs=1)
    assert len(started) <= 3, started  # not the 12 a pass that ran every task would acquire
    assert not (tmp_path / "truth.csv").exists()


def test_one_reference_image_holds_four_planes(tmp_path):
    # the scene basis is written and dropped before the noise is simulated,
    # and simulate rounds in its own work planes: the dose map, the clean and
    # noisy planes and one deviation plane (it was 5.1 planes)
    spec = replace(reference_corpus_spec(seeds_per_level=1), snr_targets=(2.0,))
    corpus._write_image(spec, 0, tmp_path)  # fills the caches
    plane = spec.scene.width * spec.scene.height * 8
    tracemalloc.start()
    try:
        corpus._write_image(spec, 0, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * plane, peak / plane


@HANDS_OVER_ARGUMENTS
def test_one_reference_image_holds_three_planes(tmp_path):
    # no name in _write_image holds the recipe, so simulate frees the dose map
    # before it makes its deviation plane: clean, noisy and deviation
    spec = replace(reference_corpus_spec(seeds_per_level=1), snr_targets=(2.0,))
    plane = spec.scene.width * spec.scene.height * 8
    peak = traced_peak(lambda: corpus._write_image(spec, 0, tmp_path))
    assert peak <= 3.25 * plane, peak / plane


@HANDS_OVER_ARGUMENTS
@pytest.mark.parametrize("reader", [regenerate_image, second_realization])
def test_a_recipe_read_back_holds_three_planes(tmp_path, reader):
    # the read recipe goes straight to simulate, which frees its dose map
    spec = replace(reference_corpus_spec(seeds_per_level=1), snr_targets=(2.0,))
    generate_corpus(spec, tmp_path, jobs=1)
    plane = spec.scene.width * spec.scene.height * 8
    peak = traced_peak(lambda: reader(tmp_path, "img0000"))
    assert peak <= 3.25 * plane, peak / plane


def test_serial_generate_keeps_one_image_alive(tmp_path):
    # the kept planes of one image are its basis, dose map, clean and noisy
    # planes; acquiring an image while the previous one is still referenced
    # peaks near 2.8 of those
    spec = CorpusSpec(scene=SceneSpec(kind="spectral", width=128, height=128, corr_length=9.0),
                      snr_targets=(5.0, 20.0), seeds_per_level=2, base_seed=3)
    generate_corpus(replace(spec, seeds_per_level=1), tmp_path / "warm")  # fills the caches
    kept = 4 * spec.scene.width * spec.scene.height * 8
    tracemalloc.start()
    try:
        generate_corpus(spec, tmp_path / "corpus", jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * kept, peak / kept
