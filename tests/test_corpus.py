import numpy as np
import pytest

from semsnr.corpus import SceneSpec, _spectral_amplitude, _spectral_field, make_scene
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
