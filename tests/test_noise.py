import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import HANDS_OVER_ARGUMENTS, traced_peak
from semsnr.errors import DomainError
from semsnr.noise import (
    NoiseRecipe,
    recipe_from_text,
    recipe_to_text,
    simulate,
)
from semsnr.raster import raster_from_array


def flat_recipe(dose, model, size=256, **kw):
    return NoiseRecipe(dose_map=np.full((size, size), float(dose)),
                       emission_model=model, bit_depth=16, **kw)


def test_none_model_is_noiseless():
    gt = simulate(flat_recipe(100, "none", size=32))
    assert np.array_equal(gt.noisy.data, gt.clean.data)
    assert gt.noise_energy == 0.0
    assert math.isinf(gt.true_snr)


def test_determinism_bit_identical():
    r = flat_recipe(50, "poisson-se", size=64, seed=11)
    a, b = simulate(r), simulate(r)
    assert np.array_equal(a.noisy.data, b.noisy.data)
    assert a.true_snr == b.true_snr
    c = simulate(flat_recipe(50, "poisson-se", size=64, seed=12))
    assert not np.array_equal(a.noisy.data, c.noisy.data)


def test_poisson_pe_moments_and_snr():
    gt = simulate(flat_recipe(100, "poisson-pe", seed=42))
    x = gt.noisy.data
    n = x.size
    # sample mean within 3 standard errors of the dose
    assert abs(x.mean() - 100.0) <= 3.0 * math.sqrt(100.0 / n)
    assert abs(x.var() - 100.0) <= 0.05 * 100.0
    measured_snr = x.mean() / x.std()
    assert abs(measured_snr - 10.0) <= 0.03 * 10.0


def test_compound_poisson_se_moments():
    # per-pixel secondary count: mean delta*dose, variance delta*dose*(1+delta)
    gt = simulate(flat_recipe(100, "poisson-se", se_yield=0.16, seed=7))
    x = gt.noisy.data
    assert abs(x.mean() - 16.0) <= 3.0 * math.sqrt(18.56 / x.size)
    assert abs(x.var() - 18.56) <= 0.05 * 18.56
    predicted = math.sqrt(100.0 / (1.0 + 1.0 / 0.16))
    assert abs(x.mean() / x.std() - predicted) <= 0.05 * predicted


def test_binomial_bse_moments():
    gt = simulate(flat_recipe(100, "binomial-bse", bse_yield=0.30, seed=9))
    x = gt.noisy.data
    assert abs(x.mean() - 30.0) <= 3.0 * math.sqrt(30.0 / x.size)
    # thinned Poisson: variance equals the mean
    assert abs(x.var() - 30.0) <= 0.05 * 30.0


def test_yield_inflation_negative_binomial():
    k = 1.5
    gt = simulate(flat_recipe(100, "poisson-se", se_yield=0.16, yield_inflation=k, seed=3))
    x = gt.noisy.data
    predicted = math.sqrt(100.0 / (1.0 + k / 0.16))
    assert abs(x.mean() / x.std() - predicted) <= 0.05 * predicted


@pytest.mark.parametrize("block", [1, 300, 8192])
def test_inflated_draw_in_blocks_of_rows_is_the_whole_plane_draw(block, monkeypatch):
    # a block larger than the plane draws it in one call, as before it was
    # blocked; one-row blocks, blocks that end mid-plane and low doses (many
    # zero means, which draw nothing) must read the same generator stream
    import semsnr.noise as noise

    def acquire():
        dose = np.random.default_rng(2).uniform(0.5, 30.0, (200, 120))
        return simulate(NoiseRecipe(dose_map=dose, emission_model="poisson-se",
                                    yield_inflation=1.7, dc_offset=5.0, seed=11))

    monkeypatch.setattr(noise, "_DRAW_BLOCK", 1 << 40)
    whole = acquire()
    monkeypatch.setattr(noise, "_DRAW_BLOCK", block)
    blocked = acquire()
    assert np.array_equal(blocked.noisy.data, whole.noisy.data)
    assert (blocked.signal_energy, blocked.noise_energy) == (whole.signal_energy,
                                                             whole.noise_energy)


@pytest.mark.parametrize("model,kw", [
    ("poisson-pe", {}),
    ("poisson-se", {"se_yield": 0.2}),
    ("binomial-bse", {"bse_yield": 0.4}),
    ("additive-gaussian", {"gaussian_sigma": 4.0}),
])
def test_noise_is_zero_mean(model, kw):
    gt = simulate(flat_recipe(400, model, seed=21, dc_offset=100.0, **kw))
    diff = gt.noisy.data - gt.clean.data
    stderr = diff.std() / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.0 * max(stderr, 0.5)  # quantization floor half a count


@pytest.mark.parametrize("model, kw", [
    ("additive-gaussian", {"gaussian_sigma": 40.0}),
    ("poisson-pe", {}),
    ("poisson-se", {}),
    ("binomial-bse", {}),
    ("none", {}),
    ("poisson-se", {"yield_inflation": 1.5}),
])
def test_simulate_holds_four_planes_with_its_dose_map(model, kw):
    # clean is rounded in its work plane and a float counts plane in place:
    # dose map, clean, noisy and one deviation plane (it was 4.1 for every model);
    # the inflated poisson-se draw writes into its mean plane one block of rows
    # at a time (4.01 planes; 6.13 when it drew the whole plane at once)
    recipe = NoiseRecipe(dose_map=np.random.default_rng(5).uniform(2e3, 4e3, (256, 256)),
                         emission_model=model, dc_offset=100.0, **kw)
    limit = 4.25
    simulate(recipe)
    tracemalloc.start()
    try:
        simulate(recipe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = recipe.dose_map.nbytes
    assert peak + plane <= limit * plane, (peak + plane) / plane


@HANDS_OVER_ARGUMENTS
@pytest.mark.parametrize("model, kw", [
    ("additive-gaussian", {"gaussian_sigma": 40.0}),
    ("poisson-pe", {}),
    ("poisson-se", {}),
    ("binomial-bse", {}),
    ("none", {}),
    ("poisson-se", {"yield_inflation": 1.5}),
])
def test_simulate_holds_three_planes_with_a_handed_over_recipe(model, kw):
    # the noisy plane is made first and the dose map freed before the
    # deviation plane: dose, draws and float counts, then clean, noisy and
    # deviation (additive 3.00, counting models 3.03 at 512², 3.13 at 256²
    # with the dose map made in the traced call); the inflated poisson-se
    # draw's blocks of rows stay below that (3.13 at 256²; 6.13 unblocked)
    def recipe():
        return NoiseRecipe(dose_map=np.random.default_rng(5).uniform(2e3, 4e3, (256, 256)),
                           emission_model=model, dc_offset=100.0, **kw)

    plane = 256 * 256 * 8
    peak = traced_peak(lambda: simulate(recipe()))
    assert peak <= 3.25 * plane, peak / plane


@pytest.mark.parametrize("model", ["additive-gaussian", "poisson-pe", "none"])
def test_simulate_leaves_a_kept_recipe_whole(model):
    def recipe():
        return NoiseRecipe(dose_map=np.random.default_rng(8).uniform(2e3, 4e3, (64, 48)),
                           emission_model=model, gaussian_sigma=30.0, seed=4)

    kept = recipe()
    dose = kept.dose_map.copy()
    a, b = simulate(kept), simulate(recipe())
    assert np.array_equal(kept.dose_map, dose)
    assert np.array_equal(a.clean.data, b.clean.data)
    assert np.array_equal(a.noisy.data, b.noisy.data)
    assert (a.signal_energy, a.noise_energy) == (b.signal_energy, b.noise_energy)


def test_oracle_energies_consistent():
    rng_dose = np.abs(np.random.Generator(np.random.Philox(5)).normal(200, 40, (64, 64))) + 1
    gt = simulate(NoiseRecipe(dose_map=rng_dose, emission_model="poisson-pe", seed=2, bit_depth=16))
    assert gt.noise_energy > 0
    assert gt.true_snr == pytest.approx(gt.signal_energy / gt.noise_energy)
    assert gt.signal_energy == pytest.approx(float(np.var(gt.clean.data)))


def test_recipe_validation():
    with pytest.raises(DomainError):
        NoiseRecipe(dose_map=np.zeros((4, 4)))
    with pytest.raises(DomainError):
        flat_recipe(10, "laplacian")
    with pytest.raises(DomainError):
        flat_recipe(10, "poisson-se", se_yield=0.0)
    with pytest.raises(DomainError):
        flat_recipe(10, "binomial-bse", bse_yield=1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 0.0])
def test_dose_map_rejects_nonfinite_and_nonpositive_with_its_message(bad):
    dose = np.full((4, 4), 10.0)
    dose[3, 0] = bad
    with pytest.raises(DomainError, match="^dose_map must be finite and positive everywhere$"):
        NoiseRecipe(dose_map=dose)


# every NoiseRecipe field but the dose map, each away from its default
RECIPE_FIELDS = dict(emission_model="binomial-bse", se_yield=0.2, bse_yield=0.45,
                     yield_inflation=1.5, gaussian_sigma=2.25, detector_gain=3.5,
                     dc_offset=17.0, seed=99, bit_depth=8)


def assert_same_recipe(again, recipe):
    assert set(RECIPE_FIELDS) | {"dose_map"} == {f.name for f in fields(NoiseRecipe)}
    for f in fields(NoiseRecipe):
        if f.name == "dose_map":
            assert np.array_equal(again.dose_map, recipe.dose_map)
        else:
            assert getattr(recipe, f.name) != f.default, f.name
            assert getattr(again, f.name) == getattr(recipe, f.name), f.name


_BASIS = raster_from_array(np.arange(16, dtype=float).reshape(4, 4), bit_depth=16)


def test_recipe_text_round_trip_pgm_reference():
    recipe = NoiseRecipe(dose_map=0.5 * _BASIS.data + 10.0, **RECIPE_FIELDS)
    text = recipe_to_text(recipe, dose_pgm="basis.pgm", dose_scale=0.5, dose_offset=10.0)
    assert_same_recipe(recipe_from_text(text, dose_loader=lambda name: _BASIS), recipe)


_RECIPE_TEXT = recipe_to_text(NoiseRecipe(dose_map=0.5 * _BASIS.data + 10.0, seed=7),
                              dose_pgm="basis.pgm", dose_scale=0.5, dose_offset=10.0)


@pytest.mark.parametrize("old,new,message", [
    ("seed = 7", "seed = abc", "line 8: bad value for seed"),
    ("width = 4", "width = 3.5", "line 10: bad value for width"),
    ("se_yield = 0.16", "se_yield = high", "line 2: bad value for se_yield"),
    ("height = 4\n", "", "no 'height' line"),
    ("bit_depth = 16\n", "", "no 'bit_depth' line"),
    ("dose_pgm = basis.pgm\n", "", "no 'dose_pgm' line"),
    ("dose_pgm = basis.pgm\n", "dose_constant = 50.0\ndose_pgm = basis.pgm\n",
     "line 12: unknown key 'dose_constant'"),
    ("seed = 7", "seed 7", "line 8: expected 'key = value'"),
    ("se_yield = 0.16", "se_yield = 2.0", "se_yield must be in"),
    ("dc_offset = 0.0", "dc_offset = inf",
     "line 7: bad value for dc_offset: 'inf' is not a finite number"),
    ("dose_scale = 0.5", "dose_scale = nan", "line 13: bad value for dose_scale"),
    ("seed = 7", "seed = 7\nseed = 8", "line 9: key 'seed' is given twice"),
], ids=["int", "int_shape", "float", "no_height", "no_field", "no_dose",
        "dose_constant_is_unknown", "no_equals", "out_of_rule", "non_finite", "non_finite_dose",
        "repeated_key"])
def test_malformed_recipe_text_is_domain_error(old, new, message):
    assert old in _RECIPE_TEXT
    assert recipe_from_text(_RECIPE_TEXT, dose_loader=lambda name: _BASIS).seed == 7
    with pytest.raises(DomainError, match=re.escape(message)):
        recipe_from_text(_RECIPE_TEXT.replace(old, new, 1), dose_loader=lambda name: _BASIS)


def test_recipe_shape_must_match_the_dose_pgm():
    basis = raster_from_array(np.arange(15, dtype=float).reshape(5, 3), bit_depth=16)
    text = recipe_to_text(NoiseRecipe(dose_map=np.full((4, 4), 50.0), **RECIPE_FIELDS),
                          dose_pgm="basis.pgm", dose_scale=0.5, dose_offset=10.0)
    with pytest.raises(DomainError, match=re.escape(
            "recipe shape 4x4 (width x height) does not match the dose PGM's 3x5")):
        recipe_from_text(text, dose_loader=lambda name: basis)


def test_recipe_text_rejects_unknown_key():
    with pytest.raises(DomainError, match="unknown key"):
        recipe_from_text("emission_model = none\nwobble = 3\n", dose_loader=lambda name: _BASIS)
