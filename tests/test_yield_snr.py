import math

import numpy as np
import pytest

from semsnr.errors import DomainError
from semsnr.yield_snr import (
    ELECTRON_CHARGE,
    dose_per_pixel,
    snr_detected,
    snr_from_image,
    snr_yield,
)

# published silicon rows: delta, beam current (A), dwell-derived yield-side
# SNR, detected SNR, and the image-side (I_dc, I_mean, sigma) triple
SILICON_ROWS = [
    (0.16, 291e-12, 40, 19, 12.1, 68.0, 2.35, 24),
    (0.14, 371e-12, 42, 20, 12.3, 45.0, 1.72, 19),
    (0.09, 495e-12, 40, 19, 11.8, 41.0, 1.35, 22),
]


def test_dose_per_pixel():
    assert dose_per_pixel(ELECTRON_CHARGE, 1.0) == pytest.approx(1.0)
    dose = dose_per_pixel(291e-12, 6.39e-6)
    assert dose == pytest.approx(1.161e4, rel=1e-3)
    assert dose_per_pixel(291e-12, 2 * 6.39e-6) == pytest.approx(2 * dose)
    for i_pe, dwell in ((0.0, 1.0), (1e-10, -1e-6)):
        with pytest.raises(DomainError, match="must be positive"):
            dose_per_pixel(i_pe, dwell)


def test_snr_yield_channels():
    assert snr_yield(100.0, "PE", delta=0.0, eta=0.0) == pytest.approx(10.0)
    assert snr_yield(100.0, "BSE", delta=0.0, eta=0.25) == pytest.approx(5.0)
    dose291 = dose_per_pixel(291e-12, 6.39e-6)
    assert snr_yield(dose291, "SE", delta=0.16, eta=0.0) == pytest.approx(40.0, abs=0.05)
    with pytest.raises(DomainError):
        snr_yield(100.0, "AE", delta=0.16, eta=0.25)
    with pytest.raises(DomainError):
        snr_yield(100.0, "SE", delta=0.0, eta=0.0)
    with pytest.raises(DomainError, match="dose must be positive"):
        snr_yield(0.0, "PE", delta=0.16, eta=0.25)
    with pytest.raises(DomainError, match="yield_inflation must be at least 1"):
        snr_yield(100.0, "SE", delta=0.16, eta=0.25, yield_inflation=0.5)


def test_snr_detected():
    assert snr_detected(40.0, 0.23) == pytest.approx(19.18, abs=0.005)
    assert snr_detected(42.0, 0.23) == pytest.approx(20.14, abs=0.005)
    assert snr_detected(7.5, 1.0) == pytest.approx(7.5)
    with pytest.raises(DomainError):
        snr_detected(40.0, 0.0)


def test_snr_detected_ratio_invariant(rng):
    for _ in range(20):
        snr = float(rng.uniform(0.1, 100.0))
        dqe = float(rng.uniform(0.01, 1.0))
        assert snr_detected(snr, dqe) / snr == pytest.approx(math.sqrt(dqe), rel=1e-12)


def test_snr_from_image_rows():
    assert snr_from_image(68.0, 12.1, 2.35) == pytest.approx(23.79, abs=0.005)
    assert snr_from_image(45.0, 12.3, 1.72) == pytest.approx(19.01, abs=0.005)
    assert snr_from_image(41.0, 11.8, 1.35) == pytest.approx(21.63, abs=0.005)
    with pytest.raises(DomainError):
        snr_from_image(68.0, 12.1, 0.0)
    with pytest.raises(DomainError):
        snr_from_image(10.0, 12.0, 1.0)


def test_published_silicon_table_consistency():
    # dual path: sqrt(DQE) * yield-side values round to the detected column,
    # and the image-side triples round to their printed values
    for delta, i_pe, snr_se, snr_et, i_dc, i_mean, sigma, image_side in SILICON_ROWS:
        assert round(snr_detected(snr_se, 0.23)) == snr_et
        assert round(snr_from_image(i_mean, i_dc, sigma)) == image_side


def test_se_yield_snr_matches_simulation():
    # cross-module consistency: the analytic secondary-electron SNR with k=1
    # agrees with the compound-Poisson simulator's measured moments
    from semsnr.noise import NoiseRecipe, simulate

    dose = 100.0
    analytic = snr_yield(dose, "SE", delta=0.16, eta=0.0, yield_inflation=1.0)
    recipe = NoiseRecipe(dose_map=np.full((256, 256), dose), emission_model="poisson-se",
                         se_yield=0.16, seed=55, bit_depth=16)
    x = simulate(recipe).noisy.data
    measured = float(x.mean() / x.std())
    assert abs(measured - analytic) <= 0.05 * analytic

