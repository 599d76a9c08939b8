"""Synthetic SEM-style images with exact SNR oracles, SNR estimators that
predict the noise-free autocorrelation peak, hardware yield-based SNR, and
classical denoising filters, plus a deterministic benchmark harness.
"""

from .correlation import (
    AcfCurve,
    CcfResult,
    autocorrelation,
    cross_correlate,
    snr_db,
    snr_from_peaks,
)
from .denoise import (
    DenoiseReport,
    FilterSpec,
    apply_filter,
    ar_wiener,
    estimate_noise_variance_ar,
    parse_filter_spec,
    spatial_filter,
    wiener_global,
    wiener_local,
)
from .estimators import (
    EstimatorConfig,
    SnrEstimate,
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
)
from .noise import (
    ELECTRON_CHARGE,
    GroundTruth,
    NoiseRecipe,
    simulate,
)
from .raster import ImageStats, Raster, load_pgm, quantize, raster_from_array, save_pgm, stats
from .yield_snr import (
    BeamParams,
    dose_per_pixel,
    snr_detected,
    snr_from_image,
    snr_yield,
)

__version__ = "0.1.0"
