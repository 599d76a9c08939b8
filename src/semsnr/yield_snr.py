"""Hardware-side SNR from beam parameters and electron yields.

The beam current and dwell time give the dose per pixel; with the secondary
or backscatter yield that predicts the emission-statistics SNR of each
channel (:func:`snr_yield`), which the detector quantum efficiency then
attenuates (:func:`snr_detected`).  The image-side counterpart,
:func:`snr_from_image`, reads the amplitude SNR off a flat field's mean, dark
offset and standard deviation.  A sweep's ``moment`` row is the one place
the two meet: the image-side value is its estimate and the emission law its
reference.
"""

from __future__ import annotations

import math

from .errors import DomainError

CHANNELS = ("PE", "BSE", "SE")
ELECTRON_CHARGE = 1.602176634e-19  # coulombs, 2019 SI exact value


def dose_per_pixel(i_pe: float, dwell: float) -> float:
    """Mean number of primary electrons per pixel, I_pe * dwell / e, from amperes and seconds."""
    if i_pe <= 0.0 or dwell <= 0.0:
        raise DomainError("beam current and dwell time must be positive")
    return i_pe * dwell / ELECTRON_CHARGE


def snr_yield(dose: float, channel: str, delta: float, eta: float,
              yield_inflation: float = 1.0) -> float:
    """Emission-statistics SNR per channel at ``dose`` primary electrons per pixel.

    PE: sqrt(dose).  BSE: sqrt(dose * eta), the Poisson-thinned beam.  SE:
    sqrt(dose / (1 + k / delta)) with k = ``yield_inflation``, where k = 1
    recovers the pure Poisson per-primary yield and k > 1 models materials
    with extra yield variance.
    """
    if channel not in CHANNELS:
        raise DomainError(f"channel must be one of {CHANNELS}, got {channel!r}")
    if dose <= 0.0:
        raise DomainError(f"dose must be positive, got {dose!r}")
    if yield_inflation < 1.0:
        raise DomainError(f"yield_inflation must be at least 1, got {yield_inflation!r}")
    if channel == "PE":
        return math.sqrt(dose)
    if channel == "BSE":
        if eta <= 0.0:
            raise DomainError("BSE channel needs a positive backscatter yield")
        return math.sqrt(dose * eta)
    if delta <= 0.0:
        raise DomainError("SE channel needs a positive secondary yield")
    return math.sqrt(dose / (1.0 + yield_inflation / delta))


def snr_detected(snr_yield_value: float, dqe: float) -> float:
    """Detected SNR after finite detector quantum efficiency, sqrt(DQE) * SNR."""
    if not (0.0 < dqe <= 1.0):
        raise DomainError("dqe must be in (0, 1]")
    if snr_yield_value < 0.0:
        raise DomainError("yield SNR must be nonnegative")
    return math.sqrt(dqe) * snr_yield_value


def snr_from_image(i_mean: float, i_dc: float, sigma: float) -> float:
    """Image-side SNR (mean - dark offset) / standard deviation."""
    if sigma < 0.0:
        raise DomainError("sigma must be nonnegative")
    if sigma == 0.0:
        raise DomainError("sigma is zero: SNR is degenerate")
    if i_mean <= i_dc:
        raise DomainError(f"mean intensity {i_mean} does not exceed dark offset {i_dc}")
    return (i_mean - i_dc) / sigma
