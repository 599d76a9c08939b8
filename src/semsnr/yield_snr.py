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
from dataclasses import dataclass

from .errors import DomainError
from .noise import ELECTRON_CHARGE

CHANNELS = ("PE", "BSE", "SE")


@dataclass(frozen=True)
class BeamParams:
    """Acquisition parameters for dose-based SNR predictions."""

    i_pe: float  # amperes
    dwell: float  # seconds per pixel
    b_enhancement: float = 1.0  # non-Poisson yield variance factor k >= 1

    def __post_init__(self):
        if self.i_pe <= 0.0 or self.dwell <= 0.0:
            raise DomainError("beam current and dwell time must be positive")
        if self.b_enhancement < 1.0:
            raise DomainError("b_enhancement must be at least 1")


def dose_per_pixel(b: BeamParams) -> float:
    """Mean number of primary electrons per pixel, I_pe * dwell / e."""
    return b.i_pe * b.dwell / ELECTRON_CHARGE


def snr_yield(b: BeamParams, delta: float = 0.0, eta: float = 0.0,
              channel: str = "SE") -> float:
    """Emission-statistics SNR per channel.

    PE: sqrt(dose).  BSE: sqrt(dose * eta), the Poisson-thinned beam.  SE:
    sqrt(dose / (1 + b)) with b = k / delta, where k = 1 recovers the pure
    Poisson per-primary yield and k > 1 models materials with extra yield
    variance.
    """
    if channel not in CHANNELS:
        raise DomainError(f"channel must be one of {CHANNELS}, got {channel!r}")
    dose = dose_per_pixel(b)
    if channel == "PE":
        return math.sqrt(dose)
    if channel == "BSE":
        if eta <= 0.0:
            raise DomainError("BSE channel needs a positive backscatter yield")
        return math.sqrt(dose * eta)
    if delta <= 0.0:
        raise DomainError("SE channel needs a positive secondary yield")
    b_factor = b.b_enhancement / delta
    return math.sqrt(dose / (1.0 + b_factor))


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
