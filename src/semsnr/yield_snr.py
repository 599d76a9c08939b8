"""Hardware-side SNR from beam parameters and electron yields.

Specimen-current measurements under reversed holder bias give the secondary
and backscatter yields; together with the dose per pixel they predict the
achievable SNR per emission channel, attenuated by the detector quantum
efficiency.  The image-side counterpart reads SNR directly from the mean,
the dark offset, and the intensity standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistentCurrentsError, SingularFitError
from .noise import ELECTRON_CHARGE

CHANNELS = ("PE", "BSE", "SE")


@dataclass(frozen=True)
class YieldMeasurement:
    """Specimen currents measured with the holder biased positive and negative."""

    i_pe: float  # primary beam current, amperes
    i_sc_pos: float  # specimen current at positive bias
    i_sc_neg: float  # specimen current at negative bias

    def __post_init__(self):
        if self.i_pe <= 0.0:
            raise DomainError("beam current must be positive")


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


def yields_from_currents(m: YieldMeasurement) -> tuple[float, float]:
    """Secondary and backscatter yields (delta, eta) from the current balance.

    delta = (I_sc,+ - I_sc,-) / I_pe and eta = (I_pe - I_sc,+) / I_pe; the
    third-generation secondary current is neglected (it contributes a few
    percent at most in a shielded setup).
    """
    if m.i_sc_pos < m.i_sc_neg:
        raise InconsistentCurrentsError(
            f"positive-bias current {m.i_sc_pos} below negative-bias current {m.i_sc_neg}"
        )
    if m.i_sc_pos > m.i_pe:
        raise InconsistentCurrentsError(
            f"specimen current {m.i_sc_pos} exceeds beam current {m.i_pe}"
        )
    delta = (m.i_sc_pos - m.i_sc_neg) / m.i_pe
    eta = (m.i_pe - m.i_sc_pos) / m.i_pe
    return delta, eta


def currents_from_yields(i_pe: float, delta: float, eta: float) -> YieldMeasurement:
    """Inverse of :func:`yields_from_currents`, for round-trip checks."""
    return YieldMeasurement(
        i_pe=i_pe,
        i_sc_pos=i_pe * (1.0 - eta),
        i_sc_neg=i_pe * (1.0 - eta - delta),
    )


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


@dataclass(frozen=True)
class DarkOffsetFit:
    """Straight-line calibration of mean intensity against beam current."""

    i_dc: float  # intercept: mean intensity at zero beam current
    slope: float  # intensity per ampere
    residuals: np.ndarray
    intercept_stderr: float


def calibrate_idc(samples) -> DarkOffsetFit:
    """Ordinary least-squares line through (beam current, mean intensity) pairs.

    The intercept is the dark offset; residuals are returned so a linearity
    check (no saturation) can be made by the caller.
    """
    pts = np.asarray(list(samples), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DomainError("need at least two (current, intensity) samples")
    x, y = pts[:, 0], pts[:, 1]
    if np.ptp(x) == 0.0:
        raise SingularFitError("all beam currents are identical")
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residuals = y - fitted
    n = x.size
    if n > 2:
        s2 = float(residuals @ residuals) / (n - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(s2 * (1.0 / n + x.mean() ** 2 / sxx))
    else:
        stderr = 0.0
    return DarkOffsetFit(
        i_dc=float(coef[0]), slope=float(coef[1]),
        residuals=residuals, intercept_stderr=stderr,
    )

