"""Auto- and cross-correlation machinery.

Autocorrelation values follow the raw-product convention: r(k) is the mean of
f(i,j) * f(i,j+k) over the valid overlap (no wraparound), so r(0) is the mean
square intensity and r(0) - mean^2 equals the population variance.

The single-image SNR identity implemented by :func:`snr_from_peaks` reads the
signal energy as (noise-free peak - mean^2) and the noise energy as
(noisy peak - noise-free peak).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateError, DomainError, NonpositiveSignalError
from .raster import Raster, irfft2, rfft2

AXES = ("x", "y")


@dataclass(frozen=True)
class AcfCurve:
    """A 1-D autocorrelation profile r(k); ``values[k]`` is lag k, for lags 0..K."""

    values: np.ndarray = field(repr=False)
    mean: float = 0.0

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1:
            raise DomainError("values must be a 1-D array")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def value(self, lag: int) -> float:
        if not 0 <= lag < self.values.size:
            raise DomainError(f"lag {lag} not present in curve")
        return float(self.values[lag])


@dataclass(frozen=True)
class LagTable:
    """One image's x and y profiles, sharing its mean and r(0); lags may differ per axis."""

    x: AcfCurve
    y: AcfCurve

    @property
    def mean(self) -> float:
        return self.x.mean

    def xy(self, max_lag: int) -> AcfCurve:
        """Average of the x and y profiles over lags 0..max_lag (halves tail variance)."""
        if not 0 <= max_lag < min(self.x.values.size, self.y.values.size):
            raise DomainError(f"lag {max_lag} not present in both profiles")
        n = max_lag + 1
        return AcfCurve(0.5 * (self.x.values[:n] + self.y.values[:n]), self.x.mean)


@dataclass(frozen=True)
class CcfResult:
    """Peak geometry of a cross-correlation surface."""

    peak_offset: tuple[int, int]  # (dx, dy)
    peak_value: float
    background: float
    fwhm: float
    correlation: float = math.nan  # aligned correlation coefficient, set by cross_correlate


def _lag_product(x: np.ndarray, k: int, axis: str) -> float:
    """Mean of f(i,j) * f(i,j+k) (axis "x") or f(i,j) * f(i+k,j) over the valid overlap.

    ``vecdot`` sums each row's products as one BLAS dot, without a product
    plane, and the row sums are added pairwise.  On integer planes of values
    <= 65535 up to about 1448^2 every partial sum is an integer below 2^53, so
    the mean is exact in any order; on other planes it is within rounding of
    ``np.mean(a * b)``.  Each lag is its own pass, so its value does not depend
    on which other lags a table holds.
    """
    h, w = x.shape
    if axis == "x":
        a, b = x[:, : w - k], x[:, k:]
    else:
        a, b = x[: h - k], x[k:]
    return float(np.vecdot(a, b).sum()) / a.size


def lag_fits(r: Raster, max_lag: int) -> bool:
    """Whether lags 0..max_lag leave an overlap of more than half the image."""
    return 0 <= max_lag < min(r.width, r.height) / 2


def lag_table(r: Raster, x_lags: int, y_lags: int) -> LagTable:
    """Raw-product x profile to lag ``x_lags`` and y profile to ``y_lags``, one r(0)."""
    max_lag = max(x_lags, y_lags)
    if not lag_fits(r, max_lag):
        raise DomainError(f"max_lag {max_lag} must satisfy 0 <= max_lag < min(width, height)/2")
    x = r.data
    mean = float(x.mean())
    r0 = _lag_product(x, 0, "x")
    curves = [
        AcfCurve([r0] + [_lag_product(x, k, axis) for k in range(1, n + 1)], mean)
        for axis, n in (("x", x_lags), ("y", y_lags))
    ]
    return LagTable(*curves)


def autocorrelation(r: Raster, max_lag: int, axis: str = "x") -> AcfCurve:
    """Raw-product ACF profile for lags 0..max_lag, normalized per lag by overlap count.

    ``axis`` is "x" (offset across columns at zero row offset, the default
    profile) or "y"; the profile is read from :func:`lag_table`.
    """
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    table = lag_table(r, max_lag if axis == "x" else 0, max_lag if axis == "y" else 0)
    return getattr(table, axis)


def snr_db(snr_linear: float) -> float:
    """Decibel companion of a linear power-ratio SNR (10 log10)."""
    return 10.0 * math.log10(snr_linear)


def snr_from_peaks(r0: float, r_nf: float, mean: float) -> float:
    """Single-image SNR from the noisy peak, predicted noise-free peak, and mean.

    Returns (r_nf - mean^2) / (r0 - r_nf).  Raises a typed error when the
    predicted peak reaches the noisy peak (no measurable noise) or fails to
    clear the squared mean (nonpositive signal energy).
    """
    mu2 = mean * mean
    if r0 - r_nf <= 1e-12 * max(abs(r0), 1.0):
        raise DegenerateError(
            f"predicted noise-free peak {r_nf} at/above noisy peak {r0}"
        )
    if r_nf <= mu2:
        raise NonpositiveSignalError(
            f"predicted noise-free peak {r_nf} does not exceed squared mean {mu2}"
        )
    return (r_nf - mu2) / (r0 - r_nf)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Correlation coefficient; exactly 1.0 for identical inputs, since sqrt(s * s)
    rounds back to s, so an exact duplicate always reads as infinite SNR."""
    da, db = a - a.mean(), b - b.mean()
    saa, sbb = float(np.sum(da * da)), float(np.sum(db * db))
    if saa == 0.0 or sbb == 0.0:
        raise DegenerateError("an input has zero variance")
    return float(np.sum(da * db)) / math.sqrt(saa * sbb)


def _profile_fwhm(profile: np.ndarray, peak_idx: int, peak: float, background: float) -> float:
    """Full width at half maximum of a line profile: each side, read outward from the peak,
    crosses at its first sample below half maximum, interpolated linearly against the
    sample before it, or else runs half a sample off the profile's edge."""
    half = background + 0.5 * (peak - background)
    width = 0.0
    for side in (profile[peak_idx:], profile[peak_idx::-1]):
        below = np.flatnonzero(side[1:] < half)
        if below.size:  # side[j] >= half > side[j + 1]
            j = below[0]
            width += j + (side[j] - half) / (side[j] - side[j + 1])
        else:
            width += side.size - 0.5
    return max(float(width), 1.0)


def ccf_surface(a: np.ndarray, b: np.ndarray) -> CcfResult:
    """Build the circular cross-correlation surface of two planes once and read its peak.

    The surface is the inverse transform of conj(F) * G of the mean-subtracted
    planes, scaled to mean-product units; real-input transforms halve the
    spectrum work.  The background is the median of the surface outside the
    5x5 block around the peak, and the FWHM is read along the peak row.
    """
    spectrum = rfft2(a - a.mean())
    np.conj(spectrum, out=spectrum)
    spectrum *= rfft2(b - b.mean())
    surface = irfft2(spectrum, a.shape[1])
    surface /= a.size

    h, w = surface.shape
    my, mx = np.unravel_index(int(np.argmax(surface)), surface.shape)
    dx = int(mx) - w if mx > w // 2 else int(mx)
    dy = int(my) - h if my > h // 2 else int(my)
    peak = float(surface[my, mx])

    mask = np.ones_like(surface, dtype=bool)
    mask[np.ix_(np.arange(my - 2, my + 3) % h, np.arange(mx - 2, mx + 3) % w)] = False
    background = float(np.median(surface[mask], overwrite_input=True))

    profile = np.roll(surface[my, :], w // 2 - mx)
    return CcfResult(
        peak_offset=(dx, dy),
        peak_value=peak,
        background=background,
        fwhm=_profile_fwhm(profile, w // 2, peak, background),
    )


def cross_correlate(a: Raster, b: Raster) -> CcfResult:
    """Spectrum-domain cross-correlation with peak location, FWHM, and correlation.

    The surface comes from :func:`ccf_surface`.  The reported correlation is
    :func:`pearson` of ``a`` and ``b`` circularly aligned by the recovered peak
    offset, and 0.0 when either input has zero variance.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise DomainError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    if a.width < 16 or a.height < 16:
        raise DomainError("cross-correlation needs at least 16x16 images")

    ccf = ccf_surface(a.data, b.data)
    dx, dy = ccf.peak_offset
    aligned = np.roll(b.data, (-dy, -dx), axis=(0, 1))
    try:
        rho = pearson(a.data, aligned)
    except DegenerateError:
        rho = 0.0
    return replace(ccf, correlation=max(-1.0, min(1.0, rho)))
