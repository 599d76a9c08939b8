"""Classical denoising: spatial filters, Wiener restoration, and the blind
autoregressive noise-variance estimator that feeds it.  That estimate is the
``acldr`` estimator's rule on the image's shared x/y lag table, plus a 5%
structure-free rule.

All filters use mirror (symmetric) edge padding and operate on the real-valued
working plane.  The frequency-domain Wiener filter closes the unknown signal
spectrum by spectral subtraction, P_f = max(periodogram - P_noise, 0), passes
the zero-frequency bin through untouched, and only shapes spectral magnitude.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .correlation import lag_table
from .errors import DomainError, EstimatorError
from .estimators import acldr_covariance_peak
from .noise import text_value
from .raster import Raster, irfft2, raster_from_array, rfft2

# parameter -> (int-valued?, rule, test of the rule); every value must also be finite,
# and a sigma's 2 sigma**2, which filters divide by, must not underflow to 0
_SIGMA = (False, "finite and > 0 with 2 sigma**2 > 0", lambda v: v > 0.0 and 2.0 * v * v > 0.0)
_PARAMS = {
    "sigma": _SIGMA,
    "sigma_s": _SIGMA,
    "sigma_r": _SIGMA,
    "noise_var": (False, "finite and >= 0", lambda v: v >= 0.0),
    "window": (True, "an odd int >= 3", lambda v: v >= 3 and v % 2 == 1),
    "radius": (True, "an int >= 0", lambda v: v >= 0),
    "ar_order": (True, "an int >= 1", lambda v: v >= 1),
}


def _check_param(name: str, value) -> None:
    integral, rule, holds = _PARAMS[name]
    if integral:
        typed = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:
        try:
            typed = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                     and math.isfinite(value))
        except OverflowError:  # an int too large for a float
            typed = False
    if not (typed and holds(value)):
        raise DomainError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class _Kind:
    required: tuple[str, ...]
    defaults: dict = field(default_factory=dict)  # optional parameter -> default(params)
    plane: Callable | None = None  # spatial kinds: (plane, params) -> filtered plane
    run: Callable | None = None  # the others: (image, spec) -> DenoiseReport


# kind -> parameters and implementation.  The implementations are named inside
# lambdas, so each call looks up the module attribute (and any wrapper on it).
FILTERS = {
    "gaussian": _Kind(("sigma",), {"radius": lambda p: math.ceil(3.0 * p["sigma"])},
                      plane=lambda x, p: gaussian_blur(x, p["sigma"], p["radius"])),
    "median": _Kind(("window",), plane=lambda x, p: _median(x, p["window"])),
    "bilateral": _Kind(("sigma_s", "sigma_r"), {"radius": lambda p: math.ceil(2.0 * p["sigma_s"])},
                       plane=lambda x, p: _bilateral(x, p["sigma_s"], p["sigma_r"], p["radius"])),
    "wiener_global": _Kind(("noise_var",), run=lambda img, spec: wiener_global(
        img, spec.params["noise_var"])),
    "wiener_local": _Kind(("window", "noise_var"), run=lambda img, spec: wiener_local(
        img, spec.params["window"], spec.params["noise_var"])),
    "ar_wiener": _Kind(("ar_order", "window"), run=lambda img, spec: ar_wiener(img, spec)),
}


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind and its parameters, checked against ``FILTERS`` and
    ``_PARAMS``, with the defaults of the optional parameters filled in."""

    kind: str
    params: dict

    def __post_init__(self):
        kind = FILTERS.get(self.kind)
        if kind is None:
            raise DomainError(
                f"unknown filter kind {self.kind!r}; expected one of {tuple(FILTERS)}")
        p = dict(self.params)
        if not set(kind.required) <= set(p) <= set(kind.required) | set(kind.defaults):
            takes = ",".join(kind.required) + "".join(f"[,{k}]" for k in kind.defaults)
            raise DomainError(f"{self.kind} takes ({takes}), got keys {sorted(p)}")
        for key, value in p.items():
            _check_param(key, value)
        try:
            p.update({k: default(p) for k, default in kind.defaults.items() if k not in p})
        except OverflowError:
            raise DomainError(f"a default parameter overflows for {p}") from None
        object.__setattr__(self, "params", p)


def parse_filter_spec(text: str) -> FilterSpec:
    """Parse a CLI filter string, e.g. ``wiener_local:window=7,noise_var=25.0``.

    Grammar: ``kind[:key=value[,key=value...]]``; values parse as int when
    possible, float otherwise.  A key given twice is an error.
    """
    kind, sep, rest = text.partition(":")
    params: dict = {}
    if sep and rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise DomainError(f"bad filter parameter {item!r}: expected key=value")
            key, value = key.strip(), value.strip()
            if key in params:
                raise DomainError(f"filter parameter {key!r} given twice")
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    raise DomainError(f"bad filter parameter value {value!r}") from None
    return FilterSpec(kind=kind.strip(), params=params)


def filter_spec_to_string(spec: FilterSpec) -> str:
    """The report label: the spec in the grammar, sorted keys, :func:`noise.text_value` values."""
    params = ",".join(f"{k}={text_value(v)}" for k, v in sorted(spec.params.items()))
    return f"{spec.kind}:{params}"


@dataclass(frozen=True)
class DenoiseReport:
    """A filtered image, and the noise variance that drove it where the filter
    estimates one (``ar_wiener``).  Filters do not score their output:
    ``bench.run_denoise`` scores it against the clean plane."""

    output: Raster
    estimated_noise_variance: float | None = None


def mse(a: Raster, b: Raster) -> float:
    if (a.width, a.height) != (b.width, b.height):
        raise DomainError("dimension mismatch")
    return float(np.mean((a.data - b.data) ** 2))


def psnr_db(mse_value: float, maxval: int) -> float:
    if mse_value < 0.0:
        raise DomainError("mse must be nonnegative")
    if mse_value == 0.0:
        return math.inf
    return 20.0 * math.log10(maxval) - 10.0 * math.log10(mse_value)


def _pad(x: np.ndarray, ry: int, rx: int) -> np.ndarray:
    return np.pad(x, ((ry, ry), (rx, rx)), mode="symmetric")


def _gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    # a tiny sigma overflows the exponent to -inf, whose exp 0 is the right weight
    with np.errstate(over="ignore"):
        k = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return k / k.sum()


# output rows per partition pass of _median; 8-row strips run as fast as 16-row ones
_MEDIAN_STRIP = 8
# output rows per pass of gaussian_blur and wiener_local: their work buffers
# stay in cache, and their size does not grow with the image height
_TILE_ROWS = 32
# output rows per tile of _bilateral: with a thread per core, fewer
# interpreter-lock-holding calls than 32
_BILATERAL_ROWS = 64


def _tiles(step: int, h: int) -> list[tuple[int, int]]:
    """(top, rows) of each tile of ``step`` output rows, in order, covering rows 0..h once."""
    return [(top, min(step, h - top)) for top in range(0, h, step)]


def _bands(x: np.ndarray, radius: int):
    """Yield (top, rows, source) per band of _TILE_ROWS output rows; source is
    made band by band: the rows + 2 radius rows of _pad(x, radius, radius) it reads."""
    h = x.shape[0]
    source_row = np.pad(np.arange(h), radius, mode="symmetric")  # padded row -> row of x
    for top, rows in _tiles(_TILE_ROWS, h):
        yield top, rows, _pad(x.take(source_row[top : top + rows + 2 * radius], axis=0),
                              0, radius)


def _convolve_band(source: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # Horizontal over the band's source rows, then vertical over that result.
    # Symmetric padding is per axis and the horizontal pass per row, so each pixel
    # gets the whole-plane passes' products, summed from zero in the same order.
    rows, w = (n - kernel.size + 1 for n in source.shape)
    across = np.zeros((source.shape[0], w))
    for i, k in enumerate(kernel):
        across += k * source[:, i : i + w]
    out = np.zeros((rows, w))
    for i, k in enumerate(kernel):
        out += k * across[i : i + rows]
    return out


def gaussian_blur(x: np.ndarray, sigma: float, radius: int | None = None) -> np.ndarray:
    """Separable normalized Gaussian smoothing of a bare array, with mirror
    edges, in bands of _TILE_ROWS rows; radius ceil(3 sigma) if None."""
    radius = math.ceil(3.0 * sigma) if radius is None else radius
    kernel = _gaussian_kernel(sigma, radius)
    out = np.empty(np.shape(x))
    for top, rows, source in _bands(np.asarray(x, dtype=np.float64), radius):
        out[top : top + rows] = _convolve_band(source, kernel)
    return out


def _median(x: np.ndarray, window: int) -> np.ndarray:
    # The window is odd, so its median is the one middle element: partitioning
    # each pixel's window**2 neighbours at that rank gives np.median's value
    # exactly.  The neighbours are copied to the last, contiguous axis of a
    # strip of _MEDIAN_STRIP rows, so the stack stays small and the partition
    # runs on unit-stride rows.
    padded = _pad(x, window // 2, window // 2)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    h, w = x.shape
    middle = window * window // 2
    out = np.empty((h, w))
    stack = np.empty((min(_MEDIAN_STRIP, h), w, window, window))
    for top, rows in _tiles(_MEDIAN_STRIP, h):
        np.copyto(stack[:rows], windows[top : top + rows])
        strip = stack[:rows].reshape(rows, w, window * window)
        strip.partition(middle, axis=2)
        out[top : top + rows] = strip[:, :, middle]
    return out


def _bilateral(x: np.ndarray, sigma_s: float, sigma_r: float, radius: int) -> np.ndarray:
    # _BILATERAL_ROWS output rows at a time, so the four work planes stay in cache
    # across all (2 radius + 1)**2 offsets instead of streaming whole planes.
    # Per pixel the operations and their order are those of the whole-plane
    # loop: d**2 / (-2 sigma_r**2) equals -(d**2) / (2 sigma_r**2) bit for bit.
    padded = _pad(x, radius, radius)
    h, w = x.shape
    range_scale = -(2.0 * sigma_r * sigma_r)
    out = np.empty((h, w))
    work = np.empty((4, min(_BILATERAL_ROWS, h), w))
    # a tiny sigma_r overflows the range exponent to -inf, whose exp 0 is the
    # right weight; errstate is per thread, so it holds on whichever thread runs this
    with np.errstate(over="ignore"):
        for top, rows in _tiles(_BILATERAL_ROWS, h):
            acc, norm, weight, term = work[:, :rows]
            centre = x[top : top + rows]
            acc.fill(0.0)
            norm.fill(0.0)
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    spatial = math.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s * sigma_s))
                    nb = padded[top + radius + dy : top + radius + dy + rows,
                                radius + dx : radius + dx + w]
                    np.subtract(nb, centre, out=term)
                    np.square(term, out=term)
                    np.divide(term, range_scale, out=term)
                    np.exp(term, out=weight)
                    np.multiply(spatial, weight, out=weight)
                    np.multiply(weight, nb, out=term)
                    acc += term
                    norm += weight
            np.divide(acc, norm, out=out[top : top + rows])
    return out


def spatial_filter(img: Raster, spec: FilterSpec) -> Raster:
    """Gaussian, median, or bilateral smoothing with mirror edge handling."""
    plane, p = FILTERS[spec.kind].plane, spec.params
    if plane is None:
        raise DomainError(f"spatial_filter does not handle kind {spec.kind!r}")
    side = min(img.width, img.height)
    if p.get("window", 0) > side:
        raise DomainError("window larger than image")
    if 2 * p.get("radius", 0) + 1 > 2 * side:
        raise DomainError("kernel larger than image")
    # nonnegative weights (or a median) of a nonnegative plane: no output is negative
    return raster_from_array(plane(img.data, p), img.bit_depth)


def _transfer(spectrum: np.ndarray, pixels: int, noise_var: float) -> np.ndarray:
    # spectrum is the rfft2 half spectrum of a plane of ``pixels`` samples
    _check_param("noise_var", noise_var)
    if noise_var == 0.0:
        return np.ones(spectrum.shape)  # nothing to subtract: all-pass
    p_f = np.abs(spectrum)
    np.square(p_f, out=p_f)
    p_f /= pixels  # periodogram
    p_f -= noise_var
    np.maximum(p_f, 0.0, out=p_f)
    transfer = np.divide(p_f, p_f + noise_var, out=p_f)
    transfer[0, 0] = 1.0
    return transfer


def wiener_transfer(img: Raster, noise_var: float) -> np.ndarray:
    """Frequency response of the spectral-subtraction Wiener filter.

    The response is on the ``rfft2`` half spectrum, shape (height, width // 2 + 1).
    ``noise_var`` is the white-noise variance, a finite scalar >= 0, which is
    also its flat PSD in periodogram units (|FFT|^2 / pixel count).  The
    response lies in [0, 1] and the zero-frequency bin is forced to 1 so the
    mean passes through.
    """
    return _transfer(rfft2(img.data), img.data.size, noise_var)


def wiener_global(img: Raster, noise_var: float) -> DenoiseReport:
    """Frequency-domain Wiener restoration with spectral subtraction."""
    spectrum = rfft2(img.data)
    spectrum *= _transfer(spectrum, img.data.size, noise_var)
    out = irfft2(spectrum, img.width)
    del spectrum
    np.maximum(out, 0.0, out=out)
    return DenoiseReport(raster_from_array(out, img.bit_depth))


def wiener_local(img: Raster, window: int, noise_variance: float) -> DenoiseReport:
    """Pixelwise minimum mean square error shrinkage toward the local mean (Lee 1980).

    The window mean and mean square come from flat separable convolutions of
    the plane minus its global mean, so the cost does not grow with the
    window area and a DC offset does not cancel digits in the variance.  It runs
    in bands of _TILE_ROWS rows: beside its output it holds only band buffers.
    """
    _check_param("window", window)
    _check_param("noise_var", noise_variance)
    if window > min(img.width, img.height):
        raise DomainError("window larger than image")
    x = img.data
    if noise_variance == 0.0:
        return DenoiseReport(img)
    mean = x.mean()
    flat = np.full(window, 1.0 / window)
    radius = window // 2
    out = np.empty(x.shape)
    for top, rows, c in _bands(x, radius):
        c -= mean
        m = _convolve_band(c, flat)
        v = _convolve_band(c * c, flat) - m * m
        gain = np.maximum(v - noise_variance, 0.0) / np.maximum(v, noise_variance)
        centre = c[radius : radius + rows, radius : radius + img.width]
        np.maximum(mean + m + gain * (centre - m), 0.0, out=out[top : top + rows])
    return DenoiseReport(raster_from_array(out, img.bit_depth))


def estimate_noise_variance_ar(img: Raster, ar_order: int) -> float:
    """Blind white-noise variance: acldr's rule on the image's x/y lag table.

    The zero-lag covariance c0 = r(0) - mean^2 less the covariance peak that
    ``acldr`` extrapolates from the mean-removed x/y tail at ``ar_order`` is
    the noise variance, clamped to [0, c0].  A first-lag covariance below 5%
    of c0 counts as structure-free, and so does a typed estimator failure:
    both attribute everything to noise.
    """
    _check_param("ar_order", ar_order)
    table = lag_table(img, ar_order + 1, ar_order + 1)
    mu2 = table.mean**2
    c0 = table.x.value(0) - mu2
    if c0 <= 0.0:
        return 0.0
    if table.xy(1).value(1) - mu2 <= 0.05 * c0:
        return c0  # effectively uncorrelated content: everything is noise
    try:
        cov_peak, _ = acldr_covariance_peak(table, ar_order)
    except (EstimatorError, DomainError):
        return c0
    return float(min(max(c0 - cov_peak, 0.0), c0))


def ar_wiener(img: Raster, spec: FilterSpec) -> DenoiseReport:
    """Local Wiener filtering driven by the blind AR noise-variance estimate."""
    if spec.kind != "ar_wiener":
        raise DomainError("ar_wiener needs an ar_wiener filter spec")
    est = estimate_noise_variance_ar(img, spec.params["ar_order"])
    return replace(wiener_local(img, spec.params["window"], est), estimated_noise_variance=est)


def apply_filter(img: Raster, spec: FilterSpec) -> DenoiseReport:
    """Run a filter spec's implementation on ``img`` and return its output;
    ``bench.run_denoise`` scores it against the clean plane."""
    kind = FILTERS[spec.kind]
    if kind.plane is None:
        return kind.run(img, spec)
    return DenoiseReport(spatial_filter(img, spec))
