"""SNR estimation techniques.

Every method is an entry of one registry, :data:`METHODS`.  Each
single-image technique is one rule function there: it predicts the
noise-free autocorrelation peak r_nf(0) from lags k >= 1 of a
:class:`~semsnr.correlation.LagTable` and returns that peak with its
diagnostics; one step of :func:`run_rules` turns a peak into the estimate
(r_nf - mean^2) / (r(0) - r_nf) through :func:`~semsnr.correlation.snr_from_peaks`.
:func:`estimate_all` is two stages: :func:`read_planes` builds the lag table
and runs what needs the image's planes, and :func:`run_rules` runs the rules
on the table alone.
The two-image techniques work from the cross-correlation of two acquisitions
of the same scene.

Failure modes raise typed :class:`~semsnr.errors.EstimatorError` subclasses;
:func:`estimate_all` converts them to per-method statuses so a benchmark run
never aborts on a single degenerate image.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .correlation import (
    LagTable,
    ccf_surface,
    lag_fits,
    lag_table,
    pearson,
    snr_db,
    snr_from_peaks,
)
from .errors import (
    DegenerateError,
    DomainError,
    EstimatorError,
    LogDomainError,
    NonpositiveCorrelationError,
    NoPeakError,
    NonStationaryError,
    SingularFitError,
)
from .noise import oracle_energies, oracle_snr
from .raster import Raster

EPSILON_POLICIES = ("zero",)

# asnn's published affine correction of the unit-offset estimate
ASNN_SLOPE = 0.99744
ASNN_INTERCEPT = 0.00645


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared tuning knobs for the estimator suite; its fields are the ``[estimate]`` keys.

    ``n_points`` is the number of autocorrelation lags used by fitting
    methods, ``lag_start`` the first lag they use (the log-log fit starts at
    lag 2 by default since its model diverges from a finite peak at lag 0).
    ``epsilon_policy`` takes only "zero" (no residual term), the value the benchmark names.
    """

    n_points: int = 4
    lag_start: int = 1
    nllsr_lag_start: int = 2
    acldr_order: int = 2
    epsilon_policy: str = "zero"
    smart_shift: int = 4

    def __post_init__(self):
        if self.n_points < 2:
            raise DomainError(f"n_points must be at least 2, got {self.n_points}")
        for key in ("lag_start", "nllsr_lag_start", "acldr_order", "smart_shift"):
            if getattr(self, key) < 1:
                raise DomainError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.epsilon_policy not in EPSILON_POLICIES:
            raise DomainError(f"epsilon_policy must be one of {EPSILON_POLICIES}")


DEFAULT_CONFIG = EstimatorConfig()


@dataclass(frozen=True)
class SnrEstimate:
    """One technique's output: linear SNR, peak prediction, diagnostics; dB is derived."""

    method: str
    status: str = "ok"
    snr_linear: float = math.nan
    predicted_nf_peak: float | None = None
    diagnostics: dict = field(default_factory=dict)
    # the method's own time in estimate_all, without the shared lag table
    runtime_ms: float = field(default=math.nan, compare=False)

    @property
    def snr_db(self) -> float:
        return snr_db(self.snr_linear)


# --- single-image rules: (lag table, cfg) -> (predicted peak, diagnostics) ----------


def _nn(t: LagTable, cfg: EstimatorConfig) -> tuple[float, dict]:
    """Nearest-offset prediction: r_nf(0) ~ (r(1,0) + r(0,1)) / 2."""
    r_x1, r_y1 = t.x.value(1), t.y.value(1)
    return 0.5 * (r_x1 + r_y1), {"r_x1": r_x1, "r_y1": r_y1}


def _fol(t: LagTable, cfg: EstimatorConfig) -> tuple[float, dict]:
    """First-order extrapolation: the line through lags 1 and 2 of the x profile at lag 0."""
    r1, r2 = t.x.value(1), t.x.value(2)
    return 2.0 * r1 - r2, {"r1": r1, "r2": r2}


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares intercept and slope via the normal equations."""
    design = np.column_stack([np.ones_like(xs), xs])
    normal = design.T @ design
    if abs(np.linalg.det(normal)) < 1e-300:
        raise SingularFitError("collinear abscissae in line fit")
    alpha, beta = np.linalg.solve(normal, design.T @ ys)
    return float(alpha), float(beta)


def _lsr(t: LagTable, cfg: EstimatorConfig) -> tuple[float, dict]:
    """Line fit over ``n_points`` lags of the x profile, evaluated at lag 0."""
    lags = np.arange(cfg.lag_start, cfg.lag_start + cfg.n_points)
    ys = np.array([t.x.value(int(k)) for k in lags])
    alpha, beta = _line_fit(lags.astype(np.float64), ys)
    return alpha, {"alpha": alpha, "beta": beta}


def _nllsr(t: LagTable, cfg: EstimatorConfig) -> tuple[float, dict]:
    """Log-log power-law fit of the covariance tail, evaluated at lag 1.

    The squared mean is subtracted from every value before the fit and added
    back to the prediction, so the power law fits the covariance structure
    rather than the flat offset that dominates raw products.  It fits the
    average of the two axis profiles; the single-axis tail is noisy enough at
    low SNR to tip the extrapolation above the measured peak.  The model value
    at lag 0 is identically zero, so the fit is evaluated at the nearest lag
    where the power-law form is finite.
    """
    curve, offset = t.xy(cfg.nllsr_lag_start + cfg.n_points - 1), t.mean**2
    lags = np.arange(cfg.nllsr_lag_start, cfg.nllsr_lag_start + cfg.n_points)
    ys = np.array([curve.value(int(k)) for k in lags]) - offset
    if np.any(ys <= 0.0):
        raise LogDomainError("autocorrelation values must be positive for the log-log fit")
    ln_alpha, beta = _line_fit(np.log(lags.astype(np.float64)), np.log(ys))
    alpha = math.exp(ln_alpha)
    return alpha + offset, {"alpha": alpha, "beta": beta}


def asnn_correct(snr_base: float) -> float:
    """Published affine correction of the unit-offset estimate."""
    return ASNN_SLOPE * snr_base - ASNN_INTERCEPT


def _asnn(t: LagTable, cfg: EstimatorConfig) -> tuple[float, dict]:
    """nn's peak; the registry's ``correct`` applies the published affine correction."""
    return _nn(t, cfg)[0], {"slope": ASNN_SLOPE, "intercept": ASNN_INTERCEPT}


@dataclass(frozen=True)
class LevinsonResult:
    """Order-recursive Toeplitz solution: monic filter tail, reflections, errors."""

    ar_coeffs: np.ndarray  # a_1..a_M of the monic prediction-error filter
    reflection: np.ndarray  # R_1..R_M (R_m equals the new last coefficient a_m)
    errors: np.ndarray  # prediction error power after each stage, errors[0] = r(0)


def levinson_durbin(acf_values, order: int) -> LevinsonResult:
    """Solve the Toeplitz normal equations by order recursion.

    The fitted model is x_t = -sum_k a_k x_{t-k} + e_t; the returned
    coefficients satisfy the Yule-Walker system Toeplitz(r) phi = r[1:]
    with phi = -a.  A reflection coefficient outside the unit circle raises
    a non-stationary-sequence error, and so does |R| == 1 before the final
    stage; on the final stage it is a perfectly predictable sequence, whose
    error power is zero.
    """
    r = np.asarray(acf_values, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise DomainError("need a 1-D sequence of at least two autocorrelation values")
    if r[0] <= 0.0:
        raise DomainError("zero-lag value must be positive")
    if not (1 <= order < r.size):
        raise DomainError(f"order must satisfy 1 <= order < {r.size}, got {order}")

    a = np.zeros(order)
    reflection = np.zeros(order)
    errors = np.zeros(order + 1)
    errors[0] = r[0]
    for m in range(1, order + 1):
        acc = r[m] + float(np.dot(a[: m - 1], r[m - 1 : 0 : -1]))
        k = -acc / errors[m - 1]
        if abs(k) > 1.0 or (abs(k) == 1.0 and m < order):
            raise NonStationaryError(
                f"reflection coefficient {k} left the unit circle at stage {m}"
            )
        prev = a[: m - 1].copy()
        a[: m - 1] = prev + k * prev[::-1]
        a[m - 1] = k
        reflection[m - 1] = k
        errors[m] = errors[m - 1] * (1.0 - k * k)
    return LevinsonResult(ar_coeffs=a, reflection=reflection, errors=errors)


def acldr_covariance_peak(table: LagTable, order: int) -> tuple[float, dict]:
    """acldr's rule: the covariance peak extrapolated back from the lag table's tail.

    The recursion runs on mean-removed samples (the squared mean dominates raw
    products and pins the first reflection coefficient onto the unit circle)
    of the average of the two axis profiles.  The tail r(1..K) is fed to the
    order recursion as a lagged sequence; a tail too noisy for ``order`` steps
    the order down before giving up, and the diagnostics start with the
    effective ``order``.  The fitted autoregression is then inverted at its
    first Yule-Walker equation, where the unknown lag-0 sample appears, to
    predict the noise-free peak.  The default order 2 predicts r(1)²/r(2),
    order 1's peak: its phi_1 and 1 - phi_2 share the factor r(1) - r(3),
    which cancels.  acldr's registry rule and the blind noise variance of
    :mod:`semsnr.denoise` both run this rule.
    """
    tail = table.xy(order + 1).values[1:] - table.mean**2
    if tail[0] <= 0.0:
        raise DegenerateError("no covariance structure above the squared mean")
    for effective in range(order, 0, -1):
        try:
            ld = levinson_durbin(tail[: effective + 1], effective)
            break
        except NonStationaryError:
            if effective == 1:
                raise
    phi = -ld.ar_coeffs
    if abs(phi[0]) < 1e-12:
        raise DegenerateError("backward extrapolation is ill-conditioned (phi_1 ~ 0)")
    # tail[k-2] holds r(k-1): the first Yule-Walker equation reads
    # r(1) = phi_1 r(0) + sum_{k>=2} phi_k r(k-1)
    acc = tail[0] - float(np.dot(phi[1:], tail[: effective - 1]))
    return float(acc / phi[0]), {
        "order": effective,
        "ar_coeffs": ld.ar_coeffs.tolist(),
        "reflection": ld.reflection.tolist(),
        "error_power": ld.errors.tolist(),
    }


def _acldr(t: LagTable, cfg: EstimatorConfig) -> tuple[float, dict]:
    """Autoregressive backward extrapolation of the tail, :func:`acldr_covariance_peak`."""
    cov_peak, diag = acldr_covariance_peak(t, cfg.acldr_order)
    return cov_peak + t.mean**2, diag


def _chillsr(t: LagTable, cfg: EstimatorConfig) -> tuple[float, dict]:
    """Shape-preserving cubic Hermite spline through lags 1..3 of the x profile at lag 0.

    Only the spline's first segment [1, 2] is extrapolated, across the mirror
    point at lag 1 down to lag 0, and its two tangents read r(1..3) alone.
    They are the monotone tangents of Fritsch & Carlson (1980) on unit lag
    spacing: ``end`` at lag 1 from the one-sided three-point rule, limited to
    keep the segment's shape, and ``mid`` at lag 2 the harmonic mean of the
    two secants, zero where they change sign.
    """
    r1, r2, r3 = t.x.value(1), t.x.value(2), t.x.value(3)
    a, b = r2 - r1, r3 - r2
    mid = 0.0 if a * b <= 0.0 else (3.0 + 3.0) / (3.0 / a + 3.0 / b)
    end = (3.0 * a - b) / 2.0
    if end * a <= 0.0:
        end = 0.0
    elif a * b < 0.0 and abs(end) > 3.0 * abs(a):
        end = 3.0 * a
    # the cubic Hermite basis of the unit segment [1, 2] at lag 0 (t = -1) is (-4, -4, 5, -2)
    peak = -4.0 * r1 - 4.0 * end + 5.0 * r2 - 2.0 * mid
    return peak, {"tangents": [end, mid]}


def snr_from_correlation(rho: float) -> float:
    """Two-image SNR from the cross-correlation coefficient: rho / (1 - rho), infinite at
    rho >= 1."""
    if rho <= 0.0:
        raise NonpositiveCorrelationError(f"correlation {rho} is not positive")
    if rho >= 1.0:
        return math.inf
    return rho / (1.0 - rho)


def _from_rho(method: str, rho: float, **diag) -> SnrEstimate:
    """The two-image tail: :func:`snr_from_correlation`'s SNR, ``infinite`` where it is inf."""
    snr = snr_from_correlation(rho)
    return SnrEstimate(method, "infinite" if snr == math.inf else "ok", snr,
                       diagnostics={"rho": rho, **diag})


def estimate_frank_alali(a: Raster, b: Raster) -> SnrEstimate:
    """Two-acquisition estimate from the zero-offset correlation coefficient.

    Assumes the two images carry the same signal with uncorrelated zero-mean
    noise and are already aligned.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise DomainError("images must have equal dimensions")
    return _from_rho("frank_alali", pearson(a.data, b.data))


def _centered_roi(data: np.ndarray, size: int, x_shift: int = 0, y_shift: int = 0) -> np.ndarray:
    """The ``size`` square at the center of ``data`` moved by the shifts, kept inside it."""
    h, w = data.shape
    y0 = min(max((h - size) // 2 + y_shift, 0), h - size)
    x0 = min(max((w - size) // 2 + x_shift, 0), w - size)
    return data[y0 : y0 + size, x0 : x0 + size]


def smart_region_oracle(noisy: Raster, clean: Raster, roi_size: int) -> float:
    """Paired smart's oracle: var(clean ROI) / var(noisy ROI - clean ROI) on the centered
    ``roi_size`` region :func:`estimate_smart` cuts from its first image."""
    return oracle_snr(*oracle_energies(_centered_roi(noisy.data, roi_size),
                                       _centered_roi(clean.data, roi_size)))


def estimate_smart(img: Raster, second: Raster | None = None,
                   cfg: EstimatorConfig = DEFAULT_CONFIG) -> SnrEstimate:
    """Region-based cross-correlation estimate of two acquisitions, with alignment recovery.

    Two equal regions of interest are taken: one centered in ``img`` and one
    cut from ``second``, shifted by ``cfg.smart_shift`` pixels along x.  The
    cross-correlation surface, built once, locates the region displacement and
    measures resolution as the peak's full width at half maximum.  The region
    is then re-extracted at the recovered alignment, on both axes, and the correlation
    coefficient feeds rho / (1 - rho), like the two-acquisition method but
    tolerant of a known region offset.  Without a second acquisition the
    method is not applicable, as ``frank_alali`` is not.
    """
    if second is None:
        return SnrEstimate("smart", "not_applicable")
    shift = cfg.smart_shift
    size = 1
    while size * 2 + shift <= min(img.width, img.height):
        size *= 2
    if size < 64:
        raise DomainError("the region of interest must be at least 64x64")
    if (second.width, second.height) != (img.width, img.height):
        raise DomainError("images must have equal dimensions")

    roi1 = _centered_roi(img.data, size)
    ccf = ccf_surface(roi1, _centered_roi(second.data, size, x_shift=shift))
    # content displacement -> region offset convention (region 2 sits +shift in x)
    offset = (-ccf.peak_offset[0], -ccf.peak_offset[1])

    roi_power = float(np.mean(roi1 * roi1))
    if ccf.peak_value <= ccf.background + 1e-12 * max(roi_power, 1.0):
        raise NoPeakError("no cross-correlation peak above background")

    aligned = _centered_roi(second.data, size, shift - offset[0], -offset[1])
    return _from_rho("smart", pearson(roi1, aligned), peak_offset=offset, fwhm=ccf.fwhm,
                     roi_size=size, shift=shift)


# --- method registry --------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A registry entry: the largest (x, y) lag a method reads and its rule.

    A single-image ``rule`` maps (lag table, cfg) to the predicted noise-free
    peak and its diagnostics; one step, which :func:`run_rules` runs, turns
    that peak into an SNR and then applies ``correct`` where one is set.
    Two-image methods (``lags`` None) take (img, second, cfg) and return
    their :class:`SnrEstimate`.
    """

    name: str
    lags: Callable[[EstimatorConfig], tuple[int, int]] | None
    rule: Callable[..., tuple[float, dict] | SnrEstimate]
    correct: Callable[[float], float] | None = None


METHODS = {m.name: m for m in (
    Method("nn", lambda c: (1, 1), _nn),
    Method("fol", lambda c: (2, 0), _fol),
    Method("lsr", lambda c: (c.lag_start + c.n_points - 1, 0), _lsr),
    Method("nllsr", lambda c: (c.nllsr_lag_start + c.n_points - 1,) * 2, _nllsr),
    Method("asnn", lambda c: (1, 1), _asnn, asnn_correct),
    Method("acldr", lambda c: (c.acldr_order + 1,) * 2, _acldr),
    Method("chillsr", lambda c: (3, 0), _chillsr),
    Method("frank_alali", None, lambda img, second, cfg: estimate_frank_alali(img, second)
           if second is not None else SnrEstimate("frank_alali", "not_applicable")),
    Method("smart", None, estimate_smart),
)}
SINGLE_IMAGE_METHODS = tuple(name for name, m in METHODS.items() if m.lags is not None)
ALL_METHODS = tuple(METHODS)


def _estimate(entry: Method, src: Raster | LagTable,
              cfg: EstimatorConfig = DEFAULT_CONFIG) -> SnrEstimate:
    """A single-image method's rule, on the shared lag table or an image's own, through
    :func:`snr_from_peaks` and the method's correction."""
    t = src if isinstance(src, LagTable) else lag_table(src, *entry.lags(cfg))
    peak, diag = entry.rule(t, cfg)
    snr = snr_from_peaks(t.x.value(0), peak, t.mean)
    if entry.correct is not None:
        diag = {"snr_base": snr, **diag}
        snr = entry.correct(snr)
        if snr <= 0.0:
            raise DegenerateError(f"corrected SNR {snr} is not positive")
    return SnrEstimate(entry.name, "ok", snr, peak, diag)


# each single-image method on its own, taking an image or a lag table
(estimate_nn, estimate_fol, estimate_lsr, estimate_nllsr, estimate_asnn, estimate_acldr,
 estimate_chillsrsnr) = (partial(_estimate, METHODS[m]) for m in SINGLE_IMAGE_METHODS)


def _attempt(name: str, run, *args) -> SnrEstimate:
    """Run one method and time it; a typed failure becomes its status."""
    t0 = time.perf_counter()
    try:
        est = run(*args)
    except EstimatorError as exc:
        est = SnrEstimate(method=name, status=exc.status, diagnostics={"detail": str(exc)})
    except DomainError as exc:
        est = SnrEstimate(method=name, status="error", diagnostics={"detail": str(exc)})
    return replace(est, runtime_ms=(time.perf_counter() - t0) * 1e3)


def check_methods(methods) -> tuple[str, ...]:
    """``methods`` as a tuple; an unknown or repeated name, or none, is a DomainError."""
    methods = tuple(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown methods {unknown}; expected a subset of {ALL_METHODS}")
    if not methods or len(set(methods)) < len(methods):
        raise DomainError(f"methods must name at least one method, each once; got {list(methods)}")
    return methods


@dataclass(frozen=True)
class PlaneWork:
    """What :func:`read_planes` keeps of an image: no plane, only what the rules read.

    ``methods`` are the selected names in registry order, ``table`` the shared
    lag table (None when no selected single-image method fits the image),
    ``estimates`` the finished estimates of the methods that read planes, and
    ``table_ms`` the time spent sizing and building the table.
    """

    methods: tuple[str, ...]
    table: LagTable | None
    estimates: dict[str, SnrEstimate]
    table_ms: float


def read_planes(img: Raster, cfg: EstimatorConfig = DEFAULT_CONFIG,
                second: Raster | None = None, methods=ALL_METHODS) -> PlaneWork:
    """:func:`estimate_all`'s first stage, the only one that reads ``img`` and ``second``.

    It builds the one lag table, sized to the largest lag among the selected
    single-image methods whose own need fits the image, and runs the methods
    that need planes: the two-image methods, and a single-image method whose
    need does not fit, which reads the image and fails as it does alone.
    Nearly all of its time is NumPy passes that release the interpreter lock.
    """
    methods = check_methods(methods)
    entries = [m for name, m in METHODS.items() if name in methods]
    t0 = time.perf_counter()
    fits = [e for e in entries if e.lags is not None and lag_fits(img, max(e.lags(cfg)))]
    table = lag_table(img, *map(max, zip(*(e.lags(cfg) for e in fits)))) if fits else None
    table_ms = (time.perf_counter() - t0) * 1e3
    estimates = {}
    for e in entries:
        if e.lags is None:
            estimates[e.name] = _attempt(e.name, e.rule, img, second, cfg)
        elif e not in fits:  # it reads the image and fails as it does alone
            estimates[e.name] = _attempt(e.name, _estimate, e, img, cfg)
    return PlaneWork(tuple(e.name for e in entries), table, estimates, table_ms)


def run_rules(work: PlaneWork, cfg: EstimatorConfig = DEFAULT_CONFIG) -> dict[str, SnrEstimate]:
    """:func:`estimate_all`'s second stage: each selected method's estimate, in registry order.

    Every single-image method that :func:`read_planes` left to the table runs
    its rule on it, through the one step that applies :func:`snr_from_peaks`;
    the others are the estimates ``work`` holds.  It reads no plane, so its
    Python need not share the interpreter lock with threads reading planes.
    """
    return {name: work.estimates[name] if name in work.estimates
            else _attempt(name, _estimate, METHODS[name], work.table, cfg)
            for name in work.methods}


def estimate_all(img: Raster, cfg: EstimatorConfig = DEFAULT_CONFIG,
                 second: Raster | None = None,
                 methods=ALL_METHODS) -> dict[str, SnrEstimate]:
    """Run the selected techniques, in registry order; failures become statuses.

    It is :func:`run_rules` of :func:`read_planes`: one lag table serves every
    single-image method whose need fits the image, and each rule's peak
    becomes an SNR in the one step that applies :func:`snr_from_peaks`.
    ``runtime_ms`` is each method's own time, without the shared lag table.
    """
    return run_rules(read_planes(img, cfg, second, methods), cfg)
