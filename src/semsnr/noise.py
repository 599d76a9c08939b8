"""Synthetic SEM acquisitions with an exact ground-truth SNR oracle.

Emission models realized per pixel, all driven by a counter-based RNG so a
recipe (including its seed) fully determines the output:

* ``poisson-pe``      primary-electron counts N ~ Poisson(dose)
* ``poisson-se``      secondary emission as a compound Poisson: each of the
                      N ~ Poisson(dose) primaries releases a Poisson(delta)
                      number of secondaries, so the pixel count is
                      Poisson(delta * N) given N.  An optional variance
                      inflation k > 1 switches the per-pixel draw to a
                      negative binomial with the same mean and variance
                      k * delta * dose, covering materials whose yield
                      fluctuates more than Poisson.
* ``binomial-bse``    backscatter conversion: Binomial(N, eta) with
                      N ~ Poisson(dose)
* ``additive-gaussian`` plain additive white Gaussian noise on the clean plane
* ``none``            noiseless pass-through

Counts are mapped to intensity through the detector gain and DC offset, then
quantized at the recipe's storage bit depth.  The oracle SNR is defined on the
realized pair: signal energy = population variance of the clean plane, noise
energy = population variance of (noisy - clean).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import DomainError
from .raster import Raster, quantize_in_place, variance

EMISSION_MODELS = ("none", "poisson-pe", "poisson-se", "binomial-bse", "additive-gaussian")
# samples per block of the inflated poisson-se draw: its temporaries stay a small share of a plane
_DRAW_BLOCK = 1 << 13


@dataclass(frozen=True)
class NoiseRecipe:
    """Full specification of one synthetic acquisition.

    ``dose_map`` holds the mean number of primary electrons per pixel and must
    be strictly positive everywhere.  ``yield_inflation`` is the non-Poisson
    variance factor k >= 1; bookkeeping uses b = k/delta.
    """

    dose_map: np.ndarray = field(repr=False)
    emission_model: str = "poisson-pe"
    se_yield: float = 0.16
    bse_yield: float = 0.30
    yield_inflation: float = 1.0
    gaussian_sigma: float = 0.0
    detector_gain: float = 1.0
    dc_offset: float = 0.0
    seed: int = 0
    bit_depth: int = 16

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.dose_map, dtype=np.float64))
        if arr.ndim != 2:
            raise DomainError("dose_map must be 2-D")
        lo, hi = arr.min(), arr.max()  # nan and +-inf always reach one of them
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0:
            raise DomainError("dose_map must be finite and positive everywhere")
        arr.flags.writeable = False
        object.__setattr__(self, "dose_map", arr)
        if self.emission_model not in EMISSION_MODELS:
            raise DomainError(
                f"unknown emission_model {self.emission_model!r}; expected one of {EMISSION_MODELS}"
            )
        if not (0.0 < self.se_yield <= 1.0):
            raise DomainError("se_yield must be in (0, 1]")
        if not (0.0 <= self.bse_yield <= 1.0):
            raise DomainError("bse_yield must be in [0, 1]")
        if not (1.0 <= self.yield_inflation <= 2.0):
            raise DomainError("yield_inflation must be in [1, 2]")
        if self.gaussian_sigma < 0.0:
            raise DomainError("gaussian_sigma must be nonnegative")
        if self.detector_gain <= 0.0:
            raise DomainError("detector_gain must be positive")
        if self.dc_offset < 0.0:
            raise DomainError("dc_offset must be nonnegative")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


def oracle_snr(signal_energy: float, noise_energy: float) -> float:
    """The oracle SNR: signal energy over noise energy, ``inf`` when the noise energy is 0."""
    return math.inf if noise_energy == 0.0 else signal_energy / noise_energy


def oracle_energies(noisy: np.ndarray, clean: np.ndarray) -> tuple[float, float]:
    """A realized pair's energies, var(clean) and var(noisy - clean), formed in one work plane."""
    work = np.empty_like(clean)
    signal_energy = variance(clean, work)
    np.subtract(noisy, clean, out=work)
    return signal_energy, variance(work, work)


@dataclass(frozen=True)
class GroundTruth:
    """A realized (clean, noisy) pair, its two energies and their :func:`oracle_snr`."""

    clean: Raster
    noisy: Raster
    signal_energy: float
    noise_energy: float

    @property
    def true_snr(self) -> float:
        return oracle_snr(self.signal_energy, self.noise_energy)


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; streams derived from (seed, stream) are independent."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def count_yield(recipe: NoiseRecipe) -> float:
    """Mean counts per primary electron: the expected count plane is this times the dose."""
    if recipe.emission_model == "poisson-se":
        return recipe.se_yield
    if recipe.emission_model == "binomial-bse":
        return recipe.bse_yield
    return 1.0  # x * 1.0 is x exactly


def simulate(recipe: NoiseRecipe) -> GroundTruth:
    """Realize one acquisition; deterministic under a fixed recipe.

    The noisy plane is quantized in the float counts plane (integer draws are
    first mapped into a new float plane and released), and then the clean
    plane in the work plane it was built in.  The call then drops its names
    for the recipe and its dose map, and one more plane holds both energies'
    deviations.  A caller that hands its recipe over, keeping no name for it,
    frees the dose map there, so the call holds three planes at most; one
    that keeps it holds four.  CPython 3.10 keeps a call's arguments on the
    caller's stack, so there every call holds four.
    """
    rng = rng_for(recipe.seed)
    dose = recipe.dose_map
    model = recipe.emission_model

    if model == "none":
        counts = dose
    elif model == "poisson-pe":
        counts = rng.poisson(dose)
    elif model == "poisson-se":
        mean_se = recipe.se_yield * rng.poisson(dose)
        k = recipe.yield_inflation
        if k == 1.0:
            counts = rng.poisson(mean_se)
            del mean_se
        else:
            # negative binomial with mean m and variance k*m where m > 0, drawn
            # over blocks of rows into the mean plane, whose other entries are
            # already 0.0; the blocks in C order draw the whole plane's stream
            rows = max(1, _DRAW_BLOCK // dose.shape[1])
            for top in range(0, dose.shape[0], rows):
                block = mean_se[top : top + rows]
                hot = block > 0.0
                m = block[hot]
                r = m / (k - 1.0)
                p = np.add(r, m, out=m)
                block[hot] = rng.negative_binomial(r, np.divide(r, p, out=p))
            del block, hot, m, r, p
            counts = mean_se
            del mean_se
    elif model == "binomial-bse":
        counts = rng.binomial(rng.poisson(dose), recipe.bse_yield)
    elif model == "additive-gaussian":
        counts = rng.normal(0.0, recipe.gaussian_sigma, size=dose.shape)
        counts += dose
    else:  # pragma: no cover - guarded by NoiseRecipe
        raise DomainError(f"unknown emission model {model!r}")

    gain, offset, depth = recipe.detector_gain, recipe.dc_offset, recipe.bit_depth
    if counts is dose or counts.dtype != np.float64:
        # integer draws, or the frozen dose, into a new float plane
        counts = np.multiply(counts, gain, out=np.empty(dose.shape))
    else:
        counts *= gain  # a float plane of this call's own (additive, inflated poisson-se)
    counts += offset
    noisy, _ = quantize_in_place(counts, depth)
    del counts
    work = dose * count_yield(recipe)
    del dose, recipe  # the dose map is freed here unless the caller holds the recipe
    work *= gain
    work += offset
    clean, _ = quantize_in_place(work, depth)

    signal_energy, noise_energy = oracle_energies(noisy.data, clean.data)
    return GroundTruth(clean=clean, noisy=noisy, signal_energy=signal_energy,
                       noise_energy=noise_energy)


# --- flat key/value recipe serialization ------------------------------------


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(v) for v in text.split(",") if v.strip())


def field_types(cls) -> dict:
    """Parser of each text key of a dataclass: every field with a default, typed by it.

    A float must be finite, and a tuple default reads as a comma list of them.
    The config sections and ``recipe.txt`` are read (and written) by this rule.
    """
    parsers = {float: _finite_float, tuple: _float_list}
    return {f.name: parsers.get(type(f.default), type(f.default))
            for f in fields(cls) if f.default is not MISSING}


def text_value(value) -> str:
    """The one value-to-text rule (CSV cells, recipe lines, filter labels): None is
    empty, floats (numpy scalars too) round-trip exactly."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def dose_map(basis: np.ndarray, scale: float, offset: float, out=None) -> np.ndarray:
    """The dose map ``scale * basis + offset`` of a scene basis, formed in ``out`` if given."""
    dose = np.multiply(basis, scale, out=out)
    dose += offset
    return dose


# recipe.txt keys that are not NoiseRecipe fields: the dose map's shape and source
_DOSE_KEYS = {"width": int, "height": int, "dose_pgm": str,
              "dose_scale": _finite_float, "dose_offset": _finite_float}


def recipe_to_text(recipe: NoiseRecipe, dose_pgm: str, dose_scale: float,
                   dose_offset: float) -> str:
    """Serialize a recipe as flat ``key = value`` lines.

    The lines are NoiseRecipe's fields in declaration order, then the dose
    map's ``width`` and ``height`` and the affine transform
    ``dose_scale * basis + dose_offset`` of the 16-bit PGM named by
    ``dose_pgm``.  Values are written by :func:`text_value`, so floats read back exactly.
    """
    h, w = recipe.dose_map.shape
    values = {name: getattr(recipe, name) for name in field_types(NoiseRecipe)}
    values.update(width=w, height=h, dose_pgm=dose_pgm, dose_scale=dose_scale,
                  dose_offset=dose_offset)
    return "".join(f"{key} = {text_value(value)}\n" for key, value in values.items())


def recipe_from_text(text: str, dose_loader) -> NoiseRecipe:
    """Rebuild a recipe; ``dose_loader(name)`` must return the dose-basis Raster.

    Every key is required.  A malformed line, an unknown or repeated key, a
    value that does not parse and a missing key are each a DomainError naming
    the line or key, and so is a dose PGM whose shape is not the recipe's.
    """
    types = field_types(NoiseRecipe) | _DOSE_KEYS
    kv: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"recipe line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise DomainError(f"recipe line {lineno}: unknown key {key!r}")
        if key in kv:
            raise DomainError(f"recipe line {lineno}: key {key!r} is given twice")
        try:
            kv[key] = types[key](value)
        except ValueError as exc:
            raise DomainError(f"recipe line {lineno}: bad value for {key}: {exc}") from exc

    def take(key):
        if key not in kv:
            raise DomainError(f"recipe has no {key!r} line")
        return kv[key]

    recipe_fields = {name: take(name) for name in field_types(NoiseRecipe)}
    shape = (take("height"), take("width"))
    basis = dose_loader(take("dose_pgm")).data
    if basis.shape != shape:
        raise DomainError(f"recipe shape {shape[1]}x{shape[0]} (width x height) does not "
                          f"match the dose PGM's {basis.shape[1]}x{basis.shape[0]}")
    return NoiseRecipe(dose_map=dose_map(basis, take("dose_scale"), take("dose_offset")),
                       **recipe_fields)
