"""Deterministic synthetic corpora with per-image oracle SNR.

A corpus directory holds, per image id:

* ``<id>.scene.pgm``   16-bit basis pattern the dose map is an affine map of
* ``<id>.recipe.txt``  flat key/value acquisition recipe (regenerates exactly)
* ``<id>.clean.pgm``   expected (noise-free) acquisition
* ``<id>.noisy.pgm``   realized noisy acquisition

plus ``truth.csv`` (one oracle row per image) and ``manifest.txt``, a flat
key/value summary of the run (scene kind, size, model, base seed, and each
image's id, seed and SNR target).  Each image regenerates exactly from its
``recipe.txt`` and scene PGM; per-image RNG streams derive from (corpus seed,
image index).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .denoise import gaussian_blur
from .errors import ConfigError, DataError, DomainError
from .noise import (
    GroundTruth,
    NoiseRecipe,
    count_yield,
    dose_map,
    recipe_from_text,
    recipe_to_text,
    rng_for,
    simulate,
    text_value,
)
from .parallel import job_count, map_on_cores
from .raster import (
    Raster,
    irfft2,
    load_pgm,
    quantize,
    quantize_in_place,
    rfft2,
    save_pgm,
    variance,
)

SCENE_KINDS = ("ar_field", "spectral", "blobs", "ramp", "constant")

# amplitude spectra kept by _spectral_amplitude (one per scene size and shape)
_AMPLITUDE_CACHE_SIZE = 4

CSV_MAGIC = "# semsnr-csv v1"

TRUTH_FIELDS = (
    "image_id",
    "seed",
    "model",
    "delta",
    "eta",
    "gain",
    "idc",
    "signal_energy",
    "noise_energy",
    "true_snr",
    "scene",
    "snr_target",
)
_TRUTH_FLOATS = ("delta", "eta", "gain", "idc", "signal_energy", "noise_energy", "true_snr",
                 "snr_target")


@dataclass(frozen=True)
class SceneSpec:
    """A reproducible scene pattern, normalized to [0, 1].

    ``ar_field`` is first-order-autoregressive texture (exponential-family
    correlation, shape varies between realizations).  ``spectral`` synthesizes
    a random-phase field with a deterministic amplitude spectrum matched to an
    exponential correlation of ``corr_length`` plus a white ``spectral_nugget``
    share, so every realization shares essentially the same autocorrelation
    shape.
    """

    kind: str = "ar_field"
    width: int = 128
    height: int = 128
    corr_length: float = 8.0  # e-folding length of the correlation
    spectral_nugget: float = 0.012  # white (per-pixel) share of the spectral target
    n_blobs: int = 12
    blob_sigma: float = 6.0

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ConfigError(f"unknown scene kind {self.kind!r}; expected one of {SCENE_KINDS}")
        if self.width < 2 or self.height < 2:
            raise ConfigError("scene must be at least 2x2")
        if self.corr_length <= 0.0 or self.blob_sigma <= 0.0 or self.n_blobs < 1:
            raise ConfigError("scene parameters must be positive")
        if not (0.0 <= self.spectral_nugget < 1.0):
            raise ConfigError("spectral_nugget must be in [0, 1)")


def _ar1_both_axes(noise: np.ndarray, phi: float) -> np.ndarray:
    """First-order recursion down the rows, then along the columns, in ``noise`` itself."""
    for i in range(1, noise.shape[0]):
        noise[i] += phi * noise[i - 1]
    for j in range(1, noise.shape[1]):
        noise[:, j] += phi * noise[:, j - 1]
    return noise


@functools.lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _spectral_amplitude(h: int, w: int, corr_length: float, nugget: float) -> np.ndarray:
    """Read-only ``h x (w//2 + 1)`` half-spectrum amplitude of the spectral target.

    The target circular autocorrelation is (1 - nugget) * exp(-r / corr_length)
    plus a white nugget at zero offset (per-pixel fine detail).  Both
    components have nonnegative power spectra, so the amplitude spectrum is
    exact and depends only on the arguments; it is cached on them.
    """
    dy = np.minimum(np.arange(h), h - np.arange(h))[:, None]
    dx = np.minimum(np.arange(w), w - np.arange(w))[None, :]
    smooth_psd = rfft2(np.exp(-np.hypot(dy, dx) / corr_length)).real
    amplitude = np.sqrt((1.0 - nugget) * np.maximum(smooth_psd, 0.0) + nugget)
    amplitude[0, 0] = 0.0  # mean handled by normalization
    amplitude.flags.writeable = False
    return amplitude


def _spectral_field(h: int, w: int, corr_length: float, nugget: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Random-phase field with a deterministic, estimator-friendly correlation.

    Every realization shares the amplitude spectrum of ``_spectral_amplitude``,
    and so the same sample autocorrelation shape; only the phases are random.
    """
    amplitude = _spectral_amplitude(h, w, corr_length, nugget)
    # Hermitian-symmetric unit phases from a real white field keep the
    # synthesized field real and its amplitude spectrum exactly on target.
    # The phases are built in the transform's own plane; a zero bin gets phase 1.
    white = rng.standard_normal((h, w))
    spectrum = rfft2(white)
    magnitude = np.abs(spectrum)
    with np.errstate(divide="ignore", invalid="ignore"):
        spectrum /= magnitude
    spectrum[magnitude == 0.0] = 1.0
    spectrum *= amplitude
    del magnitude
    field_ = irfft2(spectrum, w, out=white)  # the white field is not read again
    # Equalize row and column means: overlap windows of the lagged product
    # sums then share the same mean, which keeps sample autocorrelation tails
    # stable when the intensity offset dwarfs the contrast.
    field_ -= field_.mean(axis=0, keepdims=True)
    field_ -= field_.mean(axis=1, keepdims=True)
    return field_


def make_scene(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Render the scene pattern into [0, 1] in a new plane; deterministic given the generator."""
    h, w = spec.height, spec.width
    if spec.kind == "constant":
        return np.full((h, w), 0.5)
    if spec.kind == "ramp":
        xs = np.linspace(0.0, 1.0, w)[None, :]
        ys = np.sin(np.linspace(0.0, 4.0 * math.pi, h))[:, None]
        field_ = xs + 0.25 * (ys + 1.0)
    elif spec.kind == "ar_field":
        phi = math.exp(-1.0 / spec.corr_length)
        field_ = _ar1_both_axes(rng.standard_normal((h, w)), phi)
    elif spec.kind == "spectral":
        field_ = _spectral_field(h, w, spec.corr_length, spec.spectral_nugget, rng)
    else:  # blobs
        field_ = np.zeros((h, w))
        ys, xs = np.ogrid[0:h, 0:w]
        for _ in range(spec.n_blobs):
            cy, cx = rng.uniform(0, h), rng.uniform(0, w)
            amp = rng.uniform(0.3, 1.0)
            field_ += amp * np.exp(
                -((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * spec.blob_sigma**2)
            )
        field_ = gaussian_blur(field_, 1.0)
    lo, hi = float(field_.min()), float(field_.max())
    if hi - lo < 1e-12:
        return np.full((h, w), 0.5)
    field_ -= lo
    field_ /= hi - lo
    return field_


@dataclass(frozen=True)
class CorpusSpec:
    """Template for a batch of synthetic acquisitions.

    For the additive-gaussian model ``snr_targets`` states the intended
    signal/noise variance ratio per image; the exact realized oracle is
    recorded in truth.csv.  Counting models instead scale the scene into
    [dose_min, dose_max] electrons per pixel.  A spec that would build no
    image, or no valid acquisition, is a ConfigError, and so is one whose
    clean intensity ``dose_max * count_yield * detector_gain + dc_offset``
    would clamp at the bit depth's maximum (no plane is drawn to tell), or
    whose ``yield_inflation`` is not 1 under a model other than poisson-se.
    """

    scene: SceneSpec = field(default_factory=SceneSpec)
    model: str = "additive-gaussian"
    snr_targets: tuple[float, ...] = (1.0, 5.0, 20.0)
    seeds_per_level: int = 3
    base_seed: int = 0
    dose_min: float = 50.0
    dose_max: float = 400.0
    se_yield: float = 0.16
    bse_yield: float = 0.30
    yield_inflation: float = 1.0
    detector_gain: float = 1.0
    dc_offset: float = 200.0
    bit_depth: int = 16

    def __post_init__(self):
        if self.image_count() < 1:
            raise ConfigError("a corpus needs at least one snr target and one seed per level")
        if not (0.0 < self.dose_min <= self.dose_max):
            raise ConfigError("doses must satisfy 0 < dose_min <= dose_max")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        try:  # NoiseRecipe's model, yield, gain and offset rules and quantize's bit depths
            recipe = self.recipe(np.ones((1, 1)))
            # the clean plane's top intensity as simulate builds it, stored by quantize's rule
            top = self.dose_max * count_yield(recipe) * self.detector_gain + self.dc_offset
            stored, clamped = quantize(np.full((2, 2), top), self.bit_depth)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if clamped:
            raise ConfigError(f"the clean intensity at dose_max is {top!r}, which would clamp at "
                              f"the {self.bit_depth}-bit maximum {stored.maxval}")
        if self.yield_inflation != 1.0 and self.model != "poisson-se":
            raise ConfigError(f"yield_inflation {self.yield_inflation!r} is a poisson-se key; "
                              f"model {self.model!r} ignores it")

    def image_count(self) -> int:
        return len(self.snr_targets) * self.seeds_per_level

    def recipe(self, dose_map, gaussian_sigma: float = 0.0, seed: int = 0) -> NoiseRecipe:
        """The acquisition recipe of one image under this spec's model and detector."""
        return NoiseRecipe(dose_map=dose_map, emission_model=self.model, se_yield=self.se_yield,
                           bse_yield=self.bse_yield, yield_inflation=self.yield_inflation,
                           gaussian_sigma=gaussian_sigma, detector_gain=self.detector_gain,
                           dc_offset=self.dc_offset, seed=seed, bit_depth=self.bit_depth)


@dataclass(frozen=True)
class CorpusImage:
    image_id: str
    clean: Raster
    noisy: Raster
    truth: dict


def write_csv(path, fieldnames, rows) -> None:
    """Write ``rows`` under the version line and a header, each cell by
    :func:`noise.text_value`; other keys are ignored."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(CSV_MAGIC + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([text_value(row.get(k)) for k in fieldnames] for row in rows)


def read_csv(path) -> list[dict]:
    """Rows of a versioned CSV as dicts; a missing, unversioned or non-ASCII file is a DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing CSV file {path}")
    with open(path, newline="", encoding="ascii") as fh:
        try:
            if fh.readline().rstrip("\r\n") != CSV_MAGIC:
                raise DataError(f"{path}: missing '{CSV_MAGIC}' header line")
            return list(csv.DictReader(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not an ASCII CSV file: {exc}") from exc


def read_truth_csv(path) -> list[dict]:
    """truth.csv rows with the oracle fields as floats and the seed as an int."""
    rows = read_csv(path)
    try:
        for row in rows:
            row.update({k: float(row[k]) for k in _TRUTH_FLOATS}, seed=int(row["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad truth row: {exc!r}") from exc
    return rows


def scene_basis(spec: CorpusSpec, stream: int) -> Raster:
    """The 16-bit quantized scene of RNG stream (base_seed, ``stream``): what a dose map maps."""
    scene = make_scene(spec.scene, rng_for(spec.base_seed, stream))
    scene *= 65535.0
    return quantize_in_place(scene, 16)[0]


def acquisition_recipe(spec: CorpusSpec, basis: Raster, seed: int, target: float | None):
    """The recipe of one acquisition of ``basis``: (recipe, dose_scale, dose_offset).

    The dose map is an affine map of the :func:`scene_basis` raster, so a
    serialized recipe regenerates the acquisition exactly, and one basis can
    be acquired under any number of specs or seeds (it is read, never
    written, and the recipe does not refer to it).  The noise comes from
    ``seed``; ``target`` is the additive-gaussian SNR target, unused by the
    counting models.
    """
    dose_scale = (spec.dose_max - spec.dose_min) / 65535.0
    work = np.empty_like(basis.data)  # the clean intensity plane, then the dose map
    sigma = 0.0
    if spec.model == "additive-gaussian":
        if target is None or target <= 0.0:
            raise ConfigError("the additive-gaussian model needs a positive snr target")
        intensity = np.multiply(basis.data, dose_scale, out=work)
        intensity += spec.dose_min
        intensity *= spec.detector_gain
        intensity += spec.dc_offset
        sigma_intensity = math.sqrt(variance(intensity, intensity) / target)
        sigma = sigma_intensity / spec.detector_gain  # recipe sigma acts on counts
    dose = dose_map(basis.data, dose_scale, spec.dose_min, out=work)  # basis holds 0..65535
    return spec.recipe(dose, sigma, seed), dose_scale, spec.dose_min


def _image_noise(spec: CorpusSpec, index: int) -> tuple[float, int]:
    """Image ``index``'s (snr target, noise seed); they derive from (base_seed, index) alone."""
    target = spec.snr_targets[index // spec.seeds_per_level]
    return target, int(np.random.SeedSequence((spec.base_seed, index)).generate_state(1)[0])


def corpus_image(spec: CorpusSpec, index: int):
    """Image ``index`` of the corpus: (image_id, basis, built, ground_truth, truth_row).

    ``basis`` is the stored 16-bit scene raster of :func:`scene_basis`,
    ``built`` the (recipe, dose_scale, dose_offset) triple of
    :func:`acquisition_recipe` and ``ground_truth`` its recipe simulated; the
    tuple keeps the recipe, so its dose map outlives the call.  The image's
    randomness derives from (base_seed, index) alone, so any set of images
    can be acquired in any order, or at once.
    """
    target, seed = _image_noise(spec, index)
    basis = scene_basis(spec, index)
    built = acquisition_recipe(spec, basis, seed, target)
    gt = simulate(built[0])
    return f"img{index:04d}", basis, built, gt, _truth_row(spec, index, seed, target, gt)


def _truth_row(spec: CorpusSpec, index: int, seed: int, target: float, gt: GroundTruth) -> dict:
    return {
        "image_id": f"img{index:04d}",
        "seed": seed,
        "model": spec.model,
        "delta": spec.se_yield,
        "eta": spec.bse_yield,
        "gain": spec.detector_gain,
        "idc": spec.dc_offset,
        "signal_energy": gt.signal_energy,
        "noise_energy": gt.noise_energy,
        "true_snr": gt.true_snr,
        "scene": spec.scene.kind,
        "snr_target": float(target),
    }


def iter_corpus(spec: CorpusSpec):
    """Yield every :func:`corpus_image` tuple in manifest order, one image at a time."""
    for index in range(spec.image_count()):
        yield corpus_image(spec, index)


def _write_recipe(spec: CorpusSpec, index: int, seed: int, target: float,
                  out: Path) -> NoiseRecipe:
    """Write image ``index``'s scene PGM and recipe.txt, and return its recipe.

    The scene basis is dropped when this returns, before the noise is simulated.
    """
    image_id = f"img{index:04d}"
    basis = scene_basis(spec, index)
    scene_name = f"{image_id}.scene.pgm"
    save_pgm(basis, out / scene_name)
    recipe, dose_scale, dose_offset = acquisition_recipe(spec, basis, seed, target)
    with open(out / f"{image_id}.recipe.txt", "w", encoding="ascii") as fh:
        fh.write(recipe_to_text(recipe, dose_pgm=scene_name,
                                dose_scale=dose_scale, dose_offset=dose_offset))
    return recipe


def _write_image(spec: CorpusSpec, index: int, out: Path) -> dict:
    """Acquire one image and write its four files; only its truth row outlives the call.

    The recipe of :func:`_write_recipe` is handed straight to simulate, and no
    name here holds it, so simulate frees the dose map before it makes its
    deviation plane and the image holds at most three planes at once.
    """
    image_id = f"img{index:04d}"
    target, seed = _image_noise(spec, index)
    gt = simulate(_write_recipe(spec, index, seed, target, out))
    save_pgm(gt.clean, out / f"{image_id}.clean.pgm")
    save_pgm(gt.noisy, out / f"{image_id}.noisy.pgm")
    return _truth_row(spec, index, seed, target, gt)


def generate_corpus(spec: CorpusSpec, out_dir, jobs: int | None = None) -> list[dict]:
    """Write a full corpus; returns the truth rows in manifest order.

    Each image is one item of :func:`parallel.map_on_cores` on ``jobs``
    threads (None: every core the process may use; one runs every image on
    the caller), so memory follows ``jobs``, not the corpus size; every file
    is the same for every ``jobs``.  A failing image ends the pass: no image
    that has not started by then starts.
    """
    jobs = job_count(jobs)  # a bad jobs is refused before the directory is made
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = map_on_cores(lambda index: _write_image(spec, index, out),
                        range(spec.image_count()), jobs)
    manifest = [
        f"scene_kind = {spec.scene.kind}",
        f"width = {spec.scene.width}",
        f"height = {spec.scene.height}",
        f"model = {spec.model}",
        f"base_seed = {spec.base_seed}",
        f"images = {spec.image_count()}",
    ]
    manifest += [f"image = {row['image_id']} seed = {row['seed']} target = {row['snr_target']!r}"
                 for row in rows]
    write_csv(out / "truth.csv", TRUTH_FIELDS, rows)
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="ascii")
    return rows


def reference_corpus_spec(base_seed: int = 0, seeds_per_level: int = 9) -> CorpusSpec:
    """The standard oracle benchmark corpus used by the regression suite.

    54 random-phase scenes at 512x512 with a deterministic correlation shape,
    additive white Gaussian noise targeted at six SNR levels.  The scene
    parameters were chosen so every bundled estimator stays on its defined
    branch (finite, non-degenerate) across the whole grid.
    """
    return CorpusSpec(
        scene=SceneSpec(kind="spectral", width=512, height=512,
                        corr_length=110.0, spectral_nugget=0.004),
        model="additive-gaussian",
        snr_targets=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
        seeds_per_level=seeds_per_level,
        base_seed=base_seed,
        dose_min=5000.0,
        dose_max=30000.0,
        dc_offset=20000.0,
        bit_depth=16,
    )


def load_plane(corpus_dir, image_id: str, kind: str) -> Raster:
    """One stored plane of one image: ``kind`` is scene, clean or noisy."""
    path = Path(corpus_dir) / f"{image_id}.{kind}.pgm"
    if not path.exists():
        raise DataError(f"corpus image {image_id} is missing its {kind} plane {path}")
    return load_pgm(path)


def load_corpus(corpus_dir) -> list[CorpusImage]:
    """Every image in the truth file with both planes in memory; runs use ``load_plane``."""
    root = Path(corpus_dir)
    return [
        CorpusImage(row["image_id"], load_plane(root, row["image_id"], "clean"),
                    load_plane(root, row["image_id"], "noisy"), row)
        for row in read_truth_csv(root / "truth.csv")
    ]


def _read_recipe(corpus_dir, image_id: str) -> NoiseRecipe:
    """One image's recipe over its own scene plane; any fault is a DataError naming the file."""
    root = Path(corpus_dir)
    path = root / f"{image_id}.recipe.txt"
    if not path.exists():
        raise DataError(f"corpus image {image_id} is missing its recipe {path}")

    def scene(name: str) -> Raster:
        if name != f"{image_id}.scene.pgm":
            raise DataError(f"{path}: dose_pgm {name!r} is not {image_id}.scene.pgm")
        return load_plane(root, image_id, "scene")

    try:
        return recipe_from_text(path.read_text(encoding="ascii"), dose_loader=scene)
    except (DomainError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def regenerate_image(corpus_dir, image_id: str) -> GroundTruth:
    """Re-run the persisted recipe for one image (reproducibility check).

    The recipe is handed straight to simulate, which frees its dose map
    before it makes its deviation plane: three planes at most.
    """
    return simulate(_read_recipe(corpus_dir, image_id))


def second_seed(seed: int) -> int:
    """The noise seed of the second acquisition of an image whose noise seed is ``seed``."""
    return int(np.random.SeedSequence((seed, 0x5EC0ED)).generate_state(1)[0])


def second_realization(corpus_dir, image_id: str) -> GroundTruth:
    """Simulate an independent second acquisition of the same scene.

    The recipe is identical except for the :func:`second_seed` of its own,
    giving the aligned image pair that two-acquisition estimators need; its
    clean plane is the stored one bit for bit.  As in :func:`regenerate_image`,
    no name outlives the call to simulate that holds the recipe or its dose map.
    """
    return simulate(_reseeded(_read_recipe(corpus_dir, image_id)))


def _reseeded(recipe: NoiseRecipe) -> NoiseRecipe:
    """``recipe`` with its :func:`second_seed`; the two share one dose map."""
    return replace(recipe, seed=second_seed(recipe.seed))
