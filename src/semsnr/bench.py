"""Benchmark harness: estimator runs over corpora, sensitivity sweeps, and
denoising comparisons, all reported as versioned CSV files.

Configs are flat key/value text with INI-style sections (hand-editable and
diff-friendly).  Images and seeds run on :func:`parallel.map_on_cores`;
results are aggregated in manifest order, so output is schedule-independent.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import parallel
from .corpus import (
    CorpusSpec,
    SceneSpec,
    acquisition_recipe,
    load_plane,
    read_truth_csv,
    scene_basis,
    second_realization,
    write_csv,
)
from .denoise import FilterSpec, apply_filter, filter_spec_to_string, psnr_db
from .errors import ConfigError, DataError, DomainError
from .estimators import (
    ALL_METHODS,
    DEFAULT_CONFIG,
    SINGLE_IMAGE_METHODS,
    EstimatorConfig,
    PlaneWork,
    SnrEstimate,
    check_methods,
    read_planes,
    run_rules,
    smart_region_oracle,
)
from .noise import field_types, oracle_snr, simulate
from .raster import Raster, quantize, save_pgm, variance
from .yield_snr import dose_per_pixel, snr_from_image, snr_yield

RESULTS_FIELDS = (
    "image_id",
    "oracle_snr",
    "method",
    "status",
    "snr_linear",
    "snr_db",
    "predicted_nf_peak",
    "rel_error",
    "runtime_ms",
)

SUMMARY_FIELDS = ("method", "n_ok", "n_total", "median_abs_rel_error")

SWEEP_FIELDS = ("parameter", "value", "seed", "method", "estimate", "reference")

DENOISE_FIELDS = (
    "image_id",
    "filter",
    "mse_vs_clean",
    "psnr_db",
    "estimated_noise_variance",
    "oracle_snr_before",
    "oracle_snr_after",
)


# --- config parsing -----------------------------------------------------------


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    return parser


def _read_section(cfg: configparser.ConfigParser, name: str, types: dict) -> dict:
    """One section's values parsed by ``types``; an unknown key or bad value is a ConfigError."""
    section = cfg[name]
    unknown = set(section.keys()) - set(types)
    if unknown:
        raise ConfigError(f"unknown [{name}] keys: {sorted(unknown)}")
    values = {}
    for key, text in section.items():
        try:
            values[key] = types[key](text)
        except ValueError as exc:
            raise ConfigError(f"bad [{name}] value for {key}: {exc}") from exc
    return values


def corpus_spec_from_config(cfg: configparser.ConfigParser) -> CorpusSpec:
    """The ``[corpus]`` keys are SceneSpec's fields (``kind`` spelled ``scene``) and CorpusSpec's."""
    if not cfg.has_section("corpus"):
        raise ConfigError("config has no [corpus] section")
    scene_types = {("scene" if k == "kind" else k): t for k, t in field_types(SceneSpec).items()}
    values = _read_section(cfg, "corpus", scene_types | field_types(CorpusSpec))
    scene = {("kind" if k == "scene" else k): values.pop(k) for k in scene_types if k in values}
    return CorpusSpec(scene=SceneSpec(**scene), **values)


def estimator_config_from_config(cfg: configparser.ConfigParser) -> EstimatorConfig:
    """The ``[estimate]`` keys are EstimatorConfig's fields, typed by their defaults."""
    if not cfg.has_section("estimate"):
        return DEFAULT_CONFIG
    values = _read_section(cfg, "estimate", field_types(EstimatorConfig))
    try:
        return replace(DEFAULT_CONFIG, **values)
    except DomainError as exc:
        raise ConfigError(f"bad [estimate] value: {exc}") from exc


def parse_methods(text: str) -> tuple[str, ...]:
    """A ``--methods`` value, ``all`` or a comma list; a check_methods refusal is a ConfigError."""
    if text.strip() == "all":
        return ALL_METHODS
    try:
        return check_methods(m.strip() for m in text.split(",") if m.strip())
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


# --- estimation runs ----------------------------------------------------------


def _read_image(root, truth_row, methods, est_cfg, pairs) -> tuple[PlaneWork, dict, float | None]:
    """One image's worker stage: its :class:`PlaneWork`, its timing line, paired smart's oracle.

    It reads the noisy plane and, under ``pairs``, regenerates the second
    acquisition, then runs :func:`read_planes`; no plane outlives the call.
    The timing line's ``shared_ms`` is the lag table's time and ``second_ms``,
    under ``pairs``, the time spent regenerating the second acquisition.  The
    oracle is :func:`smart_region_oracle` on smart's region (None without
    ``pairs``, without smart, or when smart returned no region).
    """
    image_id = truth_row["image_id"]
    noisy = load_plane(root, image_id, "noisy")
    t0 = time.perf_counter()
    second = second_realization(root, image_id) if pairs else None
    second_ms = (time.perf_counter() - t0) * 1000.0
    work = read_planes(noisy, est_cfg, second.noisy if pairs else None, methods)
    timing, region_oracle = {"image_id": image_id, "shared_ms": work.table_ms}, None
    if pairs:
        timing["second_ms"] = second_ms
        size = work.estimates["smart"].diagnostics.get("roi_size") if "smart" in methods else None
        if size is not None:  # second.clean is the stored clean plane
            region_oracle = smart_region_oracle(noisy, second.clean, size)
    return work, timing, region_oracle


def _image_rows(truth_row, work, timing, region_oracle, methods, est_cfg,
                pairs) -> tuple[list[dict], list[str]]:
    """One image's result rows and diagnostics.jsonl lines: its timing line, then one per method.

    It runs :func:`run_rules` on the image's :class:`PlaneWork`, so each
    single-image ``runtime_ms`` is timed here, on the caller.
    """
    image_id = truth_row["image_id"]
    results = run_rules(work, est_cfg)
    rows, lines = [], [json.dumps(timing)]
    for method in methods:
        est: SnrEstimate = results[method]
        oracle, scoring = truth_row["true_snr"], {}
        if method == "smart" and pairs:  # its region's oracle
            oracle = region_oracle
            scoring = {"oracle": "region", "roi_size": est.diagnostics.get("roi_size")}
        rel = (
            (est.snr_linear - oracle) / oracle
            if est.status == "ok" and oracle is not None and 0 < oracle < math.inf
            else None
        )
        rows.append(
            {
                "image_id": image_id,
                "oracle_snr": oracle,
                "method": method,
                "status": est.status,
                "snr_linear": est.snr_linear if est.status in ("ok", "infinite") else None,
                "snr_db": est.snr_db if est.status in ("ok", "infinite") else None,
                "predicted_nf_peak": est.predicted_nf_peak,
                "rel_error": rel,
                "runtime_ms": est.runtime_ms,
            }
        )
        lines.append(json.dumps({"image_id": image_id, "method": method, "status": est.status,
                                 **scoring, "diagnostics": est.diagnostics}))
    return rows, lines


def summarize_results(rows) -> list[dict]:
    """One row per method: ``n_ok`` counts its ok rows, the median pools those with a rel_error."""
    summary = []
    for method in sorted({row["method"] for row in rows}):
        mine = [row for row in rows if row["method"] == method]
        ok = [row for row in mine if row["status"] == "ok"]
        errs = [abs(float(row["rel_error"])) for row in ok if row["rel_error"] not in (None, "")]
        summary.append({"method": method, "n_ok": len(ok), "n_total": len(mine),
                        "median_abs_rel_error": float(np.median(errs)) if errs else None})
    return summary


def print_summary(summary) -> None:
    """One line per summary row: ok count and median |rel err|."""
    for line in summary:
        med = line["median_abs_rel_error"]
        med_text = f"{med:.4f}" if med is not None else "n/a"
        print(f"{line['method']:>12}: {line['n_ok']}/{line['n_total']} ok, "
              f"median |rel err| = {med_text}")


def run_estimation(corpus_dir, methods, est_cfg: EstimatorConfig = DEFAULT_CONFIG,
                   out_dir=None, jobs: int | None = None,
                   pairs: bool = False) -> tuple[list[dict], list[dict]]:
    """Estimate every corpus image with every requested method.

    Returns (result rows, summary rows) and, when ``out_dir`` is given, writes
    results.csv, summary.csv, and a diagnostics.jsonl sidecar holding, per
    image, one timing line (:func:`_read_image`) followed by one line per
    method.  The pass has two stages.  Each image is one item of
    :func:`parallel.map_on_cores` on ``jobs`` threads (None: every core the
    process may use): the thread reads its noisy plane and builds its lag
    table (:func:`_read_image`), and returns no plane, so memory follows
    ``jobs``, not the corpus size.  Once every item is done, the caller runs
    the single-image rules on each table and builds the rows in truth.csv
    order (:func:`_image_rows`): that Python no longer holds the interpreter
    lock while the items' NumPy passes wait for it.  An unknown method is a
    DomainError, as in ``estimate_all``.

    ``pairs`` regenerates each image's second acquisition from its recipe
    (nothing is written) and runs the two-image methods on the pair in the
    item, paired smart scored against its region's oracle; it is a
    ConfigError when ``methods`` names none of them.
    """
    methods = check_methods(methods)
    if pairs and set(methods) <= set(SINGLE_IMAGE_METHODS):
        two_image = [m for m in ALL_METHODS if m not in SINGLE_IMAGE_METHODS]
        raise ConfigError(f"pairs need a two-image method {two_image}; got {list(methods)}")
    jobs = parallel.job_count(jobs)  # a bad jobs is refused before the corpus is read
    root = Path(corpus_dir)
    truth = read_truth_csv(root / "truth.csv")
    read = parallel.map_on_cores(lambda row: _read_image(root, row, methods, est_cfg, pairs),
                                 truth, jobs)
    per_image = [_image_rows(row, *item, methods, est_cfg, pairs)
                 for row, item in zip(truth, read)]
    rows = [row for group, _ in per_image for row in group]
    summary = summarize_results(rows)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "results.csv", RESULTS_FIELDS, rows)
        write_csv(out / "summary.csv", SUMMARY_FIELDS, summary)
        with open(out / "diagnostics.jsonl", "w", encoding="ascii") as fh:
            fh.writelines(line + "\n" for _, lines in per_image for line in lines)
    return rows, summary


# --- sweeps --------------------------------------------------------------------

SWEEP_PARAMETERS = ("dose", "dwell", "contrast")
SWEEP_BEAM_CURRENT = 1e-10  # amperes; a dwell sweep's seconds -> electrons per pixel
MOMENT_CHANNELS = {"poisson-pe": "PE", "poisson-se": "SE", "binomial-bse": "BSE"}


def run_sweep(parameter: str, values, spec: CorpusSpec, methods,
              est_cfg: EstimatorConfig = DEFAULT_CONFIG, seeds: int = 3) -> list[dict]:
    """Synthetic analogs of instrument factor studies on one specimen per seed.

    ``dose`` scales the mean electrons per pixel (the scan-rate/beam-current
    analog: SNR of a counting acquisition grows like sqrt(dose)).  ``dwell``
    maps dwell seconds to dose through ``SWEEP_BEAM_CURRENT``.  ``contrast``
    scales all intensities of one fixed acquisition, which leaves
    autocorrelation based estimates unchanged; a factor whose rescaled plane
    could overflow a sum of products is a ConfigError.  The counting models of
    ``MOMENT_CHANNELS`` add a ``moment`` row first in each point: its
    estimate is the amplitude SNR (mean - dc_offset) / sd of a flat field at
    the mid dose under the same recipe (:func:`snr_from_image`), and its
    reference is the emission law :func:`snr_yield` of the model's channel at
    that dose, not the scene's power oracle that every method row carries.

    A ``methods`` that names a two-image method is a ConfigError raised before
    any scene is built, unless it is the whole registry (``ALL_METHODS``, as
    ``--methods all`` gives), whose single-image methods are swept.

    Seed ``i``'s scene (stream ``i`` of the base seed) is synthesized once and
    shared by all of its points; a contrast sweep also acquires it once and
    rescales that acquisition per value.  It runs :func:`run_estimation`'s two
    stages.  Each seed is one item of :func:`parallel.map_on_cores` on every
    core the process may use (``taskset -c 0`` runs it serially, on the calling
    thread) and returns, per value, its point's :func:`read_planes` work,
    moment pair and scene oracle, never a plane, so memory holds
    ``min(cores, seeds)`` seeds' planes.  The caller then runs :func:`run_rules`
    on each point; rows come in value-major order, the same for every core count.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    if seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {seeds}")
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep range is empty")
    bad = [v for v in values if not (math.isfinite(v) and v > 0.0)]
    if bad:
        raise ConfigError(f"sweep --range values must be finite and > 0, got {bad}")
    if any(lo >= hi for lo, hi in zip(values, values[1:])):
        raise ConfigError(f"sweep --range values must be strictly increasing, got {values}")
    contrast = parameter == "contrast"
    if contrast:
        # a stored plane lies in [0, maxval], so this bounds each raw-product sum of a rescaled copy
        maxval = Raster(np.zeros((2, 2)), spec.bit_depth).maxval
        pixels = spec.scene.width * spec.scene.height
        big = [v for v in values if not math.isfinite(pixels * (v * maxval) * (v * maxval))]
        if big:
            raise ConfigError(f"contrast values {big} overflow the sums of a {pixels}-pixel plane")
    methods = check_methods(methods)
    two_image = [m for m in methods if m not in SINGLE_IMAGE_METHODS]
    if two_image and set(methods) != set(ALL_METHODS):
        raise ConfigError(f"sweep runs single-image methods only {SINGLE_IMAGE_METHODS}; "
                          f"got {two_image}")
    single = [m for m in methods if m in SINGLE_IMAGE_METHODS]
    doses = ([(0.5 * (spec.dose_min + spec.dose_max), spec)] * len(values) if contrast
             else _scaled_doses(parameter, values, spec))

    def read_seed(seed) -> list[tuple[PlaneWork, tuple | None, float]]:
        """Each value's worker stage for one seed: its PlaneWork, moment pair and scene oracle."""
        basis = scene_basis(spec, seed)
        kept = _acquire_point(spec, basis, seed, doses[0][0]) if contrast else None
        points = []
        for value, (dose, local) in zip(values, doses):
            gt, moment = kept or _acquire_point(local, basis, seed, dose)
            points.append((read_planes(gt.noisy.scaled(value) if contrast else gt.noisy, est_cfg,
                                       methods=single), moment, gt.true_snr))
            del gt  # a dose or dwell acquisition is freed before the next one is made
        return points

    per_seed = parallel.map_on_cores(read_seed, range(seeds), None)
    rows = []
    for i, value in enumerate(values):
        for seed, (work, moment, oracle) in enumerate(points[i] for points in per_seed):
            results = run_rules(work, est_cfg)
            cells = [] if moment is None else [("moment", *moment)]
            cells += [(m, results[m].snr_linear if results[m].status == "ok" else None, oracle)
                      for m in single]
            rows += [dict(zip(SWEEP_FIELDS, (parameter, value, seed, *cell))) for cell in cells]
    return rows


def _scaled_doses(parameter, values, spec) -> list[tuple[float, CorpusSpec]]:
    """Each ``dose`` or ``dwell`` value's dose and the spec whose dose range is scaled to it.

    The whole range is scaled, so the configured contrast ratio is kept; a
    value that scales ``dose_min`` to 0 is a ConfigError naming the value and
    the scaled range, raised before any point runs.
    """
    mid = 0.5 * (spec.dose_min + spec.dose_max)
    doses = []
    for value in values:
        dose = value if parameter == "dose" else dose_per_pixel(SWEEP_BEAM_CURRENT, value)
        scale = dose / mid
        lo, hi = spec.dose_min * scale, spec.dose_max * scale
        if lo == 0.0:
            raise ConfigError(f"sweep {parameter} value {value!r} scales the doses to "
                              f"[{lo!r}, {hi!r}]: dose_min underflows to 0")
        doses.append((dose, replace(spec, dose_min=lo, dose_max=hi)))
    return doses


def _acquire_point(spec, basis, seed, dose):
    """Acquire ``basis`` with noise seed ``seed + 1``: (ground truth, moment pair or None).

    No name keeps the :func:`acquisition_recipe` handed to :func:`simulate`, so
    the dose map is freed before the deviation plane is made: a point holds
    three planes.  The moment pair (models of ``MOMENT_CHANNELS`` only) is the
    amplitude SNR of a 64x64 flat field at ``dose`` under ``spec.recipe`` with
    the same noise seed (these models have no gaussian_sigma, so it is the
    acquisition's recipe with that dose map) and :func:`snr_yield` at ``dose``
    for the model's channel; either is None where its formula has no value (a
    flat field with sd 0 or mean at most dc_offset, a zero backscatter yield).
    """
    gt = simulate(acquisition_recipe(spec, basis, seed + 1, spec.snr_targets[0])[0])
    channel = MOMENT_CHANNELS.get(spec.model)
    if channel is None:
        return gt, None
    flat = simulate(spec.recipe(np.full((64, 64), dose), seed=seed + 1)).noisy.data
    return gt, (_defined(snr_from_image, float(flat.mean()), spec.dc_offset, float(flat.std())),
                _defined(snr_yield, dose, channel, spec.se_yield, spec.bse_yield,
                         spec.yield_inflation))


def _defined(formula, *args):
    """``formula(*args)``, or None where it raises a DomainError."""
    try:
        return formula(*args)
    except DomainError:
        return None


# --- denoising runs -------------------------------------------------------------


def run_denoise(corpus_dir, spec: FilterSpec, out_dir) -> list[dict]:
    """Filter every noisy corpus image and score it against its clean plane.

    Each image is one item of :func:`parallel.map_on_cores` on every core the
    process may use (``taskset -c 0`` runs them serially, on the calling
    thread); rows come in truth.csv order and are the same for every core
    count.  An item reads its noisy plane, filters it, keeps only its shape
    and bit depth, and only then reads its clean plane: one plane, output -
    clean, gives ``mse_vs_clean``, ``psnr_db`` and ``oracle_snr_after``, the
    image's ``signal_energy`` over var(output - clean), so scoring holds three
    planes.  ``oracle_snr_before`` is truth.csv's ``true_snr``.
    This is the one place a filtered plane is scored: the filters only return it.
    The filtered planes are quantized back to the input bit depth and written
    to ``out_dir`` as ``<id>.filtered.pgm``, and the rows as report.csv.
    A filter that raises a DomainError on an image (a window or AR model too
    large for it) is a ConfigError naming the filter, the image and its size.
    A failing image ends the pass: no image that has not started by then starts.
    """
    root = Path(corpus_dir)
    truth = read_truth_csv(root / "truth.csv")
    label = filter_spec_to_string(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one_image(truth_row) -> dict:
        image_id = truth_row["image_id"]
        noisy = load_plane(root, image_id, "noisy")
        try:
            report = apply_filter(noisy, spec)
        except DomainError as exc:
            raise ConfigError(f"filter {label} cannot run on corpus image {image_id} "
                              f"({noisy.width}x{noisy.height}): {exc}") from exc
        shape, bit_depth = noisy.data.shape, noisy.bit_depth
        del noisy  # freed before the clean plane is read (peak RSS)
        clean = load_plane(root, image_id, "clean")
        if clean.data.shape != shape:
            raise DataError(f"corpus image {image_id}: its clean and noisy planes differ in size")
        work = report.output.data - clean.data
        del clean
        err = float(np.mean(work**2))  # denoise.mse(output, clean), bit for bit
        noise = variance(work, work)
        del work  # freed before quantize makes its plane (peak RSS)
        stored, _ = quantize(report.output, bit_depth)
        save_pgm(stored, out / f"{image_id}.filtered.pgm")
        return {
            "image_id": image_id,
            "filter": label,
            "mse_vs_clean": err,
            "psnr_db": psnr_db(err, report.output.maxval),
            "estimated_noise_variance": report.estimated_noise_variance,
            "oracle_snr_before": truth_row["true_snr"],
            "oracle_snr_after": oracle_snr(truth_row["signal_energy"], noise),
        }

    rows = parallel.map_on_cores(one_image, truth, None)
    write_csv(out / "report.csv", DENOISE_FIELDS, rows)
    return rows
