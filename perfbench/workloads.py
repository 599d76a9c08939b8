"""The four benchmark workloads, driven through semsnr's public API.

Each workload builds its inputs from the seed alone (``setup``), runs one
unit of timed work (``run_pass``) and checks that pass's outputs
(``check``); ``run.py`` decides how often each is called.
"""

from __future__ import annotations

import csv
import math
import random
import shutil
import statistics
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from semsnr.bench import run_denoise, run_estimation, run_sweep
from semsnr.corpus import (
    CSV_MAGIC,
    CorpusSpec,
    SceneSpec,
    generate_corpus,
    iter_corpus,
    read_truth_csv,
    reference_corpus_spec,
    regenerate_image,
)
from semsnr.denoise import mse, parse_filter_spec, psnr_db
from semsnr.estimators import ALL_METHODS, SINGLE_IMAGE_METHODS, EstimatorConfig
from semsnr.raster import load_pgm

# The configuration every benchmark, calibration and regression run uses.
ESTIMATOR_CONFIG = EstimatorConfig(epsilon_policy="zero")
# Two worker threads, the value scripts/run_benchmark.py uses; each result
# records nproc next to it.
JOBS = 2
# noise_var is sized to the reference corpus noise (0.25e6 to 9.5e6); the
# README's noise_var=25 leaves PSNR unchanged and would time a no-op.
DENOISE_SPECS = (
    "ar_wiener:ar_order=2,window=7",
    "wiener_global:noise_var=1000000",
    "median:window=5",
    "bilateral:sigma_s=2,sigma_r=2000",
    "gaussian:sigma=1.5",
)
SWEEP_DOSES = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
# 16 realizations per dose keep the pooled accuracy figures within about
# 15% from seed to seed; 3 would leave them within about 25%.
SWEEP_SEEDS = 16
BASELINE_CSV = Path("tests") / "data" / "estimator_baseline.csv"
# One-sided: lower error than the pin is not a failure.  The pins are medians
# on the seed-0 corpus; over seeds 0-59 the unchanged estimators go past 1.2x
# on 6 seeds, up to 1.29x (nllsr, seed 38), so 1.2x would fail correct code.
PIN_FACTOR = 1.5
TARGET_TOLERANCE = 0.05  # realized oracle SNR vs its target, generate gate
OK_STATUSES = ("ok", "infinite")


class SetupError(Exception):
    """The checkout lacks something the benchmark needs; no result is printed."""


@dataclass
class Check:
    """Outcome of one pass's correctness gate plus its accuracy figures."""

    attempted: int
    failed: int = 0  # operations that raised or failed the gate
    status_failed: int = 0  # estimates whose status is not ok/infinite
    rel_errors: list = field(default_factory=list)
    psnrs: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


def _noisy_psnrs(corpus_dir: Path) -> list[float]:
    """PSNR of each noisy plane against its clean plane, in manifest order."""
    out = []
    for row in read_truth_csv(corpus_dir / "truth.csv"):
        noisy = load_pgm(corpus_dir / f"{row['image_id']}.noisy.pgm")
        clean = load_pgm(corpus_dir / f"{row['image_id']}.clean.pgm")
        out.append(psnr_db(mse(noisy, clean), noisy.maxval))
    return out


def load_pins(root: Path) -> dict[str, float]:
    """Median |rel err| pins per single-image method, read from the suite's data."""
    path = root / BASELINE_CSV
    if not path.is_file():
        raise SetupError(f"missing {BASELINE_CSV}")
    with open(path, newline="", encoding="ascii") as fh:
        if not fh.readline().startswith(CSV_MAGIC):
            raise SetupError(f"{BASELINE_CSV}: missing '{CSV_MAGIC}' header line")
        return {row["method"]: float(row["median_abs_rel_error"]) for row in csv.DictReader(fh)}


class Workload:
    """Common shape: a seed-derived corpus spec and a scratch directory."""

    name = ""
    unit = ""

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.work = work
        self.spec = self.corpus_spec()

    def corpus_spec(self) -> CorpusSpec:
        raise NotImplementedError

    def clear(self) -> None:
        """Empty the scratch directory, so that a set-up starts from nothing."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> int:
        """Run the timed work once; returns the units completed."""
        raise NotImplementedError

    def check(self, index: int) -> Check:
        raise NotImplementedError

    def probe_corpus(self) -> Path:
        """A corpus on disk holding this workload's kind of image, for the trace."""
        raise NotImplementedError

    def inputs(self) -> str:
        scene = self.spec.scene
        return (f"{self.spec.image_count()} images of {scene.width}x{scene.height} "
                f"({scene.kind}, {self.spec.model})")

    def manifest(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "inputs": self.inputs(),
            "corpus_spec": asdict(self.spec),
            "unit": self.unit,
        }


class Generate(Workload):
    name = "generate"
    unit = "generated image"

    def corpus_spec(self):
        return reference_corpus_spec(base_seed=self.seed)

    def setup(self):
        # one image of the same scene kind fills lazily built state before timing
        warm = replace(self.spec, snr_targets=self.spec.snr_targets[:1], seeds_per_level=1)
        generate_corpus(warm, self.work / "warmup")

    def run_pass(self, index):
        self.out = self.work / f"corpus{index}"
        self.rows = generate_corpus(self.spec, self.out)
        return len(self.rows)

    def check(self, index):
        result = Check(attempted=self.spec.image_count())
        if len(self.rows) != result.attempted:
            result.fail(result.attempted,
                        f"{len(self.rows)} truth rows, expected {result.attempted}")
            return result
        for row in self.rows:
            ratio = row["true_snr"] / row["snr_target"]
            result.rel_errors.append(abs(ratio - 1.0))
            if not abs(ratio - 1.0) <= TARGET_TOLERANCE:
                result.fail(1, f"{row['image_id']}: true/target SNR {ratio:.4f}")
        image_id = random.Random(self.seed * 1009 + index).choice(self.rows)["image_id"]
        again = regenerate_image(self.out, image_id).noisy.data
        stored = load_pgm(self.out / f"{image_id}.noisy.pgm").data
        if not np.array_equal(again, stored):
            result.fail(1, f"{image_id}: regenerated noisy plane differs from the stored one")
        if index == 0:
            result.psnrs = _noisy_psnrs(self.out)
        # the previous pass's corpus goes here, outside the timed pass
        shutil.rmtree(self.work / f"corpus{index - 1}", ignore_errors=True)
        return result

    def probe_corpus(self):
        return self.out


class Estimate(Workload):
    name = "estimate"
    unit = "estimated image"

    def corpus_spec(self):
        return reference_corpus_spec(base_seed=self.seed)

    def setup(self):
        self.pins = load_pins(self.root)
        self.corpus = self.work / "corpus"
        generate_corpus(self.spec, self.corpus)

    def run_pass(self, index):
        self.rows, self.summary = run_estimation(
            self.corpus, ALL_METHODS, ESTIMATOR_CONFIG, self.work / "results", jobs=JOBS
        )
        return len({row["image_id"] for row in self.rows})

    def check(self, index):
        # frank_alali needs a second acquisition, which the workload never passes
        rows = [r for r in self.rows if r["status"] != "not_applicable"]
        result = Check(attempted=len(rows))
        per_method: dict[str, list] = {}
        for row in rows:
            per_method.setdefault(row["method"], []).append(row)
            if row["status"] not in OK_STATUSES:
                result.status_failed += 1
            elif row["status"] == "ok":
                result.rel_errors.append(abs(row["snr_linear"] / row["oracle_snr"] - 1.0))
        ratios = []
        for line in self.summary:
            method, med = line["method"], line["median_abs_rel_error"]
            if method not in SINGLE_IMAGE_METHODS:
                continue
            pin = self.pins.get(method)
            if pin is None or med is None or not med <= PIN_FACTOR * pin:
                result.fail(len(per_method.get(method, [])),
                            f"{method}: median |rel err| {med} vs pin {pin} x {PIN_FACTOR}")
            else:
                ratios.append(f"{method} {med / pin:.3f}")
        if index == 0:
            result.psnrs = _noisy_psnrs(self.corpus)
            result.notes.append("median |rel err| / pin: " + ", ".join(ratios))
        return result

    def probe_corpus(self):
        return self.corpus


class Denoise(Workload):
    name = "denoise"
    unit = "(image, filter) output"

    def corpus_spec(self):
        return reference_corpus_spec(base_seed=self.seed, seeds_per_level=2)

    def setup(self):
        self.specs = [parse_filter_spec(text) for text in DENOISE_SPECS]
        self.corpus = self.work / "corpus"
        generate_corpus(self.spec, self.corpus)
        self.noise_energy = None

    def run_pass(self, index):
        self.reports = [
            run_denoise(self.corpus, spec, self.work / "filtered") for spec in self.specs
        ]
        return sum(len(rows) for rows in self.reports)

    def check(self, index):
        if self.noise_energy is None:
            truth = read_truth_csv(self.corpus / "truth.csv")
            self.noise_energy = {row["image_id"]: row["noise_energy"] for row in truth}
            self.noisy_psnr = statistics.fmean(_noisy_psnrs(self.corpus))
        result = Check(attempted=sum(len(rows) for rows in self.reports))
        for spec, rows in zip(self.specs, self.reports):
            for row in rows:
                err = row["mse_vs_clean"]
                if err is None or not math.isfinite(err):
                    result.fail(1, f"{row['image_id']} {row['filter']}: MSE {err}")
                else:
                    result.psnrs.append(row["psnr_db"])
            if spec.kind == "ar_wiener":
                mean_psnr = statistics.fmean(row["psnr_db"] for row in rows)
                if not mean_psnr > self.noisy_psnr:
                    result.fail(len(rows), f"ar_wiener mean PSNR {mean_psnr:.3f} dB does not "
                                           f"beat the noisy input's {self.noisy_psnr:.3f} dB")
                result.rel_errors = [
                    abs(row["estimated_noise_variance"] / self.noise_energy[row["image_id"]] - 1.0)
                    for row in rows
                ]
        return result

    def probe_corpus(self):
        return self.corpus


class Sweep(Workload):
    name = "sweep"
    unit = "sweep point"

    def corpus_spec(self):
        return CorpusSpec(scene=SceneSpec(kind="ar_field", width=128, height=128),
                          model="poisson-se", base_seed=self.seed)

    def _run(self, doses, seeds):
        return run_sweep("dose", doses, self.spec, ALL_METHODS, ESTIMATOR_CONFIG, seeds=seeds)

    def setup(self):
        self._run(SWEEP_DOSES[:1], 1)  # one point fills lazily built state

    def run_pass(self, index):
        self.rows = self._run(SWEEP_DOSES, SWEEP_SEEDS)
        return len({(row["value"], row["seed"]) for row in self.rows})

    def check(self, index):
        estimates = [r for r in self.rows if r["method"] in SINGLE_IMAGE_METHODS]
        result = Check(attempted=len(estimates))
        for row in estimates:
            # single-image methods report no "infinite" status, so a missing
            # estimate is always a failed status
            if row["estimate"] is None:
                result.status_failed += 1
            else:
                result.rel_errors.append(abs(row["estimate"] / row["reference"] - 1.0))
        points = {(r["value"], r["seed"]): r["reference"] for r in self.rows}
        medians = [statistics.median(ref for (dose, _), ref in points.items() if dose == d)
                   for d in SWEEP_DOSES]
        if not all(lo < hi for lo, hi in zip(medians, medians[1:])):
            result.fail(result.attempted, f"median oracle SNR does not rise with dose: {medians}")
        if index == 0:
            result.psnrs = self._input_psnrs()
        return result

    def _input_psnrs(self) -> list[float]:
        """PSNR of acquisitions of the sweep's scene and model at each swept dose.

        run_sweep keeps no planes, so these are fresh realizations under the
        same dose scaling (the whole dose range moves, its ratio is kept).
        """
        out = []
        mid = 0.5 * (self.spec.dose_min + self.spec.dose_max)
        for dose in SWEEP_DOSES:
            scale = dose / mid
            spec = replace(self.spec, dose_min=self.spec.dose_min * scale,
                           dose_max=self.spec.dose_max * scale,
                           snr_targets=(1.0,), seeds_per_level=SWEEP_SEEDS)
            for *_, gt, _ in iter_corpus(spec):
                out.append(psnr_db(mse(gt.noisy, gt.clean), gt.noisy.maxval))
        return out

    def probe_corpus(self):
        corpus = self.work / "probe_corpus"
        generate_corpus(replace(self.spec, seeds_per_level=1), corpus)
        return corpus

    def inputs(self):
        scene = self.spec.scene
        return (f"{len(SWEEP_DOSES)} doses x {SWEEP_SEEDS} realizations of {scene.width}x"
                f"{scene.height} ({scene.kind}, {self.spec.model})")

    def manifest(self):
        return {**super().manifest(), "doses": list(SWEEP_DOSES), "seeds_per_dose": SWEEP_SEEDS}


WORKLOADS = {cls.name: cls for cls in (Generate, Estimate, Denoise, Sweep)}
