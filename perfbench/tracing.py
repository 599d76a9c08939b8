"""The traced run: spans around calls into each semsnr layer, plus per-layer probes.

Spans are recorded from this file only.  ``Tracer.install`` swaps every
reference to a traced function in the loaded ``semsnr`` modules for a wrapper
that records (name, start, end, parent) and puts the originals back on
``uninstall``; the package itself is not changed.  Spans stay in memory until
``dump`` writes them as JSON lines.

Per-layer figures come from two sources on the workload's own inputs:

* ``calls`` counts the spans of one traced pass of the workload;
* ``ms`` (or ``s``) is the median of direct calls on one image of the
  workload's corpus, and ``peak_mib`` the tracemalloc peak of one such call.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from semsnr import bench, corpus, correlation, denoise, estimators, noise, raster
from semsnr.errors import SemSnrError

MIB = 1024.0 * 1024.0
PROBE_REPEATS = 5
LOAD_CORPUS_REPEATS = 3
CCF_ROI = 256

# (module, function, span name); a name with "{}" takes the named argument.
TRACED = (
    (corpus, "make_scene", "corpus.make_scene"),
    (corpus, "generate_corpus", "corpus.generate_corpus"),
    (corpus, "load_corpus", "corpus.load_corpus"),
    (noise, "simulate", "noise.simulate"),
    (raster, "save_pgm", "raster.save_pgm"),
    (raster, "load_pgm", "raster.load_pgm"),
    (correlation, "autocorrelation", ("correlation.autocorrelation.{}", "axis")),
    (correlation, "cross_correlate", "correlation.cross_correlate"),
    (estimators, "estimate_nn", "estimators.nn"),
    (estimators, "estimate_fol", "estimators.fol"),
    (estimators, "estimate_lsr", "estimators.lsr"),
    (estimators, "estimate_nllsr", "estimators.nllsr"),
    (estimators, "estimate_asnn", "estimators.asnn"),
    (estimators, "estimate_acldr", "estimators.acldr"),
    (estimators, "estimate_chillsrsnr", "estimators.chillsr"),
    (estimators, "estimate_smart", "estimators.smart"),
    (estimators, "estimate_frank_alali", "estimators.frank_alali"),
    (estimators, "estimate_all", "estimators.estimate_all"),
    (bench, "run_estimation", "bench.run_estimation"),
    (bench, "run_denoise", "bench.run_denoise"),
    (bench, "run_sweep", "bench.run_sweep"),
    (denoise, "estimate_noise_variance_ar", "denoise.estimate_noise_variance_ar"),
    (denoise, "wiener_local", "denoise.wiener_local"),
    (denoise, "ar_wiener", "denoise.ar_wiener"),
    (denoise, "wiener_global", "denoise.wiener_global"),
    (denoise, "spatial_filter", ("denoise.{}", "spec")),
)

ESTIMATOR_LAYERS = ("nn", "fol", "lsr", "nllsr", "asnn", "acldr", "chillsr", "smart",
                    "estimate_all")
DENOISE_LAYERS = ("estimate_noise_variance_ar", "wiener_local", "ar_wiener",
                  "wiener_global", "median", "bilateral", "gaussian")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    root: str
    thread: int
    end: float = 0.0
    error: str | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    root: str = "none"
    _ids: itertools.count = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)
    _patched: list = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter)
    _anchor: int | None = None

    def open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        # a worker thread's first span belongs to the span timed() has open
        parent = stack[-1].id if stack else self._anchor
        span = Span(next(self._ids), name, time.perf_counter() - self._t0, parent, self.root,
                    threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        self._local.stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, name):
        if isinstance(name, str):
            label = lambda args, kwargs: name  # noqa: E731
        else:
            template, param = name
            sig = inspect.signature(fn)

            def label(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                value = bound.arguments[param]
                return template.format(getattr(value, "kind", value))

        def traced(*args, **kwargs):
            span = self.open(label(args, kwargs))
            try:
                return fn(*args, **kwargs)
            except SemSnrError as exc:
                span.error = getattr(exc, "status", type(exc).__name__)
                raise
            finally:
                self.close(span)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a semsnr module refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "semsnr" or n.startswith("semsnr.")]
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def timed(self, name: str, fn) -> float:
        """Run ``fn`` as a span of its own; returns its seconds."""
        span = self.open(name)
        self._anchor = span.id
        try:
            fn()
        except SemSnrError as exc:  # typed estimator failures still took their time
            span.error = getattr(exc, "status", type(exc).__name__)
        finally:
            self._anchor = None
            self.close(span)
        return span.end - span.start

    def calls(self, root: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            if span.root == root:
                counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def self_times(self, root: str) -> dict[str, float]:
        """Per-name seconds of each span's interval that no child span covers."""
        children: dict[int, list] = {}
        for span in self.spans:
            if span.root == root and span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out: dict[str, float] = {}
        for span in self.spans:
            if span.root != root:
                continue
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(span.id, [])):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start - covered
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "root": s.root, "thread": s.thread,
                                     "error": s.error}) + "\n")


def _peak_mib(fn) -> float:
    """tracemalloc peak above the starting allocation for one call of ``fn``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            fn()
        except SemSnrError:
            pass
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


def _centered(plane, size):
    h, w = plane.shape
    size = min(size, h, w)
    y0, x0 = (h - size) // 2, (w - size) // 2
    return raster.raster_from_array(plane[y0:y0 + size, x0:x0 + size], 16)


def _probes(corpus_dir: Path, spec, work: Path, cfg, filter_specs):
    """(metric prefix, unit, callable, peak_mib?) for every per-layer probe."""
    _, _, (recipe, _, _), _, _ = next(corpus.iter_corpus(spec))
    noisy = raster.load_pgm(corpus_dir / "img0000.noisy.pgm")
    clean = raster.load_pgm(corpus_dir / "img0000.clean.pgm")
    pgm = work / "probe.pgm"
    raster.save_pgm(noisy, pgm)
    roi_a, roi_b = _centered(noisy.data, CCF_ROI), _centered(clean.data, CCF_ROI)
    filters = {f.kind: f for f in (denoise.parse_filter_spec(t) for t in filter_specs)}
    probes = [
        ("corpus.make_scene", "ms",
         lambda: corpus.make_scene(spec.scene, noise.rng_for(spec.base_seed, 0)), True),
        ("noise.simulate", "ms", lambda: noise.simulate(recipe), True),
        ("raster.save_pgm", "ms", lambda: raster.save_pgm(noisy, pgm), False),
        ("raster.load_pgm", "ms", lambda: raster.load_pgm(pgm), False),
        ("correlation.autocorrelation.x", "ms",
         lambda: correlation.autocorrelation(noisy, 5, axis="x"), False),
        ("correlation.autocorrelation.y", "ms",
         lambda: correlation.autocorrelation(noisy, 5, axis="y"), False),
        ("correlation.cross_correlate", "ms",
         lambda: correlation.cross_correlate(roi_a, roi_b), False),
    ]
    runners = {
        "nn": estimators.estimate_nn, "fol": estimators.estimate_fol,
        "lsr": estimators.estimate_lsr, "nllsr": estimators.estimate_nllsr,
        "asnn": estimators.estimate_asnn, "acldr": estimators.estimate_acldr,
        "chillsr": estimators.estimate_chillsrsnr,
        "smart": lambda img, c: estimators.estimate_smart(img, None, c),
        "estimate_all": estimators.estimate_all,
    }
    for layer in ESTIMATOR_LAYERS:
        probes.append((f"estimators.{layer}", "ms",
                       lambda run=runners[layer]: run(noisy, cfg), False))
    ar = filters["ar_wiener"]
    noise_var = filters["wiener_global"].params["noise_var"]
    denoise_calls = {
        "estimate_noise_variance_ar":
            lambda: denoise.estimate_noise_variance_ar(noisy, ar.params["ar_order"]),
        "wiener_local": lambda: denoise.wiener_local(noisy, ar.params["window"], noise_var),
        "ar_wiener": lambda: denoise.ar_wiener(noisy, ar),
        "wiener_global": lambda: denoise.wiener_global(noisy, noise_var),
    }
    for kind in ("median", "bilateral", "gaussian"):
        denoise_calls[kind] = lambda f=filters[kind]: denoise.spatial_filter(noisy, f)
    for layer in DENOISE_LAYERS:
        probes.append((f"denoise.{layer}", "ms", denoise_calls[layer], True))
    probes.append(("corpus.load_corpus", "s", lambda: corpus.load_corpus(corpus_dir), True))
    return probes, len(raster.pgm_bytes(noisy))


def traced_run(workload, cfg, filter_specs, jobs, spans_path: Path):
    """Set up once, time a warm untraced pass and a traced pass, then probe every layer.

    Returns (per-layer metrics, the passes' checks, human-readable notes).
    """
    workload.setup()
    checks = []
    for index in range(2):  # the first pass only warms up
        t0 = time.perf_counter()
        workload.run_pass(index)
        untraced = time.perf_counter() - t0
        checks.append(workload.check(index))

    tracer = Tracer()
    tracer.install()
    try:
        tracer.root = "pass"
        traced = tracer.timed("workload.pass", lambda: workload.run_pass(2))
        checks.append(workload.check(2))
        calls = tracer.calls("pass")
        self_times = tracer.self_times("pass")
        failed = sum(1 for s in tracer.spans
                     if s.root == "pass" and s.error and s.name.startswith("estimators."))

        corpus_dir = workload.probe_corpus()
        tracer.root = "probe.serial_estimation"
        tracer.timed("probe.run_estimation.jobs1", lambda: bench.run_estimation(
            corpus_dir, estimators.ALL_METHODS, cfg, None, jobs=1))
        busy = sum(s.end - s.start for s in tracer.spans
                   if s.root == tracer.root and s.name == "estimators.estimate_all")
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    bench.run_estimation(corpus_dir, estimators.ALL_METHODS, cfg, None, jobs=jobs)
    parallel_wall = time.perf_counter() - t0

    metrics: dict[str, tuple[float, str]] = {}
    probes, bytes_per_save = _probes(corpus_dir, workload.spec, workload.work, cfg,
                                     filter_specs)
    tracer.root = "probe"
    for prefix, unit, fn, with_peak in probes:
        repeats = LOAD_CORPUS_REPEATS if unit == "s" else PROBE_REPEATS
        secs = [tracer.timed(prefix, fn) for _ in range(repeats)]
        metrics[f"{prefix}.{unit}"] = (statistics.median(secs) * (1.0 if unit == "s" else 1e3),
                                       unit)
        if with_peak:
            metrics[f"{prefix}.peak_mib"] = (_peak_mib(fn), "MiB")
        metrics[f"{prefix}.calls"] = (calls.get(prefix, 0), "count")
    metrics["raster.save_pgm.bytes"] = (bytes_per_save, "bytes")
    metrics["estimators.failed"] = (failed, "count")
    metrics["bench.run_estimation.parallel_efficiency"] = (busy / (parallel_wall * jobs), "ratio")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    tracer.dump(spans_path)

    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:8]
    notes = ["traced pass self time: " + ", ".join(f"{n} {t:.3f}s" for n, t in top),
             f"spans: {len(tracer.spans)} written to {spans_path.name}"]
    return metrics, checks, notes
