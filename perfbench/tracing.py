"""Spans at the package's layer boundaries, installed from outside.

The benchmark edits no file of the package. It replaces the module attributes
that other modules call through (``bench.resize``, ``interpolate._w.*`` and so
on) with timing wrappers and puts the originals back afterwards. A boundary
that a later refactor removes is reported as missing, never as a crash.

Spans are kept in memory, each with a name, start, end, parent span and
operation id, and written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("image", "weights", "interpolate", "metrics", "bench", "report", "cli")
SCHEMES = ("TN", "TB", "TC", "MD", "HR", "AT", "AC")
WEIGHT_FUNCS = ("tetragon", "md", "hr", "at", "ac")
PRIVATE_BOUNDARIES = ("_weighted_field", "_bicubic_field", "_quantize")
CLI_COMMANDS = ("resize", "metrics", "bench")


def raster_digest(pixels):
    """SHA-256 of a raster's shape and row-major bytes."""
    h, w = pixels.shape
    return bytes_digest(h, w, pixels.tobytes())


def bytes_digest(h, w, raster):
    """SHA-256 of an h x w raster given as row-major bytes."""
    return hashlib.sha256(f"{h}x{w}:".encode() + raster).hexdigest()


def resize_name(args, kwargs):
    """Span name of a ``resize(image, ratio, scheme, ...)`` call."""
    scheme = kwargs.get("scheme", args[2] if len(args) > 2 else "?")
    return f"interpolate.resize.{scheme}"


def all_boundaries():
    """(module, attribute, span name) for every boundary the traced run wraps.

    The span name is a string or a function of the call's arguments.
    """
    out = [("tetrascale.weights", f"{fn}_weights", f"weights.{fn}") for fn in WEIGHT_FUNCS]
    out.append(("tetrascale.metrics", "mse", "metrics.mse"))
    out += [("tetrascale.interpolate", n, f"interpolate.{n}") for n in PRIVATE_BOUNDARIES]
    out.append(("tetrascale", "resize", resize_name))
    for mod in ("tetrascale.bench", "tetrascale.cli"):
        out += [
            (mod, "resize", resize_name),
            (mod, "mse", "metrics.mse"),
            (mod, "psnr", "metrics.psnr"),
            (mod, "ssim", "metrics.ssim"),
            (mod, "load_image", "image.load"),
            (mod, "save_pgm", "image.save"),
        ]
    out += [
        ("tetrascale.bench", "downsample", "bench.downsample"),
        ("tetrascale.cli", "run_benchmark", "bench.run_benchmark"),
        ("tetrascale.cli", "write_records_csv", "bench.write.records"),
        ("tetrascale.cli", "write_aggregates_csv", "bench.write.aggregates"),
        ("tetrascale.cli", "write_summary_json", "bench.write.summary"),
        ("tetrascale.cli", "write_report", "report.write_report"),
    ]
    return out


@dataclass
class Span:
    sid: int
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    op: str | None
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def dur(self):
        return self.end - self.start

    def as_json(self):
        return {
            "id": self.sid, "name": self.name, "site": self.site,
            "start": self.start, "end": self.end, "parent": self.parent,
            "op": self.op, "error": self.error, **self.info,
        }


def _file_mb(path):
    try:
        return os.path.getsize(path) / 2**20
    except (OSError, TypeError):
        return 0.0


class Tracer:
    """Wraps the given boundaries while installed and records one span per call.

    Consecutive resize calls on one input with one scheme and ratio share a
    ``group`` number in their spans' info. For the first call of a group made
    by ``tetrascale.bench`` (the warm-up whose output bench scores) the span
    also holds the output's ``digest`` and ``check_s``, the time the digest
    took, which the workload leaves out of the command's time.
    """

    def __init__(self, boundaries):
        self.boundaries = boundaries
        self.spans = []
        self.missing = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._last_input = None
        self._input_token = 0
        self._last_group = None
        self._group_token = 0
        self._last_ref = None
        self._ref_token = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        self.missing = []
        for modname, attr, name in self.boundaries:
            module = sys.modules.get(modname)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, modname))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._last_input = self._last_group = self._last_ref = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, site):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, site, fn, args, kwargs)

        return wrapper

    def call(self, name, site, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        span = Span(sid, name, site, 0.0, 0.0, stack[-1] if stack else None, self.op)
        stack.append(sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        self._annotate(span, args, result)
        return result

    def _annotate(self, span, args, result):
        # Runs after the span has closed, so its cost stays out of span times.
        if span.name.startswith("interpolate.resize."):
            if args and args[0] is not self._last_input:
                self._last_input = args[0]
                self._input_token += 1
            group = (self._input_token, span.name, args[1] if len(args) > 1 else None)
            if group != self._last_group:
                self._last_group = group
                self._group_token += 1
                if span.site == "tetrascale.bench":
                    tic = time.perf_counter()
                    span.info["digest"] = raster_digest(result.pixels)
                    span.info["check_s"] = time.perf_counter() - tic
            span.info["group"] = self._group_token
            span.info["px"] = int(result.pixels.size)
        elif span.name == "metrics.ssim" and args:
            if args[0] is not self._last_ref:
                self._last_ref = args[0]
                self._ref_token += 1
            span.info["reference"] = self._ref_token
        elif span.name == "image.load" and args:
            span.info["mb"] = _file_mb(args[0])
        elif span.name == "image.save" and len(args) > 1:
            span.info["mb"] = _file_mb(args[1])


def self_times(spans):
    """Span id -> duration minus the time its direct children cover, and
    minus the benchmark's output checks made after those children closed."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.dur + s.info.get("check_s", 0.0)
    return {s.sid: s.dur - covered[s.sid] for s in spans}


def layer_metrics(spans, passes, records):
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Times and counts are per pass. ``records`` is the number of scored
    records (bench rows or metrics commands) per pass.
    """
    own = self_times(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def weights_below(span):
        total = 0.0
        for c in children[span.sid]:
            total += c.dur if c.layer == "weights" else weights_below(c)
        return total

    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def ms(name):
        return sum(s.dur for s in by_name[name]) * 1e3 / passes

    def calls(name):
        return len(by_name[name]) / passes

    m = {}
    for scheme in SCHEMES:
        name = f"interpolate.resize.{scheme}"
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.self_ms"] = (
            sum(s.dur - weights_below(s) for s in by_name[name]) * 1e3 / passes
        )
        m[f"{name}.calls"] = calls(name)
    for fn in WEIGHT_FUNCS:
        m[f"weights.{fn}.ms"] = ms(f"weights.{fn}")
        m[f"weights.{fn}.calls"] = calls(f"weights.{fn}")
    for name in ("metrics.ssim", "metrics.mse"):
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.calls"] = calls(name)
    m["metrics.psnr.ms"] = ms("metrics.psnr")
    references = len({s.info.get("reference") for s in by_name["metrics.ssim"]})
    m["metrics.ssim.calls_per_reference"] = (
        len(by_name["metrics.ssim"]) / references if references else 0.0
    )
    m["metrics.mse.calls_per_record"] = calls("metrics.mse") / records if records else 0.0

    runs = {s.sid for s in by_name["bench.run_benchmark"]}
    bench_resizes = sum(
        1 for s in spans if s.parent in runs and s.name.startswith("interpolate.resize.")
    )
    m["bench.downsample.ms"] = ms("bench.downsample")
    m["bench.resize_calls_per_record"] = (
        bench_resizes / passes / records if runs and records else 0.0
    )
    m["bench.write.ms"] = sum(
        ms(n) for n in ("bench.write.records", "bench.write.aggregates", "bench.write.summary")
    )
    m["bench.self_ms"] = sum(own[sid] for sid in runs) * 1e3 / passes
    m["report.write_report.ms"] = ms("report.write_report")
    for kind in ("load", "save"):
        group = by_name[f"image.{kind}"]
        m[f"image.{kind}.ms"] = ms(f"image.{kind}")
        m[f"image.{kind}.calls"] = calls(f"image.{kind}")
        m[f"image.{kind}.mb"] = sum(s.info.get("mb", 0.0) for s in group) / passes
    for command in CLI_COMMANDS:
        m[f"cli.main.{command}.self_ms"] = (
            sum(own[s.sid] for s in by_name[f"cli.main.{command}"]) * 1e3 / passes
        )
    for layer in LAYERS:
        in_layer = [s for s in spans if s.layer == layer]
        m[f"layer.{layer}.self_ms"] = sum(own[s.sid] for s in in_layer) * 1e3 / passes
        m[f"{layer}.errors"] = sum(1 for s in in_layer if s.error)
    return m


def scoring_ms(spans):
    """Wall time of the scoring phases: runs of metrics spans between resizes.

    Scoring may run on several threads, so each phase counts from its first
    metrics span's start to its last one's end.
    """
    total = 0.0
    phase = None
    for s in sorted(spans, key=lambda s: s.start):
        if s.layer == "metrics":
            phase = [s.start, s.end] if phase is None else [phase[0], max(phase[1], s.end)]
        elif s.name.startswith("interpolate.resize."):
            if phase is not None:
                total += phase[1] - phase[0]
            phase = None
    if phase is not None:
        total += phase[1] - phase[0]
    return total * 1e3


def alloc_peaks(calls, resize_sites):
    """Scheme -> tracemalloc peak (MiB) of one resize, above what was live at its start.

    ``calls`` run one after another with the resize attributes at
    ``resize_sites`` wrapped; tracemalloc runs only during this pass.
    """
    peaks = {}
    saved = []

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scheme = resize_name(args, kwargs).rsplit(".", 1)[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            peaks[scheme] = max(peaks.get(scheme, 0.0), peak)
            return result

        return wrapper

    for modname in resize_sites:
        module = sys.modules.get(modname)
        original = getattr(module, "resize", None)
        if original is not None:
            saved.append((module, original))
            module.resize = wrap(original)
    tracemalloc.start()
    try:
        for call in calls:
            call()
    finally:
        tracemalloc.stop()
        for module, original in saved:
            module.resize = original
    return peaks
