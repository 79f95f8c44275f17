"""The benchmark's workloads.

Each workload is closed loop: one process, one thread, a single client that
issues the next operation only when the previous one has returned. Inputs
come from the seed alone (``prepare`` runs in the parent, before any timing);
the program sees only the generated files and arrays.

A pass is one fixed list of operations. Runs measure whole passes, so every
run sees the same mix of operations whatever its pass count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import scenes
from tracing import SCHEMES, bytes_digest, raster_digest, resize_name

INTENSITY_SCHEMES = ("AT", "AC")


@dataclass
class Op:
    """One operation: its key, latency and what the output check compares."""

    key: str
    ms: float
    error: bool = False
    check: dict = field(default_factory=dict)


@dataclass
class Pass:
    ops: list
    out_px: int
    records: int = 0  # scored records (bench rows or metrics commands)

    @property
    def wall_s(self):
        """Time the program spent on the pass's operations, which run back to
        back; the benchmark's own output checks are left out."""
        return sum(op.ms for op in self.ops) / 1e3


def _quiet(fn, *args):
    """Call ``fn`` with its standard output captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class ResizeLarge:
    """``tetrascale.resize`` alone on a 256x256 scene at ratios 4 and 3, every
    scheme, with AT and AC in both intensity domains.

    The outputs are 1024x1024 and 768x768: one AT or AC call still allocates
    more than the L3 holds, a pass of about 1.5 s fits about thirty passes
    into a run, and every array stays under the 32 MiB up to which the
    workers' heap keeps freed memory (a 2048x2048 float64 array is just
    above it, so at 512x512 each call would fault its pages in afresh).
    """

    name = "resize-large"
    size = 256
    ratios = (4, 3)
    min_passes = 8
    ops_per_pass = len(ratios) * (len(SCHEMES) + len(INTENSITY_SCHEMES))
    probes = ()

    def prepare(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        np.save(work / "scene.npy", scenes.workload_scene(1, rng, self.size))

    def load(self, ctx):
        ctx.image = ctx.ts.GrayImage(np.load(ctx.work / "scene.npy"))

    def _calls(self, ratio):
        for scheme in SCHEMES:
            domains = ("raw", "unit") if scheme in INTENSITY_SCHEMES else ("raw",)
            for domain in domains:
                yield f"{scheme}.{domain}.x{ratio}", scheme, domain

    def first_calls(self, ctx):
        return [
            (lambda s=scheme: ctx.ts.resize(ctx.image, self.ratios[0], s))
            for scheme in SCHEMES
        ]

    def run_pass(self, ctx, tracer):
        ops, out_px = [], 0
        for ratio in self.ratios:
            for key, scheme, domain in self._calls(ratio):
                tracer.op = key
                tic = time.perf_counter()
                try:
                    out = ctx.ts.resize(ctx.image, ratio, scheme, domain)
                except Exception:
                    ops.append(Op(key, (time.perf_counter() - tic) * 1e3, error=True))
                    continue
                ms = (time.perf_counter() - tic) * 1e3
                out_px += out.pixels.size
                ops.append(Op(key, ms, check={"digest": raster_digest(out.pixels)}))
        return Pass(ops, out_px)


class BenchScenes:
    """``tetrascale bench`` on seeded 512x512 scenes at ratio 4 with defaults."""

    name = "bench-scenes"
    n_scenes = 3
    min_passes = 3
    ops_per_pass = n_scenes * len(SCHEMES)
    # Record latencies and output checks need the resize calls that bench makes.
    probes = (("tetrascale.bench", "resize", resize_name),)

    def prepare(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        corpus = work / "corpus"
        corpus.mkdir()
        for i in range(self.n_scenes):
            scenes.write_pgm(scenes.workload_scene(i, rng), corpus / f"scene{i:02d}.pgm")

    def load(self, ctx):
        scene = ctx.ts.load_image(ctx.work / "corpus" / "scene00.pgm")
        ctx.low = ctx.ts.downsample(scene, 4)

    def first_calls(self, ctx):
        return [(lambda s=scheme: ctx.ts.resize(ctx.low, 4, s)) for scheme in SCHEMES]

    def argv(self, ctx):
        return ["bench", "--corpus", str(ctx.work / "corpus"),
                "--out", str(ctx.work / "out"), "--ratios", "4"]

    def run_pass(self, ctx, tracer):
        first = len(tracer.spans)
        tracer.op = "bench"
        tic = time.perf_counter()
        try:
            code, _ = _quiet(ctx.call_cli, self.argv(ctx))
        except Exception:
            code = None
        cmd_ms = (time.perf_counter() - tic) * 1e3
        resizes = [
            s for s in tracer.spans[first:]
            if s.site == "tetrascale.bench" and s.name.startswith("interpolate.resize.")
        ]
        # The tracer digested each record's warm-up output inside the command.
        cmd_ms -= sum(s.info.get("check_s", 0.0) for s in resizes) * 1e3
        groups = _group_calls(resizes)
        rows = self._rows(ctx) if code == 0 else []
        complete = self._outputs_present(ctx)
        # So the next pass writes new files, as in cli-small.
        shutil.rmtree(ctx.work / "out", ignore_errors=True)
        if not rows or len(groups) != len(rows) or not complete:
            n = self.ops_per_pass
            return Pass([Op(f"record{i}", cmd_ms / n, error=True) for i in range(n)], 0)
        # Each record's own resize calls, plus an even share of the rest of the
        # command (scoring, downsampling, writes): the latencies sum to cmd_ms.
        own = [sum(s.dur for s in g) * 1e3 for g in groups]
        share = (cmd_ms - sum(own)) / len(rows)
        ops = []
        for row, group, ms in zip(rows, groups, own):
            key = f"{row['image_id']}.{row['algorithm']}.x{row['ratio']}"
            ops.append(Op(
                key, ms + share,
                error=group[0].name != f"interpolate.resize.{row['algorithm']}",
                check={
                    "digest": group[0].info.get("digest"),
                    **{m: float(row[m]) for m in ("mse", "psnr", "ssim")},
                },
            ))
        out_px = sum(group[0].info["px"] for group in groups)
        return Pass(ops, out_px, records=len(rows))

    def _rows(self, ctx):
        try:
            with open(ctx.work / "out" / "records.csv", newline="") as fh:
                return list(csv.DictReader(fh))
        except (OSError, csv.Error):
            return []

    def _outputs_present(self, ctx):
        out = ctx.work / "out"
        try:
            with open(out / "aggregates.csv", newline="") as fh:
                aggregates = list(csv.DictReader(fh))
            with open(out / "summary.json") as fh:
                json.load(fh)
        except (OSError, ValueError):
            return False
        charts = ("time.svg", "mse.svg", "ssim.svg", "psnr.svg", "summary.md")
        return len(aggregates) == len(SCHEMES) and all((out / c).is_file() for c in charts)


def _group_calls(spans):
    """Resize spans split by the tracer's groups: one group per bench record."""
    groups = []
    for s in spans:
        if groups and groups[-1][0].info["group"] == s.info["group"]:
            groups[-1].append(s)
        else:
            groups.append([s])
    return groups


class CliSmall:
    """Many small odd-shaped PGMs through ``tetrascale resize`` and ``metrics``."""

    name = "cli-small"
    # Fixed odd shapes (height, width), so the work per pass does not depend
    # on the seed; the seed chooses the content.
    shapes = ((17, 96), (96, 23), (31, 77), (59, 41), (88, 64), (45, 19), (71, 93), (27, 53))
    images = len(shapes)
    ratios = ("1.5", "2", "2.5", "3.7")
    metric_pairs = (("TN", "HR"), ("TB", "AT"))
    min_passes = 20
    ops_per_pass = images * len(SCHEMES) + len(metric_pairs)
    probes = ()

    def prepare(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        for i, (h, w) in enumerate(self.shapes):
            scene = scenes.workload_scene(i, rng, size=96)[:h, :w]
            scenes.write_pgm(scene, work / f"small{i}.pgm")

    def load(self, ctx):
        pass

    def _resizes(self, ctx):
        for i in range(self.images):
            for j, scheme in enumerate(SCHEMES):
                ratio = self.ratios[(i + j) % len(self.ratios)]
                out = ctx.work / f"small{i}_{scheme}.pgm"
                argv = ["resize", str(ctx.work / f"small{i}.pgm"), str(out),
                        "--ratio", ratio, "--scheme", scheme]
                yield f"small{i}.{scheme}.x{ratio}", argv, out

    def _metric_pairs(self, ctx):
        # Schemes j and j + 4 of one image share a ratio, so their outputs align.
        for i, (a, b) in enumerate(self.metric_pairs):
            yield (f"small{i}.{a}-{b}",
                   ["metrics", str(ctx.work / f"small{i}_{a}.pgm"),
                    str(ctx.work / f"small{i}_{b}.pgm")])

    def first_calls(self, ctx):
        first = {}
        for _, argv, _ in self._resizes(ctx):
            first.setdefault(argv[-1], argv)
        return [(lambda a=argv: _quiet(ctx.call_cli, a)) for argv in first.values()]

    def run_pass(self, ctx, tracer):
        ops, out_px = [], 0
        for key, argv, out in self._resizes(ctx):
            op, _ = _cli_op(ctx, tracer, key, argv)
            if not op.error:
                try:
                    h, w, raster = scenes.pgm_raster(out)
                except (OSError, ValueError):
                    op.error = True
                else:
                    out_px += h * w
                    op.check["digest"] = bytes_digest(h, w, raster)
            ops.append(op)
        for key, argv in self._metric_pairs(ctx):
            op, text = _cli_op(ctx, tracer, key, argv)
            if not op.error:
                try:
                    values = dict(line.split("=", 1) for line in text.split())
                    op.check.update({m: float(values[m]) for m in ("mse", "psnr", "ssim")})
                except (KeyError, ValueError):
                    op.error = True
            ops.append(op)
        # Each command writes a new file: overwriting one in place makes ext4
        # flush it on close, which times the disk rather than the program.
        for _, _, out in self._resizes(ctx):
            out.unlink(missing_ok=True)
        return Pass(ops, out_px, records=len(self.metric_pairs))


def _cli_op(ctx, tracer, key, argv):
    tracer.op = key
    tic = time.perf_counter()
    try:
        code, text = _quiet(ctx.call_cli, argv)
    except Exception:
        code, text = None, ""
    return Op(key, (time.perf_counter() - tic) * 1e3, error=code != 0), text


WORKLOADS = {w.name: w for w in (BenchScenes(), ResizeLarge(), CliSmall())}
