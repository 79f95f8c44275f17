"""One fresh interpreter of the benchmark, started by ``run.py``.

Modes:
  setup    ``import tetrascale`` plus the workload's first call per scheme
  measure  set-up, then whole passes for --seconds with tracing off
  trace    set-up, untraced passes, traced passes, an allocation pass and,
           for bench-scenes, scoring timed under TETRA_THREADS=1 and 2
  record   set-up, then one pass whose output checks are kept

Only the standard library is imported before ``import tetrascale`` is timed,
so the import time includes numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing  # standard library only, so safe before the timed import


class Context:
    """What a workload needs inside the worker: the package, its inputs, and
    whether CLI calls are traced."""

    def __init__(self, ts, work):
        self.ts = ts
        self.cli = sys.modules["tetrascale.cli"]
        self.work = work
        self.tracer = None

    def call_cli(self, argv):
        if self.tracer is None:
            return self.cli.main(argv)
        code = self.tracer.call(f"cli.main.{argv[0]}", "perfbench", self.cli.main, (argv,), {})
        if code != 0:
            self.tracer.spans[-1].error = True  # the cli.main span closes last
        return code


def run_passes(workload, ctx, tracer, seconds, min_passes, keep_spans=False):
    """Whole passes until ``seconds`` have gone and ``min_passes`` are done."""
    passes = []
    start = time.perf_counter()
    with tracer:
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(ctx, tracer))
            if not keep_spans:
                tracer.spans.clear()
    return passes


def summarize(passes):
    """Op latencies and failures. Each op's output is compared with the first
    pass, so any nondeterminism counts as a failure."""
    reference = {op.key: op.check for op in passes[0].ops}
    ops = [
        [op.key, op.ms, op.error or op.check != reference.get(op.key)]
        for p in passes for op in p.ops
    ]
    return {
        "walls": [p.wall_s for p in passes],
        "pass_p50s": [statistics.median(op.ms for op in p.ops) for p in passes],
        "out_px": [p.out_px for p in passes],
        "ops": ops,
        "checks": reference,
    }


def measure(workload, ctx, seconds):
    tracer = tracing.Tracer(workload.probes)
    return summarize(run_passes(workload, ctx, tracer, seconds, workload.min_passes))


def trace(workload, ctx, seconds, spans_path):
    half = seconds / 2
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    untraced = run_passes(workload, ctx, tracing.Tracer(workload.probes), half, 1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracer = tracing.Tracer(tracing.all_boundaries())
    ctx.tracer = tracer
    try:
        traced = run_passes(workload, ctx, tracer, half, 1, keep_spans=True)
    finally:
        ctx.tracer = None
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_json()) + "\n")
    m = tracing.layer_metrics(tracer.spans, len(traced), traced[0].records)

    peaks = tracing.alloc_peaks(
        workload.first_calls(ctx), ("tetrascale", "tetrascale.bench", "tetrascale.cli")
    )
    for scheme in tracing.SCHEMES:
        m[f"interpolate.resize.{scheme}.alloc_peak_mb"] = peaks.get(scheme, 0.0)

    threaded = []
    score = {1: [], 2: []}
    if workload.name == "bench-scenes":
        probes = workload.probes + tuple(
            ("tetrascale.bench", n, f"metrics.{n}") for n in ("mse", "psnr", "ssim")
        )
        for threads in (1, 2, 2, 1):
            tr = tracing.Tracer(probes)
            os.environ["TETRA_THREADS"] = str(threads)
            try:
                threaded += run_passes(workload, ctx, tr, 0, 1, keep_spans=True)
            finally:
                del os.environ["TETRA_THREADS"]
            score[threads].append(tracing.scoring_ms(tr.spans))
    for threads, values in score.items():
        m[f"bench.score.ms.threads{threads}"] = statistics.median(values) if values else 0.0

    wall_untraced = statistics.median(p.wall_s for p in untraced)
    wall_traced = statistics.median(p.wall_s for p in traced)
    m["trace.untraced_wall_s"] = wall_untraced
    m["trace.wall_s"] = wall_traced
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["trace.minor_faults_per_pass"] = faults / len(untraced)
    out = summarize(untraced + traced + threaded)
    out.update(metrics=m, missing=tracer.missing, passes_traced=len(traced))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, help="directory holding the inputs")
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "record"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True, help="result JSON file")
    parser.add_argument("--spans", help="span file (trace mode)")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    tic = time.perf_counter()
    import tetrascale
    import tetrascale.cli  # noqa: F401  (the workloads call through it)

    import_s = time.perf_counter() - tic
    if Path(tetrascale.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"tetrascale imported from {tetrascale.__file__}, not from {src}")

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = Context(tetrascale, Path(args.work))
    workload.load(ctx)
    tic = time.perf_counter()
    for call in workload.first_calls(ctx):
        call()
    result = {
        "import_s": import_s,
        "setup_s": import_s + time.perf_counter() - tic,
        "TETRA_THREADS": os.environ.get("TETRA_THREADS"),
    }

    if args.mode == "measure":
        result.update(measure(workload, ctx, args.seconds))
    elif args.mode == "trace":
        result.update(trace(workload, ctx, args.seconds, args.spans))
        result["metrics"]["import.tetrascale_ms"] = import_s * 1e3
    elif args.mode == "record":
        tracer = tracing.Tracer(workload.probes)
        result.update(summarize(run_passes(workload, ctx, tracer, 0, 1)))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
