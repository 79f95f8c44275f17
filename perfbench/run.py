"""tetrascale benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload bench-scenes --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run that reports the per-layer metrics. Metric names
and units come from ``BENCHMARK.json``. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds the
details (output check, digest, tail percentile, environment). Full results
and traced spans are kept under ``perfbench/results/``.

``--record-expected SEED [SEED ...]`` stores the output check's expected
values for those seeds in ``perfbench/expected.json`` instead of measuring,
for the ``--workload`` given or else for every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"
# Every run ends within the benchmark contract's 180 s.
DEADLINE_S = 170
TOLERANCE = 1e-9
DEFAULT_SEED = 0
# Fresh interpreters whose set-up times give setup_s's median.
SETUP_SAMPLES = 3
# Every worker runs with one BLAS thread.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Untraced workers also run with glibc keeping freed memory for reuse:
# allocations up to 32 MiB come from the heap, which is never trimmed. With
# glibc's defaults a pass spends a quarter to a third of its time faulting
# fresh pages in from the kernel, and on a shared virtual machine that cost
# drifts by tens of percent from minute to minute. The traced run keeps
# glibc's defaults, as a user has them, and reports the faults per pass.
HEAP_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20), "MALLOC_TRIM_THRESHOLD_": str(2**40)}


def worker_env(mode):
    return BLAS_ENV if mode == "trace" else {**BLAS_ENV, **HEAP_ENV}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def worker(root, work, workload, mode, deadline, seconds=0.0, spans=None):
    """Run one fresh worker interpreter to completion and return its result."""
    out = work / f"result-{mode}-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--work", str(work), "--mode", mode, "--seconds", str(seconds), "--out", str(out)]
    if spans:
        argv += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k not in HEAP_ENV}
    env.pop("TETRA_THREADS", None)  # the workloads run with the default
    env.update(worker_env(mode))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the run finished")
    try:
        proc = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker did not finish within the run's time limit")
    if proc.returncode != 0:
        fail(f"{mode} worker exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def environment(root):
    """The run's environment; ``TETRA_THREADS`` is added from the measuring
    worker, which runs with it unset, and ``worker_env`` from the variables
    the workers were given."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": git_commit(root),
    }


def l3_bytes():
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size:
        return size
    try:  # the kernel's own report, such as "107520K"
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    number = text.rstrip("KMGiB ")
    return int(number) * units.get(text[len(number):].strip()[:1], 1)


def git_commit(root):
    """HEAD's commit of the checkout, or None when it is not a git repository.

    The search for a repository stops at the checkout, so one that merely
    lies inside another repository reports None.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def combined_digest(checks):
    lines = sorted(f"{k}={c['digest']}" for k, c in checks.items() if "digest" in c)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def values_of(checks):
    """Op key -> its metric values (every check entry but the digest)."""
    return {k: v for k, c in checks.items()
            if (v := {m: x for m, x in c.items() if m != "digest"})}


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def verify(expected, checks):
    """Op keys whose outputs differ from the stored expectation.

    With per-output digests stored, a mismatch names its op; with only the
    combined digest, every op with a raster output counts as failed.
    """
    bad = set()
    if "outputs" in expected:
        digests = {k: c.get("digest") for k, c in checks.items() if "digest" in c}
        keys = set(digests) | set(expected["outputs"])
        bad |= {k for k in keys if digests.get(k) != expected["outputs"].get(k)}
    elif combined_digest(checks) != expected["digest"]:
        bad |= {k for k, c in checks.items() if "digest" in c}
    got = values_of(checks)
    for key in set(got) | set(expected["values"]):
        want, have = expected["values"].get(key, {}), got.get(key, {})
        if want.keys() != have.keys() or not all(_close(have[m], want[m]) for m in want):
            bad.add(key)
    return bad


def tail_percentile(workload):
    """The highest percentile with at least ten samples beyond it at the
    workload's minimum op count, to 0.1. Fixed per workload, so that runs
    with different pass counts report the same percentile."""
    n = workload.min_passes * workload.ops_per_pass
    return math.floor(1000 * (n - 10) / n) / 10


def percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, setups, res):
    latencies = [op[1] for op in res["ops"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["walls"]),
        "mpix_per_s": sum(res["out_px"]) / sum(res["walls"]) / 1e6,
        # A pass's op latencies cluster by operation, and a median of the
        # pooled ops falls between two clusters; the median of the passes'
        # medians does not hang on one slow or fast op.
        "op_p50_ms": statistics.median(res["pass_p50s"]),
        "op_tail_ms": percentile(latencies, tail_percentile(workload)),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def record_expected(root, workloads, seeds, only=None):
    """Store the output check's expectations for ``seeds`` (of workload
    ``only``, or of every workload); the default seed keeps one digest per
    output, the others a combined digest."""
    stored = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    stored.setdefault("tolerance", TOLERANCE)
    stored["default_seed"] = DEFAULT_SEED
    table = stored.setdefault("workloads", {})
    for name, workload in workloads.WORKLOADS.items():
        if only not in (None, name):
            continue
        for seed in seeds:
            work = fresh_workdir(name, seed)
            try:
                workload.prepare(work, seed)
                res = worker(root, work, name, "record", time.monotonic() + DEADLINE_S)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if any(op[2] for op in res["ops"]):
                fail(f"{name} seed {seed}: an operation failed; nothing recorded")
            checks = res["checks"]
            entry = {"digest": combined_digest(checks), "values": values_of(checks)}
            if seed == DEFAULT_SEED:
                entry["outputs"] = {k: c["digest"] for k, c in checks.items() if "digest" in c}
            table.setdefault(name, {})[str(seed)] = entry
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def fresh_workdir(name, seed):
    work = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def main(argv=None):
    root = Path.cwd()
    if not (root / "src" / "tetrascale" / "__init__.py").is_file():
        fail(f"no tetrascale sources under {root / 'src'}; run from the repository root", 2)
    if not (root / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {root}", 2)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if args.record_expected:
        record_expected(root, workloads, args.record_expected, args.workload)
        return
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    env = environment(root)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    work = fresh_workdir(args.workload, args.seed)
    try:
        workload.prepare(work, args.seed)
        if args.trace:
            spans = RESULTS / f"{stem}-spans.jsonl"
            res = worker(root, work, args.workload, "trace", deadline, args.seconds, spans)
            values = res["metrics"]
            wanted = spec["per_layer"]
        else:
            setups = [worker(root, work, args.workload, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = worker(root, work, args.workload, "measure", deadline, args.seconds)
            setups.append(res["setup_s"])
            values = end_to_end(workload, setups, res)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["TETRA_THREADS"] = res["TETRA_THREADS"]
    env["worker_env"] = worker_env("trace" if args.trace else "measure")

    expected = {}
    if EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text())["workloads"].get(args.workload, {})
    stored = expected.get(str(args.seed))
    mismatched = verify(stored, res["checks"]) if stored is not None else set()
    ops = res["ops"]
    failed = sum(1 for key, _, bad in ops if bad or key in mismatched)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "verified": stored is not None,
        "mismatched_outputs": sorted(mismatched),
        "output_digest": combined_digest(res["checks"]),
        "error_rate": failed / len(ops),
        "op_samples": len(ops),
        "tail_percentile": tail_percentile(workload),
        "passes": len(res["walls"]),
        "environment": env,
    }
    if args.trace:
        details["missing_boundaries"] = res["missing"]
        details["passes_traced"] = res["passes_traced"]
        details["spans_file"] = str(spans.relative_to(root))
    else:
        details["setup_samples_s"] = setups
    if stored is None:
        print(f"perfbench: seed {args.seed} has no stored outputs; "
              "only determinism and output structure were checked (verified: false)",
              file=sys.stderr)
    (RESULTS / f"{stem}.json").write_text(json.dumps({**details, "metrics": metrics}, indent=1))

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
