"""pdmetric benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hp-dense --seed 1 --seconds 40 --trace 0

The program is imported from ./src, never from an installed copy; without
./src/pdmetric the script exits with code 1.  Every workload runs its
seeded pool of ops in whole passes, in one process and one thread, each op
starting when the previous one returns (a closed loop with one client).
Passes continue while the next one is expected to end within --seconds;
the first always runs.  After the timed loop every op's output is checked
against an independent reference (perfbench/reference.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the pool once
untraced and once traced and prints the per-layer metrics (see
perfbench/tracing.py).  The last line of stdout is the result JSON; the line
before it records the inputs' provenance and the run's details.
Generated inputs and span files go to ./.perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKDIR = ".perfbench-out"
SETUP_SAMPLES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the monotonic time when ready, and exit")
    return parser.parse_args(argv)


def _load_program(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pdmetric", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {os.path.join(src, 'pdmetric')}; "
                 "run from the root of a pdmetric checkout")
    sys.path.insert(0, src)


def _set_up(args, root):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.scale, os.path.join(root, WORKDIR))
    workload.load()
    return workload


def _setup_seconds(args, root) -> list[float]:
    """Process start to first op, measured on fresh processes that only set up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        began = time.monotonic()
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - began)
    return samples


def _run_pass(workload, pool, tracer=None):
    """One closed-loop pass; returns (latencies, results, seconds)."""
    workload.begin_pass()
    latencies, results = [], []
    began = time.perf_counter()
    for idx, item in enumerate(pool):
        if tracer is not None:
            tracer.current_op = len(latencies)
            span = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
            tracer.current_op = -1
        results.append((idx, result))
    return latencies, results, time.perf_counter() - began


def _check_all(workload, pool, results) -> tuple[int, list[str]]:
    from reference import Reference

    reference = Reference()
    failed, reasons = 0, []
    for idx, result in results:
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                reason = workload.check(pool[idx], result, reference)
            except (KeyError, TypeError, ValueError) as exc:  # malformed output
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"op {idx}: {reason}")
    return failed, reasons


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read().strip()


def _environment() -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            level, kind, size = (_read(os.path.join(base, entry, field))
                                 for field in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "caches": caches}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(args, root):
    workload = _set_up(args, root)
    pool = workload.setup(args.seed)
    setup_samples = _setup_seconds(args, root)

    latencies, results, wall = [], [], 0.0
    passes = 0
    while True:
        lat, res, seconds = _run_pass(workload, pool)
        latencies += lat
        results += res
        wall += seconds
        passes += 1
        if wall + seconds > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, reasons = _check_all(workload, pool, results)
    attempted = len(results)
    # A pool holds too few ops for a percentile with 10 ops beyond it, so the
    # tail is the mean latency of the slowest tenth of the ops (at least one).
    slowest = sorted(latencies)[-math.ceil(attempted / 10):]
    per_item = [statistics.median(latencies[i::len(pool)]) for i in range(len(pool))]
    # Gated metrics: the ones whose run-to-run spread stays within their bound
    # even where machine speed drifts 10-15% between runs (see design.json).
    metrics = {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "ops_per_s": _metric(attempted / wall, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "success_ratio": _metric((attempted - failed) / attempted, "fraction"),
    }
    # Reported, not gated: median and tail latency of single ops move with
    # that drift by more than any allowed bound (see perfbench/design.json).
    latency = {
        "op_s_p50": _metric(statistics.median(latencies), "s"),
        "op_s_tail": _metric(statistics.fmean(slowest), "s") | {
            "definition": "mean latency of the ops above the 90th percentile",
            "percentile": 90, "ops": attempted, "ops_averaged": len(slowest)},
        "fail_ratio": _metric(failed / attempted, "fraction"),
    }
    details = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "op": workload.op,
        "inputs": workload.provenance, "pool_ops": len(pool), "passes": passes,
        "measured_s": wall, "latency": latency, "failures": reasons,
        "setup_samples_s": setup_samples, "environment": _environment(),
        "pool": [workload.describe(item) | {"median_s": s} for item, s in zip(pool, per_item)],
    }
    return failed, attempted, metrics, details


def run_traced(args, root):
    from tracing import Tracer, layer_metrics

    workload = _set_up(args, root)
    tracer = Tracer()
    tracer.install()
    try:
        pool = workload.setup(args.seed)
    finally:
        tracer.uninstall()
    _, plain_results, plain_s = _run_pass(workload, pool)
    tracer.install()
    try:
        _, traced_results, traced_s = _run_pass(workload, pool, tracer)
    finally:
        tracer.uninstall()

    failed, reasons = _check_all(workload, pool, plain_results + traced_results)
    ops = len(pool)
    # CLI ops return (exit code, stdout, stderr).
    tracer.counts["exit_nonzero"] = sum(
        isinstance(r, tuple) and r[0] != 0 for _, r in traced_results)
    layers = layer_metrics(tracer.totals(), tracer.counts, ops, (traced_s - plain_s) / ops)
    spans_path = os.path.join(root, WORKDIR, f"spans-{args.workload}-{args.seed}.npz")
    tracer.save(spans_path)
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "op": workload.op,
        "inputs": workload.provenance, "pool_ops": ops, "untraced_s": plain_s,
        "traced_s": traced_s, "spans": len(tracer.start), "spans_file": spans_path,
        "missing_targets": tracer.missing, "failures": reasons,
        "fail_ratio": _metric(failed / (2 * ops), "fraction"),
    }
    return failed, 2 * ops, metrics, details


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    _load_program(root)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    if args.setup_only:
        _set_up(args, root).setup(args.seed)
        print(time.monotonic())
        return 0
    runner = run_traced if args.trace else run_end_to_end
    failed, attempted, metrics, details = runner(args, root)
    for value in metrics.values():
        if not math.isfinite(value["value"]):
            raise SystemExit(f"perfbench: non-finite metric {value!r}")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
