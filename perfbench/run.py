"""Benchmark of varhardy: three seeded workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload constants --seed 1 --seconds 10 --trace 0

One process, one caller, closed loop: the next operation starts when the
previous one returns.  The timed phase repeats passes over the workload's
operations; every pass runs the same kinds of operations.  The pass count
is the one nearest to ``--seconds`` of operation time on the reference
machine, fixed per workload, so every commit measures the same work and
the same number of operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the same
time in two: half the passes untraced, then the same passes again with
spans around each layer's public functions.  It prints the per-layer
metrics (per pass, or for one set-up for set-up figures) and the tracing
overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Pin the BLAS, OpenMP and FFT pools before numpy loads: one caller on one
# thread keeps runs comparable on a shared machine.  scipy.fft already
# defaults to one worker.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_BUDGET_S
# seconds are spent (at most SETUP_MAX times); setup_s is the median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX = 200
# Peak resident memory of the equivalence set-up (the 2-D kernel pair).
EQUIVALENCE_PEAK_MB = 1300


def _import_program():
    """Import varhardy from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "varhardy" / "__init__.py").is_file():
        sys.exit(f"perfbench: no varhardy sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import varhardy

    if Path(varhardy.__file__).resolve().parent != (src / "varhardy").resolve():
        sys.exit(f"perfbench: varhardy imported from {varhardy.__file__}, not from {src}")


@dataclass
class Record:
    kind: str
    latency: float
    checks: dict
    group: str | None
    out: object


def _meminfo_mb(key: str) -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_mb": _meminfo_mb("MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": 1,
    }


def timed_phase(plan, passes: int, tracer=None):
    """Run ``passes`` passes.  Checks run between operations, outside the
    latency and with tracing paused."""
    records: list[Record] = []
    busy = 0.0
    for p in range(passes):
        prior: dict = {}
        for op in plan.ops(p):
            if tracer is not None:
                tracer.op_id = len(records)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out, raised = op.run(), None
            except Exception as exc:  # an operation that raises counts as failed
                out, raised = None, exc
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            busy += latency
            if raised is not None:
                checks = {f"raised {type(raised).__name__}: {raised}": False}
            else:
                try:
                    checks = op.check(out, prior)
                except Exception as exc:
                    checks = {f"check raised {type(exc).__name__}: {exc}": False}
            prior[op.kind] = out
            records.append(Record(op.kind, latency, checks, op.group, out if op.group else None))
    return records, busy


def apply_group_checks(plan, records: list[Record]) -> None:
    """Run each group's joint check and add its verdicts to every member."""
    groups: dict[str, list[Record]] = {}
    for r in records:
        if r.group is not None:
            groups.setdefault(r.group, []).append(r)
    for name, members in groups.items():
        outs = [r.out for r in members if all(r.checks.values())]
        try:
            verdicts = plan.group_check(name, outs)
        except Exception as exc:
            verdicts = {f"group check raised {type(exc).__name__}: {exc}": False}
        for r in members:
            r.checks.update(verdicts)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten operations beyond
    it, and that percentile.  Below 21 operations that percentile would not
    exceed the median, so the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def summarize_checks(records: list[Record], known_failing: str):
    failed_any = sum(not all(r.checks.values()) for r in records)
    unexpected = sum(
        not all(v for k, v in r.checks.items() if k != known_failing) for r in records
    )
    failing: dict[str, int] = {}
    for r in records:
        for k, v in r.checks.items():
            if not v:
                failing[k] = failing.get(k, 0) + 1
    return failed_any, unexpected, failing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, for the self-test")
    args = ap.parse_args(argv)

    _import_program()
    import workloads
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    setup, pass_s = workloads.WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / pass_s))
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    env = environment()
    print("environment: " + json.dumps(env))
    if args.workload == "equivalence" and not args.smoke:
        avail = _meminfo_mb("MemAvailable")
        if avail is not None and avail < 2 * EQUIVALENCE_PEAK_MB:
            print(
                f"warning: {avail:.0f} MB available; the 2-D kernel pair peaks near "
                f"{EQUIVALENCE_PEAK_MB} MB",
                file=sys.stderr,
            )

    if args.trace:
        passes = max(1, passes // 2)
        tracer = Tracer()
        tracer.install()
        tracer.active, tracer.op_id = True, "setup"
        try:
            plan = setup(args.seed, sizes, passes)
        finally:
            tracer.active = False
            tracer.uninstall()
        setup_summary, setup_counts = tracer.summary(), dict(tracer.counts)
        tracer.reset()
        plain, plain_busy = timed_phase(plan, passes)
        tracer.install()
        try:
            traced, traced_busy = timed_phase(plan, passes, tracer=tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
        apply_group_checks(plan, plain)
        apply_group_checks(plan, traced)
        metrics = layer_metrics(tracer, passes, setup_summary, setup_counts)
        metrics["trace.overhead_frac"] = (traced_busy / plain_busy - 1.0, "frac")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"passes": passes, "spans": tracer.span_records()}))
        print(f"passes: {passes}; spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print(f"tracing overhead: untraced {plain_busy:.3f} s, traced {traced_busy:.3f} s "
              f"({100 * metrics['trace.overhead_frac'][0]:+.1f}%)")
    else:
        setup_times: list[float] = []
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX
        ):
            plan = None  # free the previous inputs before building again
            t0 = time.perf_counter()
            plan = setup(args.seed, sizes, passes)
            setup_times.append(time.perf_counter() - t0)
        records, busy = timed_phase(plan, passes)
        apply_group_checks(plan, records)
        failed_any, _, _ = summarize_checks(records, workloads.KNOWN_FAILING)
        lat = [r.latency for r in records]
        tail_s, tail_pct = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(records) / busy, "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "op_tail_ms": (1000.0 * tail_s, "ms"),
            "ok_frac": (1.0 - failed_any / len(records), "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"passes: {passes}; operations: {len(records)}; busy: {busy:.3f} s; "
              f"set-ups: {len(setup_times)}, from {min(setup_times):.4f} to {max(setup_times):.4f} s")
        print(f"op_tail_ms is the p{tail_pct:.1f} latency of {len(records)} operations")
        print(f"fail_frac: {failed_any}/{len(records)} = {failed_any / len(records):.4f}")

    _, unexpected, failing = summarize_checks(records, workloads.KNOWN_FAILING)
    for name, count in sorted(failing.items()):
        note = " (known failing: ROADMAP item 1)" if name == workloads.KNOWN_FAILING else ""
        print(f"failed check {name}: {count} operation(s){note}")
    for k, (v, unit) in metrics.items():
        print(f"{k}: {v:.6g} {unit}")
    result = {
        "correct": unexpected == 0,
        "attempted": len(records),
        "failed": unexpected,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
