"""Fixed-seed benchmark for lgw: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-xxz5 --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
fixed work traced and then untraced, and reports the per-module metrics
(self times and counts from the spans) plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit.  ``--size tiny`` shrinks every
workload to a smoke-test size.

The program under test is the ``lgw`` package in ``src/`` of the same
checkout; the benchmark exits with code 2 when it is missing.  BLAS
runs on one thread (see ``limit_blas_threads``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)


def limit_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS threads before numpy loads and return the
    count.  On a shared 2-core host, alternating pipeline-xxz5 runs spread
    by 0.32 of their median with two BLAS threads and 0.085 with one."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_lgw():
    """Import lgw from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lgw
    except ImportError:
        return None
    if Path(lgw.__file__).resolve().parent.parent != src.resolve():
        return None
    return lgw


def span_metric(span_name: str) -> str:
    """Metric that reports a span's summed self time."""
    return "cli.self_s" if span_name == "cli.main" else f"{span_name}_s"


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-module metric, in report order."""
    import spans

    names = [(span_metric(name), "s") for name in spans.SPAN_NAMES]
    names += [(name, "count") for name in spans.COUNT_NAMES]
    names += [("xl.loglog_slope", "1"), ("trace.overhead_s", "s")]
    return names


def _loglog_slope(tracer, op_sizes: dict[int, int]) -> float:
    """Slope of log(median xl_solve time) against log(N); 0 with fewer
    than two sizes."""
    import numpy as np

    by_size: dict[int, list[float]] = {}
    for op, seconds in tracer.durations("xl.xl_solve"):
        if op in op_sizes:
            by_size.setdefault(op_sizes[op], []).append(seconds)
    if len(by_size) < 2:
        return 0.0
    sizes = sorted(by_size)
    medians = [statistics.median(by_size[n]) for n in sizes]
    return float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])


def measure_setup(args, samples: int, run_dir: Path) -> tuple[float, Path]:
    """Set up ``samples`` times, each in a fresh process (interpreter
    start, import lgw, generate and write the inputs); return the median
    wall time and the first input directory."""
    times = []
    for j in range(samples):
        inputs = run_dir / f"inputs_{j}"
        inputs.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--size", args.size, "--setup-only", str(inputs)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with {proc.returncode}: {proc.stderr}")
    return statistics.median(times), run_dir / "inputs_0"


def _print_result(attempted: int, failed: int,
                  metrics: dict[str, tuple[float, str]], notes: list[str]) -> None:
    """Print every metric as ``name value unit``, then the notes, then the
    JSON result line.  fail_ratio is printed in the table but not sent
    in the JSON metrics, where failed/attempted already carry it."""
    rows = dict(metrics, fail_ratio=(failed / attempted, "1"))
    for name, (value, unit) in rows.items():
        print(f"{name:<40} {value!r} {unit}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = limit_blas_threads()
    if import_lgw() is None:
        print(f"perfbench: cannot import lgw from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    units = workloads.units_for(workload, args.seconds)
    if args.setup_only:
        workload.make(args.seed, units, args.size == "tiny", Path(args.setup_only))
        return 0

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_samples = 1 if args.trace else workload.setup_samples
        setup_s, inputs = measure_setup(args, setup_samples, run_dir)
        note = (f"workload {args.workload} seed {args.seed}: {units} units, closed "
                f"loop with 1 client, BLAS threads {threads}")
        if not args.trace:
            plain = workloads.Harness()
            workload.run(plain, inputs)
            values = {
                "wall_s": plain.wall_s,
                "op_p50_s": statistics.median(plain.op_times),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": 1 - plain.failed / plain.attempted,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            _print_result(plain.attempted, plain.failed, metrics, [
                note, f"op_p50_s is the median of {len(plain.op_times)} operations",
                f"setup_s is the median of {setup_samples} set-ups",
                f"largest sampled error: {plain.worst_sampled!r} root-MSE bounds; "
                f"gate {workloads.BOUND_SIGMAS:g} bounds, at most {plain.widest_gate!r}"])
            return 0

        # Traced pass first, so that it runs in a fresh process as the
        # untraced runs do; the untraced pass after it gives the overhead.
        import spans

        tracer = spans.Tracer()
        traced = workloads.Harness(tracer)
        tracer.install()
        try:
            workload.run(traced, inputs)
        finally:
            tracer.uninstall()
        plain = workloads.Harness()
        workload.run(plain, inputs)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(trace_file))

        values = {span_metric(name): t for name, t in tracer.self_times().items()}
        values.update(tracer.all_counts())
        values["xl.loglog_slope"] = _loglog_slope(tracer, traced.op_sizes)
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
        _print_result(plain.attempted + traced.attempted, plain.failed + traced.failed,
                      metrics, [note, f"{len(tracer.spans)} spans written to {trace_file}"])
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
