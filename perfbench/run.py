"""pilevol benchmark: captures run back to back through the public API.

One process runs one workload as a closed loop with a single client: each
capture (cloud or file to volume) starts when the previous one has ended.
Set-up generates the workload's scenes, writes its PLY files and fills the
library's lazy caches; it is repeated and its median reported as
``setup_s``.  After one untimed warm-up capture, whole passes over the
workload's captures run until ``--seconds`` have elapsed (at least one
pass).  Every volume is checked against the scene's analytic truth.
Every reported time is scaled to a reference machine speed measured by a
fixed kernel between captures (``speed.py``), so that the slow phases of a
shared machine do not show as changes of the program.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes again with spans around the library's functions and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; a fuller record, spans included, goes
to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
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
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("catalogue", "filters-off", "voxel-band")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up runs at least SETUP_REPEATS times, and more while it has taken
# under SETUP_SECONDS in all, up to SETUP_MAX_REPEATS
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 3, 3.0, 15


def _direct(name, fn, *args, count=None, **kwargs):
    return fn(*args, **kwargs)


def _loaded(span, args, result):
    span.counts["n_out"] = len(result)


def clear_caches() -> None:
    """Empty every ``functools`` cache in the library, so each set-up pays
    for the lazy work a fresh process pays for."""
    for name, module in list(sys.modules.items()):
        if name == "pilevol" or name.startswith("pilevol."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_capture(capture, bound, tracer=None) -> dict:
    """One capture, cloud (or file) to volume, checked against the truth."""
    from pilevol import load_cloud, run_pipeline
    from pilevol.errors import PilevolError

    call = tracer.call if tracer is not None else _direct
    volume, timings, failure = math.nan, None, None
    t0 = time.perf_counter()
    try:
        cloud = capture.cloud
        if capture.path is not None:
            cloud = call("cloudio.load", load_cloud, capture.path, count=_loaded)
        report = call("pipeline", run_pipeline, capture.config, cloud=cloud)
        volume, timings = report.volume, dict(report.timings_s)
    except PilevolError as exc:
        failure = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    error = (volume - capture.truth) / capture.truth
    if failure is None and not math.isfinite(error):
        failure = f"non-finite volume {volume!r}"
    elif failure is None and bound is not None and abs(error) > bound:
        failure = f"|error| {abs(error):.2%} exceeds the {bound:.0%} bound"
    return {"label": capture.label, "n_points": capture.n_points,
            "seconds": seconds, "volume": volume, "rel_error": error,
            "failure": failure, "timings": timings}


def measure(captures, bound, seconds: float, probe, passes: int | None = None,
            tracer=None) -> list[list[dict]]:
    """Whole passes until ``seconds`` have elapsed, or exactly ``passes``.
    The reference kernel runs between captures; each record's
    ``speed_factor`` comes from the samples on either side of it."""
    runs: list[list[dict]] = []
    start = time.perf_counter()
    before = probe.sample()
    while True:
        records = []
        for capture in captures:
            if tracer is None:
                record = run_capture(capture, bound)
            else:
                tracer.capture += 1
                record = tracer.call("bench.capture", run_capture,
                                     capture, bound, tracer)
            after = probe.sample()
            record["speed_factor"] = probe.factor(before, after)
            before = after
            records.append(record)
        runs.append(records)
        if passes is not None:
            if len(runs) >= passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return runs


def machine_facts(args, pass_size: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pass_size": pass_size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(args) -> int:
    import layers
    import workloads
    import speed
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    size = min(args.pass_size or workload.pass_size, workload.pass_size)
    facts = machine_facts(args, size)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        probe = speed.SpeedProbe()
        setup_s, setup_scaled, generate_s = [], [], []
        before = probe.sample()
        # a traced run does not report setup_s, so it sets up only once
        while not setup_s or not args.trace and (
                len(setup_s) < SETUP_REPEATS
                or len(setup_s) < SETUP_MAX_REPEATS and sum(setup_s) < SETUP_SECONDS):
            clear_caches()
            t0 = time.perf_counter()
            captures, gen = workloads.build(workload, args.seed, size, Path(workdir))
            setup_s.append(time.perf_counter() - t0)
            generate_s.append(gen)
            after = probe.sample()
            setup_scaled.append(setup_s[-1] / probe.factor(before, after))
            before = after

        run_capture(captures[0], workload.capture_bound)        # untimed warm-up
        runs = measure(captures, workload.capture_bound, args.seconds, probe)
        traced_runs, tracer = [], None
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced_runs = measure(captures, workload.capture_bound,
                                      args.seconds, probe, passes=len(runs),
                                      tracer=tracer)
            finally:
                tracer.uninstall()

    all_records = [r for run in runs + traced_runs for r in run]
    failures = [f"{r['label']}: {r['failure']}" for r in all_records if r["failure"]]
    first = runs[0]
    scored = [(c, r["rel_error"]) for c, r in zip(captures, first)
              if math.isfinite(r["rel_error"])]
    if not scored:
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        print("perfbench: no capture produced a volume", file=sys.stderr)
        return 1
    problems = workload.gate([c for c, _ in scored], [e for _, e in scored])
    for run in runs[1:] + traced_runs:
        for ref, rec in zip(first, run):
            if repr(rec["volume"]) != repr(ref["volume"]):
                problems.append(f"{rec['label']}: volume {rec['volume']!r} differs "
                                f"from the first pass's {ref['volume']!r}")
    abs_errors = [abs(e) * 100.0 for _, e in scored]
    untraced = [r["seconds"] for run in runs for r in run]
    # each time scaled to the reference machine speed (speed.py)
    scaled = [r["seconds"] / r["speed_factor"] for run in runs for r in run]
    factor = statistics.median(r["speed_factor"] for run in runs for r in run)
    points = len(runs) * sum(c.n_points for c in captures)
    wall_metrics = {
        "points_per_s": points / sum(untraced),
        "capture_s_p50": statistics.median(untraced),
        "setup_s": statistics.median(setup_s),
    }
    end_to_end = {
        "points_per_s": (points / sum(scaled), "points/s"),
        "capture_s_p50": (statistics.median(scaled), "s"),
        "mean_abs_rel_error_pct": (statistics.fmean(abs_errors), "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    result = {"facts": facts, "passes": len(runs), "captures_per_pass": len(captures),
              "capture_samples": len(untraced), "setup_s_all": setup_s,
              "speed_factor_p50": factor, "kernel_samples_s": probe.samples,
              "wall_metrics": wall_metrics, "end_to_end": end_to_end,
              "failures": failures, "problems": problems}
    metrics = end_to_end
    if args.trace:
        traced = [r for run in traced_runs for r in run]
        traced_mean = statistics.fmean(r["seconds"] for r in traced)
        metrics = layers.layer_metrics(
            tracer.spans, [r["timings"] for r in traced if r["timings"]],
            len(traced), statistics.median(generate_s), max(abs_errors),
            len(failures) / len(all_records),
            statistics.fmean(r["seconds"] / r["speed_factor"] for r in traced)
            - statistics.fmean(scaled), factor)
        result["per_layer"] = metrics
        result["traced_capture_s_mean"] = traced_mean
        result["module_self_s"] = {
            m: s / len(traced) for m, s in layers.module_self_times(tracer.spans).items()}
        result["spans"] = [asdict(span) for span in tracer.spans]
    result["records"] = all_records
    correct = not failures and not problems

    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(f"pilevol benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, {len(runs)} pass(es) of {len(captures)} captures")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()
                                  if k not in ("workload", "seed", "trace")))
    print(f"speed factor (median) {factor:.4f} against a {speed.REFERENCE_S} s "
          "reference kernel; unscaled wall "
          + ", ".join(f"{k} {v:.6g}" for k, v in wall_metrics.items()))
    for name, (value, unit) in metrics.items():
        note = f"  (n={len(untraced)})" if name == "capture_s_p50" else ""
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    if args.trace:
        wall = result["traced_capture_s_mean"]
        shares = sorted(result["module_self_s"].items(), key=lambda kv: -kv[1])
        print("self time per traced capture by module: " + ", ".join(
            f"{m} {s:.4f}s ({s / wall:.1%})" for m, s in shares))
    for line in failures:
        print(f"FAILED {line}")
    for line in problems:
        print(f"INCORRECT {line}")
    print(f"results: {out_path.relative_to(BENCH_DIR.parent)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    status, rows = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.pass_size:
            cmd += ["--pass-size", str(args.pass_size)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
        status |= not rows[name]["correct"]
    print(json.dumps(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-size", type=int, default=0,
                        help="captures per pass, below the workload's full pass "
                             "(for the self-test)")
    args = parser.parse_args(argv)
    if args.pass_size < 0:
        parser.error("--pass-size must be >= 0")

    # one client and no extra threads: pin the BLAS/OpenMP pools before
    # numpy is first imported
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC_DIR / "pilevol" / "__init__.py").is_file():
        print(f"perfbench: no pilevol sources under {SRC_DIR}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import pilevol

    if SRC_DIR.resolve() not in Path(pilevol.__file__).resolve().parents:
        print(f"perfbench: imported pilevol from {pilevol.__file__}, not from "
              f"{SRC_DIR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
