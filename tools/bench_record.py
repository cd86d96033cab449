"""Record the benchmark's end-to-end and per-layer metrics in a committed
BENCH_<n>.json.

Every workload of BENCHMARK.json runs as ``perfbench/run.py --workload
<w> --trace 0`` in a fresh process, at the benchmark's seed and for its
``run_seconds``, ``--pairs`` times (10 at least).  With ``--base <commit>``
the same runs are made on a ``git archive`` copy of that commit in a
temporary directory, in alternating pairs: the first side of each pair
alternates, so a slow phase of the machine does not always fall on one
side.  With a base, ``HELDOUT_PAIRS`` more alternating pairs follow at
the held-out seed ``HELDOUT_SEED``, since a gain must hold on scenes it
was not tuned on.  Last, each side runs the workload once more with
``--trace 1``, which reports the per-layer and ``stage.*`` metrics.
Before any of that, each side runs Tier-1 once, with the ROADMAP's
command plus ``--junitxml``.

    python3 tools/bench_record.py --n 32 --base HEAD~1

The file holds both commits, the machine facts, every run's end-to-end
metrics, each side's median and quartiles per metric, each side's
held-out runs and traced run, and each side's Tier-1 wall time, passed,
failed and skipped counts and ten slowest tests; a failing Tier-1 is
recorded, not raised.  With a base, each end-to-end metric also gets, at
either seed, the number of pairs in which the checkout did better and
whether its median moved by more than the base's interquartile range.
The checkout side is the working tree; the file notes whether it had
uncommitted changes or untracked files that are not ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the facts of a run that describe the run, not the machine
RUN_FACTS = ("workload", "seed", "seconds", "trace", "pass_size")
# perfbench/run.py's default seed, the one the benchmark runs
SEED = 1
# a seed no workload was tuned on, and the alternating pairs run at it
HELDOUT_SEED = 2718
HELDOUT_PAIRS = 3
# the fewest alternating pairs that can back a claimed gain
MIN_PAIRS = 10
# the ROADMAP's Tier-1 command, run with PYTHONPATH=src prepended
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, into: Path) -> Path:
    """Unpack the files of ``commit`` under ``into`` and return their root."""
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    root = into / "base"
    root.mkdir()
    subprocess.run(["tar", "-x", "-C", str(root)], input=tar, check=True)
    return root


def run_once(checkout: Path, workload: str, seconds: float, seed: int = SEED,
             trace: int = 0) -> dict:
    """One fresh-process run of one workload: its metrics (end-to-end, or
    per-layer when ``trace`` is 1), its outcome, and the facts of the
    machine it ran on."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                           timeout=900)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited "
                         f"{child.returncode}:\n{child.stderr[-2000:]}")
    last = json.loads(lines[-1])
    record = json.loads(
        (checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json")
        .read_text())
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "speed_factor_p50": record["speed_factor_p50"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()},
            "units": {name: m["unit"] for name, m in last["metrics"].items()},
            "facts": record["facts"]}


def tier1_record(junit: Path, wall_s: float, returncode: int) -> dict:
    """Tier-1's outcome from its JUnit XML report: the wall time, the
    exit code, the passed, failed (failures and errors) and skipped
    counts, and the ten slowest tests."""
    cases = list(ET.parse(junit).getroot().iter("testcase"))
    failed = sum(c.find("failure") is not None or c.find("error") is not None
                 for c in cases)
    skipped = sum(c.find("skipped") is not None for c in cases)
    slowest = sorted(cases, key=lambda c: float(c.get("time", 0)), reverse=True)[:10]
    return {"wall_s": wall_s, "returncode": returncode,
            "passed": len(cases) - failed - skipped, "failed": failed,
            "skipped": skipped,
            "slowest": [{"test": f"{c.get('classname')}::{c.get('name')}",
                         "s": float(c.get("time", 0))} for c in slowest]}


def run_tier1(checkout: Path, junit: Path) -> dict:
    """One Tier-1 run in ``checkout``, recorded whether it passes or not."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (f":{path}" if path else "")}
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, *TIER1, f"--junitxml={junit}"],
                           cwd=checkout, env=env, capture_output=True, text=True,
                           timeout=1800)
    wall_s = time.perf_counter() - t0
    if not junit.exists():
        raise SystemExit(f"Tier-1 in {checkout} wrote no report, exit "
                         f"{child.returncode}:\n{child.stdout[-2000:]}{child.stderr[-2000:]}")
    return tier1_record(junit, wall_s, child.returncode)


def summarise(values: list[float]) -> dict:
    """The median and the quartiles (inclusive method) of ``values``."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(head: list[float], base: list[float], better: str) -> dict:
    """How the checkout's runs stand against the base's, pair by pair and
    median against median, for a metric where ``better`` is "higher" or
    "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    spread = summarise(base)
    gain = sign * (summarise(head)["median"] - spread["median"])
    return {"better": better,
            "head_better_pairs": sum(sign * (h - b) > 0 for h, b in zip(head, base)),
            "pairs": len(head),
            "median_change": summarise(head)["median"] - spread["median"],
            "base_iqr": spread["q3"] - spread["q1"],
            "beyond_base_iqr": gain > spread["q3"] - spread["q1"]}


def kept_runs(runs: list[dict]) -> list[dict]:
    """What the file keeps of each end-to-end run."""
    return [{k: r[k] for k in ("correct", "attempted", "failed", "speed_factor_p50",
                               "metrics")} for r in runs]


def side_summary(runs: list[dict], units: dict) -> dict:
    return {name: {**summarise([r["metrics"][name] for r in runs]), "unit": unit}
            for name, unit in units.items()}


def traced_record(run: dict) -> dict:
    """A traced run's outcome and its per-layer metrics with their units."""
    return {**{k: run[k] for k in ("correct", "attempted", "failed", "speed_factor_p50")},
            "per_layer": {name: {"value": value, "unit": run["units"][name]}
                          for name, value in run["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True,
                        help="the number in the file name BENCH_<n>.json")
    parser.add_argument("--base", help="a commit to measure against")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be >= {MIN_PAIRS}")
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    head = {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}
    base = {"commit": git("rev-parse", f"{args.base}^{{commit}}")} if args.base else None
    result = {"n": args.n, "benchmark": "perfbench/run.py --trace 0",
              "traced": "perfbench/run.py --trace 1, once per side after the pairs",
              "seed": SEED, "seconds": seconds, "pairs": args.pairs,
              "heldout_seed": HELDOUT_SEED if base else None,
              "heldout_pairs": HELDOUT_PAIRS if base else 0,
              "head": head, "base": base, "machine": None,
              "tier1": {"command": "PYTHONPATH=src python " + " ".join(TIER1)
                        + " --junitxml=<file>"},
              "workloads": {}}
    # the pairs at the benchmark's seed, the held-out pairs, then one traced
    # run per side: (label, seed, trace) per round
    rounds = ([("pairs", SEED, 0)] * args.pairs
              + [("heldout", HELDOUT_SEED, 0)] * result["heldout_pairs"]
              + [("traced", SEED, 1)])
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        sides = {"head": ROOT}
        if base:
            sides["base"] = export(base["commit"], Path(tmp))
        for side, checkout in sides.items():
            tier1 = result["tier1"][side] = run_tier1(checkout, Path(tmp) / f"tier1-{side}.xml")
            print(f"tier-1 {side}: {tier1['passed']} passed, {tier1['failed']} failed, "
                  f"{tier1['skipped']} skipped in {tier1['wall_s']:.1f} s", flush=True)
        for workload in workloads:
            runs = {side: {label: [] for label, _, _ in rounds} for side in sides}
            # each round alternates which side goes first
            for i, (label, seed, trace) in enumerate(rounds):
                for side in list(sides) if i % 2 == 0 else list(sides)[::-1]:
                    run = run_once(sides[side], workload, seconds, seed, trace)
                    runs[side][label].append(run)
                    print(f"{workload} {label} {len(runs[side][label])} seed {seed} {side}: "
                          + ", ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items()),
                          flush=True)
            first = runs["head"]["pairs"][0]
            units = first["units"]
            result["machine"] = result["machine"] or {
                k: v for k, v in first["facts"].items() if k not in RUN_FACTS}
            entry = {side: {"runs": kept_runs(side_runs["pairs"]),
                            "summary": side_summary(side_runs["pairs"], units),
                            "traced": traced_record(side_runs["traced"][0])}
                     for side, side_runs in runs.items()}
            if base:
                for side, side_runs in runs.items():
                    entry[side]["heldout"] = {
                        "runs": kept_runs(side_runs["heldout"]),
                        "summary": side_summary(side_runs["heldout"], units)}
                for key, label in (("comparison", "pairs"), ("heldout_comparison", "heldout")):
                    entry[key] = {
                        name: compare([r["metrics"][name] for r in runs["head"][label]],
                                      [r["metrics"][name] for r in runs["base"][label]],
                                      better[name])
                        for name in units}
            result["workloads"][workload] = entry
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
