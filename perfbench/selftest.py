"""Self-test of the benchmark at tiny scale (two captures per pass).

    python3 perfbench/selftest.py

For every workload it checks that

- each metric named in BENCHMARK.json is printed, with that unit, in the
  matching mode (end-to-end with --trace 0, per-layer with --trace 1);
- the per-layer self times add up to no more than the traced capture time;
- two runs of one seed give bit-identical volumes and error metrics;
- a second, held-out seed also emits every metric and passes correctness;

and that the benchmark exits non-zero without a result line when the
library's sources are absent.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SEED, HELD_OUT_SEED = 11, 12
# per-layer times that overlap the layer self times (stages contain layers)
# or are measured outside the traced captures
NOT_SELF_TIMES = ("stage.", "synth.", "trace.")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--pass-size", "2"]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {child.returncode}:\n"
                             f"{child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def check_names(result: dict, spec: list[dict], label: str) -> None:
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {got} != {expected}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), f"{label}: {name} is not a float"


def check_workload(name: str, bench: dict) -> None:
    e2e, e2e_record = run(name, SEED, 0)
    check_names(e2e, bench["end_to_end"], f"{name} trace 0")
    assert e2e["correct"] and e2e["failed"] == 0, f"{name}: {e2e_record['failures']}"

    again, again_record = run(name, SEED, 0)
    a, b = (r["metrics"]["mean_abs_rel_error_pct"]["value"] for r in (e2e, again))
    assert a.hex() == b.hex(), f"{name}: mean error {a!r} != {b!r} for one seed"
    errors = [[r["rel_error"] for r in rec["records"]]
              for rec in (e2e_record, again_record)]
    assert errors[0] == errors[1], f"{name}: capture errors differ for one seed"

    traced, traced_record = run(name, SEED, 1)
    check_names(traced, bench["per_layer"], f"{name} trace 1")
    worst = max(abs(e) * 100.0 for e in errors[0])
    got = traced["metrics"]["max_abs_rel_error_pct"]["value"]
    assert got.hex() == worst.hex(), f"{name}: max error {got!r} != {worst!r}"
    assert traced["correct"], f"{name} traced: {traced_record['problems']}"
    self_total = sum(m["value"] for n, m in traced["metrics"].items()
                     if m["unit"] == "s" and not n.startswith(NOT_SELF_TIMES))
    wall = traced_record["traced_capture_s_mean"]
    assert self_total <= wall, f"{name}: layer self times {self_total} > {wall}"

    held_out, held_out_record = run(name, HELD_OUT_SEED, 0)
    check_names(held_out, bench["end_to_end"], f"{name} held-out seed")
    assert held_out["correct"], f"{name} held-out: {held_out_record['failures']}"
    print(f"ok {name}: metrics named, self times {self_total:.3f}s <= traced "
          f"{wall:.3f}s, errors repeat per seed, held-out seed correct")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        child = subprocess.run(
            [sys.executable, str(bare / BENCH_DIR.name / RUN.name), "--workload",
             "catalogue", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert child.returncode != 0, "bare directory: exit code 0"
    assert '"correct"' not in child.stdout, "bare directory: printed a result"
    print(f"ok bare directory: exit {child.returncode}, no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    for workload in bench["workloads"]:
        check_workload(workload["name"], bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
