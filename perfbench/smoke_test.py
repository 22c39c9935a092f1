#!/usr/bin/env python3
"""Smoke test of the placement benchmark, on scaled-down workloads.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, and for fine_grid_4k, which run.py
keeps for layer studies, runs run.py at 5% of the cell count and density
grid, once untraced and once traced. It checks that the last output line is
a result object with exactly the metrics BENCHMARK.json names, each with its
unit, and that every run passed its correctness checks. Then forces a correctness failure (one cell moved off its row
after legalization) and checks that it shows up in `failed` and turns
`correct` false. Exits non-zero on the first failed check.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SCALE = "0.05"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def expect(ok, what):
    if not ok:
        sys.exit(f"FAIL {what}")


def check_result(result, expected, what):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{what}: correct={result['correct']} failed={result['failed']}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, what)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    expect(got == want, f"{what}: metric/unit mismatch\n got  {got}\n want {want}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{what}: {name} = {m['value']!r}")


def main():
    for workload in [w["name"] for w in SPEC["workloads"]] + ["fine_grid_4k"]:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            what = f"{workload} --trace {trace}"
            result, _ = run(workload, trace)
            check_result(result, expected, what)
            if trace:
                expect(result["metrics"]["verify.violations"]["value"] == 0, what)
            print(f"ok   {what}: {result['attempted']} runs, all metrics with units")

    workload = SPEC["workloads"][0]["name"]
    result, err = run(workload, 0, "--force-fail")
    expect(result["correct"] is False, "forced failure not reported as incorrect")
    expect(result["failed"] == result["attempted"] >= 1,
           f"forced failure: failed={result['failed']} of {result['attempted']}")
    expect("verify_legal_placement" in err, "forced failure not printed")
    print(f"ok   {workload} --force-fail: failed {result['failed']} of "
          f"{result['attempted']}, printed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
