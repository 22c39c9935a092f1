#!/usr/bin/env python3
"""Placement benchmark: time to a legal placement and its HPWL, end to end.

    python3 perfbench/run.py --workload flat_8k --seed 1 --seconds 40 --trace 0

Builds perfbench_run (CMakeLists.txt here) against the repository's
placer library, generates the workload's circuits from --seed as Bookshelf
files (untimed), and runs the flow read_bookshelf -> placer -> run() ->
legalize() in a fresh process per timed run. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
A human-readable summary with sample counts goes to standard error.
README.md describes the workloads, metrics and correctness checks.
"""

import argparse
import concurrent.futures
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole invocation, build excluded, must end before this

# cells/bins/levels/threads: the placer configuration of a timed run.
# circuits: circuits generated per run, more than fit into --seconds. The
#   run's place_s and hpwl_refined are means over the circuits timed, which
#   evens out the seed-to-seed spread of the transformation count.
# trace_circuits: circuits placed (untraced, then traced) with --trace 1.
# fine_grid_4k is not in BENCHMARK.json: at about 7.5 s per placement too few
# circuits fit into a run to make place_s steady (README.md). It stays here
# for traced layer studies of the density/FFT path.
WORKLOADS = {
    "flat_8k": dict(cells=8000, bins=4096, levels=0, threads=1, circuits=16,
                    trace_circuits=2),
    "multilevel_20k": dict(cells=20000, bins=4096, levels=2, threads=2, circuits=12,
                           trace_circuits=2),
    "fine_grid_4k": dict(cells=4000, bins=262144, levels=0, threads=1, circuits=6,
                         trace_circuits=1),
}
# GPF_THREADS of the untimed reference runs that every timed run must
# reproduce exactly; on the 2-thread workload this also checks that the
# placement does not depend on the thread count.
REFERENCE_THREADS = 1


# perfbench_run processes currently running; a signal kills them all so that
# the benchmark never leaves a child behind.
LIVE = set()


def stop_children(signum, _frame):
    for proc in list(LIVE):
        proc.kill()
    raise SystemExit(128 + signum)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build perfbench_run; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no placer sources at {ROOT} (CMakeLists.txt, src/)")
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench_run",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench_run"


def circuit_seeds(seed, count):
    """Circuit 0 is the run seed itself; the others are derived from it."""
    return [seed] + [(seed * 1000003 + i) % (1 << 62) for i in range(1, count)]


class Runner:
    """Launches perfbench_run processes and records every placement run."""

    def __init__(self, exe, spec, work, scale, force_fail):
        self.exe = exe
        self.spec = spec
        self.work = work
        self.cells = max(200, int(spec["cells"] * scale))
        self.bins = max(1024, int(spec["bins"] * scale))
        self.force_fail = force_fail
        self.start = time.monotonic()
        self.attempted = 0
        self.failures = []

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def env(self, threads):
        env = {k: v for k, v in os.environ.items() if not k.startswith("GPF_")}
        env["GPF_THREADS"] = str(threads)
        return env

    def generate(self, seeds):
        bases = [self.work / f"c{i}" for i in range(len(seeds))]
        cmds = [[str(self.exe), "gen", "--cells", str(self.cells), "--seed", str(s),
                 "--out", str(b)] for s, b in zip(seeds, bases)]
        self.parallel(cmds, threads=1, check=True)
        return bases

    def place_cmd(self, base, trace=False, setup_only=False):
        cmd = [str(self.exe), "place", "--in", str(base), "--bins", str(self.bins),
               "--levels", str(self.spec["levels"])]
        if setup_only:
            return cmd + ["--setup-only"]
        if trace:
            cmd.append("--trace")
        if self.force_fail:
            cmd.append("--force-fail")
        return cmd

    def run_one(self, cmd, threads):
        """One child process; returns (returncode, stdout, stderr)."""
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.env(threads), text=True) as proc:
            LIVE.add(proc)
            try:
                out, err = proc.communicate(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                return None, out, err + "\ntimed out"
            finally:
                LIVE.discard(proc)
        return proc.returncode, out, err

    def parallel(self, cmds, threads, check=False):
        width = max(1, min(4, os.cpu_count() or 1))
        with concurrent.futures.ThreadPoolExecutor(width) as pool:
            results = list(pool.map(lambda c: self.run_one(c, threads), cmds))
        if check:
            for cmd, (code, _, err) in zip(cmds, results):
                if code != 0:
                    raise RuntimeError(f"{' '.join(cmd)} failed: {err.strip()}")
        return results

    def record(self, label, result, reference, is_reference=False):
        """Parse one placement run and apply every correctness check.

        `reference` is the (hpwl_refined, transforms) pair the run must
        reproduce; a reference run itself passes is_reference=True. Returns
        the run's measurements (None if it produced none). A run that fails
        any check is counted and printed, never dropped.
        """
        self.attempted += 1
        code, out, err = result
        rec, problems = None, []
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-300:]}")
        else:
            try:
                rec = last_json(out)
            except (ValueError, IndexError):
                problems.append(f"unparseable output: {out[-300:]!r}")
        if rec is not None:
            if rec["violations"] != 0:
                problems.append(f"verify_legal_placement: {rec['violations']} "
                                f"violation(s), first {rec.get('violation')}")
            if rec["degraded"]:
                problems.append("placer returned degraded()")
            if rec["hpwl_refined"] is None or not math.isfinite(rec["hpwl_refined"]):
                problems.append(f"non-finite HPWL {rec['hpwl_refined']}")
            if is_reference:
                reference = fingerprint(rec)
            if reference is None:
                problems.append("no reference run to check determinism against")
            elif fingerprint(rec) != reference:
                problems.append(f"determinism: hpwl_refined/transforms "
                                f"{rec['hpwl_refined']!r}/{rec['transforms']} != "
                                f"reference {reference[0]!r}/{reference[1]}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            log(f"FAILED {label}: " + "; ".join(problems))
        return rec


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def fingerprint(rec):
    return None if rec is None else (rec["hpwl_refined"], rec["transforms"])


def place_s(rec):
    return rec["global_s"] + rec["legalize_s"]


def circuit_mean(per_circuit, fn):
    """Per circuit the median over its runs, then the mean over circuits."""
    vals = [statistics.median(fn(r) for r in recs) for recs in per_circuit if recs]
    return statistics.fmean(vals) if vals else float("nan")


def round_robin(runner, count, seconds, step):
    """Call step(0), step(1), ... round-robin over `count` while the next
    call is expected to end within `seconds` (always at least once), so a
    slow machine measures fewer circuits instead of overrunning."""
    t0 = time.monotonic()
    took = {}
    turn = 0
    while runner.remaining() > 0:
        i = turn % count
        expected = took.get(i, statistics.fmean(took.values()) if took else 0.0)
        if turn and time.monotonic() - t0 + expected > seconds:
            break
        t_step = time.monotonic()
        step(i)
        took.setdefault(i, time.monotonic() - t_step)
        turn += 1


def end_to_end(runner, bases, seconds):
    """Timed runs for `seconds`, then an untimed reference run of every
    circuit that was timed (in parallel), which each timed run must match."""
    spec = runner.spec
    results = [[] for _ in bases]
    setups = []

    def timed_run(i):
        # An extra fresh-process set-up sample first, so that setup_s is a
        # median over twice as many samples spread through the run.
        code, out, _ = runner.run_one(runner.place_cmd(bases[i], setup_only=True),
                                      spec["threads"])
        if code == 0:
            rec = last_json(out)
            setups.append(rec["read_s"] + rec["build_s"])
        results[i].append(runner.run_one(runner.place_cmd(bases[i]), spec["threads"]))

    round_robin(runner, len(bases), seconds, timed_run)
    timed = [i for i, runs in enumerate(results) if runs]
    refs = runner.parallel([runner.place_cmd(bases[i]) for i in timed], REFERENCE_THREADS)
    per_circuit = []
    for i, ref in zip(timed, refs):
        reference = fingerprint(runner.record(
            f"c{i} reference run, GPF_THREADS={REFERENCE_THREADS}", ref, None,
            is_reference=True))
        recs = []
        for n, res in enumerate(results[i], 1):
            label = f"c{i} timed run {n}"
            rec = runner.record(label, res, reference)
            if rec is not None:
                recs.append(rec)
                setups.append(rec["read_s"] + rec["build_s"])
                log(f"  {label}: place {place_s(rec):.3f} s, {rec['transforms']} "
                    f"transformations, hpwl_refined {rec['hpwl_refined']:.1f}")
        per_circuit.append(recs)

    all_recs = [r for recs in per_circuit for r in recs]
    if not all_recs:
        return {}, {}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "place_s": (circuit_mean(per_circuit, place_s), "s"),
        "hpwl_refined": (circuit_mean(per_circuit, lambda r: r["hpwl_refined"]),
                         "layout_units"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in all_recs), "MiB"),
    }
    samples = {"timed runs": len(all_recs), "set-up samples": len(setups),
               "circuits timed": len(timed),
               "runs per circuit": [len(recs) for recs in per_circuit]}
    return metrics, samples


def layer_metrics(rec, untraced):
    """Per-layer metrics of one traced run (plus its untraced twin)."""
    cg = rec["cg_iters"]
    # One CSR SpMV per CG iteration: values (8 B) and column indices (8 B)
    # per nonzero, row pointers, the x read and the y write (8 B each).
    spmv_bytes = rec["nnz"] * 16 + (rec["matrix_rows"] + 1) * 8 + rec["matrix_rows"] * 16
    lookups = rec["fft_plan_hits"] + rec["fft_plan_misses"]
    return {
        "netlist.read_s": (rec["read_s"], "s"),
        "netlist.write_s": (rec["write_s"], "s"),
        "netlist.input_bytes": (rec["input_bytes"], "bytes"),
        "model.build_s": (rec["build_s"], "s"),
        "model.assemble_s": (rec["phase.assemble"], "s"),
        "model.nnz": (rec["nnz"], "count"),
        "linalg.cg_iters": (cg, "count"),
        "linalg.cg_iters_per_transform": (cg / max(1, rec["attempted_transforms"]),
                                          "count"),
        "linalg.solve_s": (rec["phase.solve"], "s"),
        "linalg.wire_relax_s": (rec["phase.wire_relax"], "s"),
        "linalg.cg_unconverged": (rec["cg_unconverged"], "count"),
        "linalg.spmv_bytes": (cg * spmv_bytes, "bytes"),
        "linalg.fft_plan_hit_ratio": (rec["fft_plan_hits"] / max(1, lookups), "ratio"),
        "density.density_s": (rec["phase.density"], "s"),
        "density.stamp_s": (rec["kernel.stamp_s"], "s"),
        "density.force_field_s": (rec["phase.force_field"], "s"),
        "density.fft_fwd_s": (rec["kernel.fft_fwd_s"], "s"),
        "density.fft_mul_s": (rec["kernel.fft_mul_s"], "s"),
        "density.fft_inv_s": (rec["kernel.fft_inv_s"], "s"),
        "density.fft_gflop": (rec["kernel.fft_flops"] / 1e9, "GFLOP"),
        "density.move_force_s": (rec["phase.move_force"], "s"),
        "density.spread_check_s": (rec["phase.spread_check"], "s"),
        "core.global_s": (rec["global_s"], "s"),
        "core.transforms": (rec["transforms"], "count"),
        "core.transform_ms.p50": (rec["transform_ms_p50"], "ms"),
        "core.recovery_events": (rec["recovery_events"], "count"),
        "core.accept_ratio": (rec["accepted_transforms"] /
                              max(1, rec["attempted_transforms"]), "ratio"),
        "core.unprofiled_s": (rec["global_s"] - rec["phase_sum_s"], "s"),
        "core.trace_overhead_s": (place_s(rec) - place_s(untraced), "s"),
        "cluster.coarsen_s": (rec["phase.coarsen"], "s"),
        "cluster.interpolate_s": (rec["phase.interpolate"], "s"),
        "cluster.coarse_transforms": (rec["coarse_transforms"], "count"),
        "cluster.coarse_s": (rec["coarse_s"], "s"),
        "legal.legalize_s": (rec["legalize_s"], "s"),
        "legal.hpwl_legal": (rec["hpwl_legal"], "layout_units"),
        "legal.refine_swaps": (rec["refine_swaps"], "count"),
        "legal.refine_relocations": (rec["refine_relocations"], "count"),
        "legal.refine_passes": (rec["refine_passes"], "count"),
        "verify.legal_s": (rec["verify_s"], "s"),
        "verify.violations": (rec["violations"], "count"),
    }


def traced(runner, bases, seconds):
    """Per circuit: an untraced run, then a traced run that must match it."""
    spec = runner.spec
    per_circuit = [[] for _ in bases]

    def pair(i):
        plain = runner.record(f"c{i} untraced run",
                              runner.run_one(runner.place_cmd(bases[i]), spec["threads"]),
                              None, is_reference=True)
        res = runner.run_one(runner.place_cmd(bases[i], trace=True), spec["threads"])
        rec = runner.record(f"c{i} traced run", res, fingerprint(plain))
        if rec is not None and plain is not None:
            if not any(per_circuit):
                log(f"machine: simd={rec['simd']} GPF_THREADS={rec['threads']} "
                    f"nproc={os.cpu_count()}")
            per_circuit[i].append(layer_metrics(rec, plain))

    round_robin(runner, len(bases), seconds, pair)
    runs = [m for recs in per_circuit for m in recs]
    if not runs:
        return {}, {}
    metrics = {name: (circuit_mean(per_circuit, lambda m, n=name: m[n][0]), unit)
               for name, (_, unit) in runs[0].items()}
    samples = {"traced runs": len(runs), "circuits timed": len(bases),
               "runs per circuit": [len(recs) for recs in per_circuit]}
    return metrics, samples


def report_layers(m):
    """Stderr lines that make the profiler's known gaps and the workload's
    stress visible instead of summing over them."""
    v = {name: value for name, (value, _) in m.items()}
    g = v["core.global_s"] or float("nan")
    log(f"  CG share of core.global_s: "
        f"{(v['linalg.solve_s'] + v['linalg.wire_relax_s']) / g:.1%}; "
        f"force field {v['density.force_field_s'] / g:.1%}; "
        f"unprofiled {v['core.unprofiled_s']:.4f} s")
    log(f"  profiler gap: stamp kernel {v['density.stamp_s']:.4f} s vs density phase "
        f"{v['density.density_s']:.4f} s (stamping mostly runs under "
        f"spread_check, {v['density.spread_check_s']:.4f} s)")
    log(f"  profiler gap: legalize {v['legal.legalize_s']:.4f} s is not profiled "
        f"(timed from outside, outside core.global_s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For smoke_test.py: shrink circuits and grids, and corrupt placements.
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--force-fail", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)

    build_root = ROOT / ".bench_build"
    try:
        exe = build(build_root / "perfbench")
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    spec = WORKLOADS[args.workload]
    work = build_root / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(exe, spec, work, args.scale, args.force_fail)
        count = spec["trace_circuits"] if args.trace else spec["circuits"]
        bases = runner.generate(circuit_seeds(args.seed, count))
        measure = traced if args.trace else end_to_end
        metrics, samples = measure(runner, bases, args.seconds)
    except (RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log(f"{args.workload} seed {args.seed} ({runner.cells} cells, {runner.bins} bins, "
        f"levels {spec['levels']}, GPF_THREADS={spec['threads']}): {samples}; "
        f"{runner.attempted} placement runs, {len(runner.failures)} failed")
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    if args.trace and metrics:
        report_layers(metrics)
    result = {
        "correct": not runner.failures and bool(metrics),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
