#!/usr/bin/env python3
"""wegner-lab benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (perfbench/worker.py) with BLAS and OpenMP pinned to one thread,
and its jobs run one after the other in that process: a closed loop with one
client and ``workers=1``.  The benchmark and its workers stay on one CPU.
Passes repeat until the next one would overrun ``--seconds``; every metric
is the median over the passes of the run.  With ``--trace 0`` each pass is
followed by a set-up probe, a fresh interpreter that stops once set-up is
done, and setup_s is the median over passes and probes.

``--trace 0`` reports the end-to-end metrics:

  setup_s      fresh interpreter until wegner_lab is imported and the
               workload's models and sets are built
  wall_s       summed over the jobs: job issued until its report.json,
               records.csv and summary.txt are written
  peak_rss_mb  peak resident memory of the pass's process

setup_s and wall_s are in reference seconds: each measured time is scaled
by REFERENCE_CALIBRATION_S over the time of a fixed pure-Python loop
(worker.calibrate) run on the same CPU just before and just after it.  A
shared host's CPU speed drifts by tens of percent within a minute and
between minutes, and the scaling takes that drift out; on a host where the
loop takes 10 ms a reference second is a second.  The measured seconds and
the loop's times are printed on the lines before the result.

``--trace 1`` alternates untraced passes with traced ones, in which spans
are recorded around every call that crosses between the package's modules
(see tracer.py), and reports the per-layer metrics of the traced passes and
the tracing overhead.  Each traced pass writes its spans to
perfbench/_out/<workload>/trace-<pass>.json.

Every run checks the outputs: a job fails when it raises, when the CLI exits
2, when its report.json or records.csv differs from another pass of the same
run (traced or not), from reference.json at seed 0, or when a recounted
eigenvalue window disagrees with a dense eigensolve.  The human lines before
the last one also give failed_frac, which is 0 when the program is correct and
so is carried by the result's ``failed`` count rather than as a metric.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from worker import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("battery", "slab2d", "queries1d")
HARD_LIMIT_S = 165.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
REFERENCE_CALIBRATION_S = 0.010  # the calibration loop's time at reference speed


def scaled(seconds: float, calibration_before: float, calibration_after: float) -> float:
    """Measured seconds in reference seconds, by the calibrations around them."""
    return seconds * REFERENCE_CALIBRATION_S / ((calibration_before + calibration_after) / 2)


class Pass:
    """One fresh-interpreter pass: its set-up time and the worker's result."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.setup_raw_s: float | None = None
        self.setup_s: float | None = None  # in reference seconds
        self.elapsed = 0.0
        self.result: dict | None = None

    @property
    def wall_s(self) -> float:
        """The jobs' summed wall time in reference seconds."""
        cal = self.result["calibration_s"]
        return sum(scaled(job["wall_s"], cal[k], cal[k + 1]) for k, job in enumerate(self.result["jobs"]))


def run_pass(args, index: int, traced: bool, check: bool, deadline: float, env: dict,
             setup_only: bool = False) -> Pass:
    """Run one worker; a set-up probe stops after set-up and leaves no result."""
    p = Pass(index, traced)
    stem = OUT / args.workload / (f"setup-{index}" if setup_only else f"pass-{index}")
    jobs_dir = OUT / args.workload / ("probe" if setup_only else "jobs")
    shutil.rmtree(jobs_dir, ignore_errors=True)
    result_path = stem.with_suffix(".json")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(jobs_dir), "--result", str(result_path)]
    if traced:
        cmd += ["--trace", str(OUT / args.workload / f"trace-{index}.json")]
    if check:
        cmd.append("--check")
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    log_path = stem.with_suffix(".log")
    with open(log_path, "w") as log:
        calibration_before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT, text=True)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            if proc.stdout.readline().strip() == "ready":
                setup_raw_s = time.perf_counter() - t0
                line = proc.stdout.readline().split()
                if len(line) == 2 and line[0] == "calibration":
                    p.setup_raw_s = setup_raw_s
                    p.setup_s = scaled(setup_raw_s, calibration_before, float(line[1]))
            proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
        p.elapsed = time.perf_counter() - t0
    if proc.returncode == 0 and (setup_only or result_path.is_file()):
        if not setup_only:
            p.result = json.loads(result_path.read_text())
    else:
        sys.stderr.write(f"{stem.name} ended with code {proc.returncode}:\n{log_path.read_text()[-2000:]}\n")
    return p


def judge(passes: list[Pass], reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job of every pass."""
    attempted = failed = 0
    problems: list[str] = []
    base = next((p.result for p in passes if p.result is not None), None)
    base_hashes = {j["name"]: j["hashes"] for j in base["jobs"]} if base else {}
    n_jobs = len(base["jobs"]) if base else 1
    for p in passes:
        if p.result is None:
            attempted += n_jobs
            failed += n_jobs
            problems.append(f"pass {p.index}: worker failed")
            continue
        if p.traced and not p.result.get("restored", False):
            problems.append(f"pass {p.index}: a package attribute differs from before the tracer went in")
        recount = p.result.get("recount", [])
        for job in p.result["jobs"]:
            name = job["name"]
            attempted += 1
            why = None
            if job["error"] is not None:
                why = "raised " + job["error"].strip().splitlines()[-1]
            elif job["exit"] == 2:
                why = "CLI exited 2"
            elif job["hashes"] is None:
                why = "report files missing"
            elif reference is not None and job["hashes"] != reference.get(name):
                why = "outputs differ from reference.json"
            elif job["hashes"] != base_hashes.get(name):
                why = "outputs differ between passes of this run"
            elif any(not r.get("ok", True) and r["job"] in (name, "*") for r in recount):
                why = "dense recount disagrees"
            if why is not None:
                failed += 1
                problems.append(f"pass {p.index} {name}: {why}")
    return attempted, failed, problems


def pin_to_one_cpu() -> int | None:
    """Keep this process and its workers on one CPU, so each calibration
    measures the CPU the timed work ran on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_facts(cpu: int | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": 1,
        "workers": 1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="workload seed; 0 gives the frozen battery seeds")
    ap.add_argument("--seconds", type=float, default=30.0, help="measure for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced passes")
    ap.add_argument("--quick", action="store_true", help="tiny replica counts (smoke test; no reference)")
    ap.add_argument("--write-reference", action="store_true",
                    help="run one pass at seed 0 and store its output hashes in reference.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wegner_lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no wegner_lab sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.write_reference and (args.seed != 0 or args.quick):
        sys.stderr.write("error: the reference is written at seed 0 without --quick\n")
        return 2

    spec = json.loads(SPEC.read_text())  # the metrics to report, with their units
    cpu = pin_to_one_cpu()
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / args.workload).mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})

    passes: list[Pass] = []
    # an untraced run follows each pass with a set-up probe: twice the
    # set-up samples for little time
    setups: list[tuple[float, float]] = []  # (measured, reference) seconds
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        p = run_pass(args, len(passes), traced, check=not passes, deadline=deadline, env=env)
        passes.append(p)
        if p.result is None or args.write_reference:
            break
        next_pass = p.elapsed
        if args.trace == 0:
            probe = run_pass(args, len(passes) - 1, False, False, deadline, env, setup_only=True)
            if probe.setup_s is not None:
                setups.append((probe.setup_raw_s, probe.setup_s))
            next_pass += probe.elapsed
        elapsed = time.perf_counter() - start
        need_traced = args.trace == 1 and not any(q.traced for q in passes)
        if elapsed + next_pass > (HARD_LIMIT_S if need_traced else args.seconds):
            break

    if args.write_reference:
        if passes[0].result is None:
            return 1
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        ref[args.workload] = {j["name"]: j["hashes"] for j in passes[0].result["jobs"]}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.workload} hashes to {REFERENCE.name}")
        return 0

    reference = None
    if args.seed == 0 and not args.quick:
        reference = json.loads(REFERENCE.read_text()).get(args.workload)
    attempted, failed, problems = judge(passes, reference)
    restored = all(p.result.get("restored", False) for p in passes if p.traced and p.result is not None)
    ok_passes = [p for p in passes if p.result is not None and p.setup_s is not None]
    plain = [p for p in ok_passes if not p.traced]
    traced = [p for p in ok_passes if p.traced]

    facts = machine_facts(cpu)
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes ({len(traced)} traced)")
    print("measured seconds, then reference seconds in brackets:")
    for p in ok_passes:
        r = p.result
        cal = r["calibration_s"]
        print(f"  pass {p.index}{' traced' if p.traced else ''}: setup {p.setup_raw_s:.3f} s [{p.setup_s:.3f}], "
              f"wall {r['wall_s']:.3f} s [{p.wall_s:.3f}] (cpu {r['cpu_s']:.3f} s), rss {r['peak_rss_mb']:.1f} MB, "
              f"calibration {1e3 * min(cal):.2f}-{1e3 * max(cal):.2f} ms")
    if setups:
        print("set-up probes: " + ", ".join(f"{raw:.3f} s [{ref:.3f}]" for raw, ref in setups))
    if plain:
        per_job = {j["name"]: [] for j in plain[0].result["jobs"]}
        for p in plain:
            for j in p.result["jobs"]:
                per_job[j["name"]].append(j["wall_s"])
        print("job medians, untraced: " + ", ".join(f"{k} {statistics.median(v):.3f} s" for k, v in per_job.items()))
    recounts = [r for p in passes if p.result for r in p.result.get("recount", []) if "dense" in r]
    print(f"dense recount: {sum(r['ok'] for r in recounts)}/{len(recounts)} windows agree")
    for line in problems:
        print(f"FAILED {line}")

    metrics: dict[str, dict] = {}
    if args.trace == 0 and plain:
        values = {
            "setup_s": [p.setup_s for p in plain] + [ref for _, ref in setups],
            "wall_s": [p.wall_s for p in plain],
            "peak_rss_mb": [p.result["peak_rss_mb"] for p in plain],
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
    elif args.trace == 1 and traced:
        layers = {name: statistics.median(p.result["layers"][name] for p in traced) for name in traced[0].result["layers"]}
        layers["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
            p.wall_s for p in plain)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} jobs)")
    (OUT / args.workload / "run.json").write_text(json.dumps(
        {"facts": facts, "seed": args.seed, "problems": problems, "metrics": metrics}, indent=1) + "\n")

    correct = failed == 0 and restored and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
