"""One pass of one workload, in a fresh interpreter started by run.py.

Protocol: the worker prints ``ready`` on stdout once the package is
imported and the workload's models and sets are built (run.py times set-up
up to that line), then ``calibration <seconds>``, runs every job in order,
and writes its result as JSON to ``--result``.  Nothing else goes to stdout.

Each job is timed from its issue until its report files are written, and
the pass's wall time is the sum over its jobs.  The calibration loop runs
after set-up and after every job, outside the timed jobs, so run.py can
scale each job by the host's speed around it.  Peak memory is read after
the last job, before the output check and the trace summary allocate
anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


CALIBRATION_LOOP = 100_000


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop (about 10 ms).

    The loop uses nothing from the package, so no change to the package can
    move it; it moves with the speed the host gives this CPU, which on a
    shared machine drifts by tens of percent within a minute.
    """
    t = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - t


def _hashes(job_dir: Path) -> dict[str, str] | None:
    try:
        return {
            name: hashlib.sha256((job_dir / name).read_bytes()).hexdigest()
            for name in ("report.json", "records.csv")
        }
    except OSError:
        return None


def _recount(windows) -> list[dict]:
    """Recount each window with a dense symmetric eigensolve.

    The operator is rebuilt through the package's public functions from the
    job's seed and replica, so it is the operator the job counted on.  A
    window whose endpoint sits within solver accuracy of an eigenvalue
    cannot be judged by the dense solve and is reported as skipped.
    """
    import numpy as np
    from wegner_lab.grids import BoxSpec, add_potential, build_free_laplacian
    from wegner_lab.random_model import sample_potential
    from wegner_lab.spectral import count_in_interval

    out = []
    operators: dict[tuple, tuple] = {}
    for w in windows:
        key = (id(w.model), w.L, w.mesh_density, w.seed, w.replica)
        if key not in operators:
            # the drivers' Dirichlet box: L * mesh_density - 1 interior points per axis
            box = BoxSpec(d=w.model.d, length=w.L, center=(0.0,) * w.model.d, n=round(w.L * w.mesh_density) - 1)
            H = add_potential(build_free_laplacian(box), sample_potential(w.model, (w.seed, w.replica), box))
            ev = np.linalg.eigvalsh(H.matrix.toarray())
            operators[key] = (H, ev)
        H, ev = operators[key]
        tol = 1e-8 * max(1.0, float(np.abs(ev).max()))
        ends = [e for e in (w.lo, w.hi) if math.isfinite(e)]
        if any(np.abs(ev - e).min() <= tol for e in ends):
            out.append({"job": w.job, "window": [w.lo, w.hi], "skipped": True})
            continue
        dense = int(np.count_nonzero((ev >= w.lo) & (ev <= w.hi)))
        program = count_in_interval(H, w.lo, w.hi)
        out.append({"job": w.job, "window": [w.lo, w.hi], "replica": w.replica, "n": H.box.ndof,
                    "dense": dense, "program": program, "ok": dense == program})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the job outputs")
    ap.add_argument("--result", required=True, help="path of the result JSON")
    ap.add_argument("--trace", help="record spans around cross-module calls and write them here")
    ap.add_argument("--check", action="store_true", help="recount a few windows with a dense solver")
    ap.add_argument("--quick", action="store_true", help="tiny replica counts for a smoke pass")
    ap.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = ap.parse_args(argv)
    out = Path(args.out)

    import workloads

    workload = workloads.build(args.workload, args.seed, args.quick, out)
    print("ready", flush=True)
    calibration = [calibrate()]
    print(f"calibration {calibration[0]!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    jobs = []
    for job in workload.jobs:
        if tracer is not None:
            tracer.begin_job(job.name)
        t_job, c_job = time.perf_counter(), time.process_time()
        try:
            code = job.run(out / job.name, span)
            error = None
        except Exception:  # a job that raises is a failed job; the pass goes on
            code, error = None, traceback.format_exc()
            sys.stderr.write(f"job {job.name} raised:\n{error}")
        jobs.append({"name": job.name, "exit": code, "error": error, "wall_s": time.perf_counter() - t_job,
                     "cpu_s": time.process_time() - c_job})
        calibration.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(job["wall_s"] for job in jobs)
    cpu_s = sum(job["cpu_s"] for job in jobs)

    result = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "jobs": jobs,
              "calibration_s": calibration}
    if tracer is not None:
        result["restored"] = tracer.uninstall()
        result["layers"] = tracer.metrics(wall_s)
        tracer.write(Path(args.trace))
    reports = {}
    for job in jobs:
        job["hashes"] = _hashes(out / job["name"])
        if job["hashes"] is not None:
            reports[job["name"]] = json.loads((out / job["name"] / "report.json").read_text())
    if args.check:
        try:
            result["recount"] = _recount(workload.windows(reports))
        except Exception:
            result["recount"] = [{"job": "*", "ok": False, "error": traceback.format_exc()}]
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
