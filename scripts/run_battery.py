#!/usr/bin/env python3
"""Run the full experiment battery and store every report.

Each experiment gets its own directory under --out with report.json,
records.csv, and summary.txt.  Default settings reproduce the frozen
values pinned in the test suite; --quick cuts replica counts for a fast
smoke pass (same seeds, different statistics).

Exit code 1 if any experiment verdict is FAIL, else 0.
"""

import argparse
import inspect
import sys
from pathlib import Path

from wegner_lab import experiments as X
from wegner_lab.random_model import (
    covering_model,
    fat_cantor_model,
    geometric_dilution_model,
)
from wegner_lab.thick_sets import stripes_raster

# the battery, one row per job: its name, the experiments driver it calls, the
# subject it runs on, its replicas under --quick (None: the driver's default;
# a full run always takes the driver's default), and any other arguments;
# every driver that takes workers gets --workers
JOBS = (
    ("wegner-covering", "run_wegner", "covering", 20, {}),
    ("wegner-cantor", "run_wegner", "cantor", 20, {}),
    ("ids-covering", "estimate_ids", "covering", 10, {"c_w": 1.0}),
    ("uncertainty-stripes", "run_uncertainty", "stripes", None, {}),
    ("ise-covering", "run_ise", "covering", 20, {}),
    ("stubborn-geometric", "run_stubborn", "geometric", None, {}),
    ("stubborn-exp-geometric", "run_stubborn_exponential", "geometric", None, {}),
    ("spectral-minimum-covering", "run_spectral_minimum", "covering", 10, {}),
    ("localisation-probe-covering", "localisation_probe", "covering", None, {}),
    ("minorant-covering", "run_minorant_check", "covering", 5, {}),
)


def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory (default: results)")
    ap.add_argument("--quick", action="store_true", help="fewer replicas for a smoke pass")
    ap.add_argument("--workers", type=_workers, default=1, help="parallel replica workers (at least 1)")
    args = ap.parse_args(argv)
    out = Path(args.out)

    subjects = {
        "covering": covering_model(),
        "cantor": fat_cantor_model(),
        "geometric": geometric_dilution_model(),
        "stripes": stripes_raster(1.0 / 3.0, 1.0, 48),
    }

    failed = False
    for name, driver_name, subject, quick_replicas, kwargs in JOBS:
        driver = getattr(X, driver_name)
        if args.quick and quick_replicas is not None:
            kwargs = kwargs | {"replicas": quick_replicas}
        if "workers" in inspect.signature(driver).parameters:
            kwargs = kwargs | {"workers": args.workers}
        rep = driver(subjects[subject], **kwargs)
        rep.write(out / name)
        print(f"{name:<30s} {rep.overall:<13s} {rep.wall_clock_s:7.2f}s")
        failed = failed or rep.overall == "FAIL"
    print(f"reports under {out}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
