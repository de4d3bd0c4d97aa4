#!/usr/bin/env python3
"""Run the full experiment battery and store every report.

Each experiment gets its own directory under --out with report.json,
records.csv, and summary.txt.  Default settings reproduce the frozen
values pinned in the test suite; --quick cuts replica counts for a fast
smoke pass (same seeds, different statistics).

Exit code 1 if any experiment verdict is FAIL, else 0.
"""

import argparse
import sys
from pathlib import Path

from wegner_lab import experiments as X
from wegner_lab.random_model import (
    covering_model,
    fat_cantor_model,
    geometric_dilution_model,
)
from wegner_lab.thick_sets import stripes_raster


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
    w = args.workers

    covering = covering_model()
    cantor = fat_cantor_model()
    geometric = geometric_dilution_model()
    stripes = stripes_raster(1.0 / 3.0, 1.0, 48)

    # replica counts: (default, quick)
    def n(full, quick):
        return quick if args.quick else full

    jobs = [
        ("wegner-covering", lambda: X.run_wegner(covering, replicas=n(200, 20), workers=w)),
        ("wegner-cantor", lambda: X.run_wegner(cantor, replicas=n(200, 20), workers=w)),
        ("ids-covering", lambda: X.estimate_ids(covering, replicas=n(100, 10), c_w=1.0, workers=w)),
        ("uncertainty-stripes", lambda: X.run_uncertainty(stripes)),
        ("ise-covering", lambda: X.run_ise(covering, replicas=n(200, 20), workers=w)),
        ("stubborn-geometric", lambda: X.run_stubborn(geometric, workers=w)),
        ("stubborn-exp-geometric", lambda: X.run_stubborn_exponential(geometric, workers=w)),
        ("spectral-minimum-covering", lambda: X.run_spectral_minimum(covering, replicas=n(40, 10), workers=w)),
        ("localisation-probe-covering", lambda: X.localisation_probe(covering, workers=w)),
        ("minorant-covering", lambda: X.run_minorant_check(covering, replicas=n(20, 5))),
    ]

    failed = False
    for name, job in jobs:
        rep = job()
        rep.write(out / name)
        print(f"{name:<30s} {rep.overall:<13s} {rep.wall_clock_s:7.2f}s")
        failed = failed or rep.overall == "FAIL"
    print(f"reports under {out}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
