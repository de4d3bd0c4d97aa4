#!/usr/bin/env python3
"""Build the example raster sets and print their thickness certificates.

Writes stripes (1/3 of each unit cell) and the stage-4 fat Cantor set, one
.npz raster archive each, then certifies each against the unit window so the
printed gamma matches what the experiments assume.
"""

import argparse
import sys
from pathlib import Path

from wegner_lab.thick_sets import (
    WindowSpec,
    build_fat_cantor,
    certify_thickness,
    save_raster,
    smith_volterra_spec,
    stripes_raster,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="sets", help="output directory (default: sets)")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    stripes = stripes_raster(1.0 / 3.0, 1.0, 48)
    cantor = build_fat_cantor(smith_volterra_spec(4), 1024)

    for name, S in (("stripes_third", stripes), ("fat_cantor_depth4", cantor)):
        save_raster(S, out / f"{name}.npz")
        cert = certify_thickness(S, WindowSpec((1.0,)))
        print(
            f"{name}: measure {S.measure!r}, unit-window gamma {cert.gamma_star!r}"
            f" (error bound {cert.error_bound!r})"
        )
    print(f"sets under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
