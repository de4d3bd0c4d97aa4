"""Shared fixtures: models, thick sets, and the expensive experiment runs.

The four heavy reports (both volume-law runs, the resolvent-decay run, and
the spectral-mass scan) are session scoped so the acceptance gate and the
value-pinning tests share one execution each.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from wegner_lab import experiments
from wegner_lab.random_model import (
    covering_model,
    fat_cantor_model,
    geometric_dilution_model,
    load_model_config,
)
from wegner_lab.thick_sets import stripes_raster

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class GateRecorder:
    """Collects one verdict line per acceptance criterion for the end-of-run table."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def record(self, num: int, name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        line = f"criterion {num:2d}  {name:<44s} {tag}"
        if detail:
            line += f"  [{detail}]"
        self.lines.append(line)


_GATE = GateRecorder()


@pytest.fixture(scope="session")
def gate() -> GateRecorder:
    return _GATE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _GATE.lines:
        terminalreporter.section("acceptance gate")
        for line in sorted(_GATE.lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def covering():
    return covering_model()


@pytest.fixture(scope="session")
def cantor():
    return fat_cantor_model()


@pytest.fixture(scope="session")
def geometric():
    return geometric_dilution_model()


@pytest.fixture(scope="session")
def slab():
    return load_model_config(CONFIG_DIR / "slab.model.ini")


@pytest.fixture(scope="session")
def stripes_third():
    # measure 1/3 stripes; 48 cells per unit keeps the unit window cell-aligned
    return stripes_raster(width=1.0 / 3.0, period=1.0, resolution=48)


@pytest.fixture(scope="session")
def wegner_covering_report(covering):
    return experiments.run_wegner(covering)


@pytest.fixture(scope="session")
def wegner_cantor_report(cantor):
    return experiments.run_wegner(cantor)


@pytest.fixture(scope="session")
def ise_report(covering):
    return experiments.run_ise(covering)


@pytest.fixture(scope="session")
def uncertainty_report(stripes_third):
    return experiments.run_uncertainty(stripes_third)
