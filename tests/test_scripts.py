"""The shipped scripts run end to end against the current drivers."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BATTERY_JOBS = (
    "wegner-covering",
    "wegner-cantor",
    "ids-covering",
    "uncertainty-stripes",
    "ise-covering",
    "stubborn-geometric",
    "stubborn-exp-geometric",
    "spectral-minimum-covering",
    "localisation-probe-covering",
    "minorant-covering",
)


def test_quick_battery_writes_every_report(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_battery.py"), "--quick", "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BATTERY_JOBS)
    for job in BATTERY_JOBS:
        for name in ("report.json", "records.csv", "summary.txt"):
            assert (tmp_path / job / name).is_file(), f"{job}/{name}"
