"""Experiment reports with byte-stable serialization.

Machine-readable outputs (JSON, records CSV) are deterministic functions of
the experiment inputs: keys are sorted, floats are written with repr (which
round-trips exactly; NaN and infinities, which strict JSON lacks, raise
ValueError), and wall-clock timing is never written.  Rerunning an experiment
with the same seed must reproduce these files byte for byte; timing belongs
only in the human summary.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

PASS = "PASS"
FAIL = "FAIL"
INFORMATIONAL = "INFORMATIONAL"

_RECORD_COLUMNS = ("point", "statistic", "value", "stderr", "replicas")


def _plain(value: Any) -> Any:
    """Coerce numpy scalars and containers into stable builtin types."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def record(
    point: Any,
    statistic: str,
    value: float,
    stderr: float | None = None,
    replicas: int | None = None,
) -> dict[str, Any]:
    return {
        "point": _plain(point),
        "statistic": str(statistic),
        "value": _plain(value),
        "stderr": _plain(stderr),
        "replicas": _plain(replicas),
    }


@dataclass
class ExperimentReport:
    """Everything one experiment run produced, verdicts included."""

    experiment: str = ""  # stamped by the driver's registration (experiments._experiment)
    config: dict[str, Any] = field(default_factory=dict)
    records: list[dict[str, Any]] = field(default_factory=list)
    fitted: dict[str, Any] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    seed: int = 0
    wall_clock_s: float | None = None

    @property
    def overall(self) -> str:
        if any(v == FAIL for v in self.verdicts.values()):
            return FAIL
        if any(v == PASS for v in self.verdicts.values()):
            return PASS
        return INFORMATIONAL

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config": _plain(self.config),
            "records": _plain(self.records),
            "fitted": _plain(self.fitted),
            "verdicts": _plain(self.verdicts),
            "overall": self.overall,
            "seed": int(self.seed),
            "reduction_order": "replica-index",  # replicas reduce in index order, whatever the workers
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExperimentReport":
        """The report to_json wrote; ValueError for text that is not one."""
        raw = json.loads(text)
        if not isinstance(raw, dict) or not isinstance(raw.get("experiment"), str):
            raise ValueError("not a report: no experiment name")
        stored = ("experiment", "config", "records", "fitted", "verdicts", "seed")
        rep = ExperimentReport(**{key: raw[key] for key in stored if key in raw})  # absent keys take the defaults
        tables = (rep.config, rep.fitted, rep.verdicts)
        if not isinstance(rep.records, list) or not all(isinstance(t, dict) for t in (*tables, *rep.records)):
            raise ValueError("not a report: config, fitted, verdicts and each record must be JSON objects")
        return rep

    def to_records_csv(self) -> str:
        out = io.StringIO()
        out.write("# wegner-lab records v1\n")
        out.write(",".join(_RECORD_COLUMNS) + "\n")
        for rec in self.records:
            row = []
            for col in _RECORD_COLUMNS:
                v = rec.get(col)
                if v is None:
                    row.append("")
                elif isinstance(v, float):
                    row.append(repr(v))
                elif isinstance(v, (list, tuple)):
                    row.append('"' + ";".join(repr(_plain(x)) for x in v) + '"')
                else:
                    row.append(str(v))
            out.write(",".join(row) + "\n")
        return out.getvalue()

    def write(self, out_dir: str | Path) -> None:
        """Write report.json, records.csv and summary.txt into out_dir, creating it."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json())
        (out / "records.csv").write_text(self.to_records_csv())
        (out / "summary.txt").write_text(self.human_summary())

    def human_summary(self) -> str:
        lines = [f"experiment: {self.experiment}", f"seed: {self.seed}", ""]
        if self.fitted:
            lines.append("fitted:")
            for k in sorted(self.fitted):
                lines.append(f"  {k} = {_plain(self.fitted[k])}")
            lines.append("")
        lines.append("verdicts:")
        for k in sorted(self.verdicts):
            lines.append(f"  [{self.verdicts[k]}] {k}")
        lines.append(f"overall: {self.overall}")
        if self.wall_clock_s is not None:
            lines.append(f"wall clock: {self.wall_clock_s:.2f} s")
        return "\n".join(lines) + "\n"
