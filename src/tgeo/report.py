"""Structured verification results and their serialization.

Reports serialize deterministically: JSON output is key-sorted and CSV cells
use repr-faithful float formatting, so two runs with identical inputs produce
byte-identical files apart from the recorded wall time.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

REPORT_SCHEMA = "tgeo-report/1"

_VERDICTS = ("pass", "fail", "stable", "unstable")


@dataclass
class VerificationReport:
    """Outcome of one verification run.

    ``verdict`` is "pass"/"fail" for plain checks and "stable"/"unstable"
    for stability runs; ``ok`` tells whether the run met its tolerance,
    independently of which label describes the geometry.
    """

    name: str
    parameters: dict
    samples: int
    max_residual: float
    tolerance: float
    verdict: str
    notes: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}")
        self.max_residual = float(self.max_residual)
        self.tolerance = float(self.tolerance)
        self.samples = int(self.samples)
        self.notes = list(self.notes)

    @property
    def ok(self) -> bool:
        return self.verdict != "fail" and self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        out = asdict(self)
        out["schema"] = REPORT_SCHEMA
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        payload = dict(data)
        schema = payload.pop("schema", REPORT_SCHEMA)
        if schema != REPORT_SCHEMA:
            raise ValueError(f"unsupported report schema {schema!r}")
        return cls(**payload)


def reports_to_json(reports: list) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)


def reports_from_json(text: str) -> list:
    return [VerificationReport.from_dict(d) for d in json.loads(text)]


_CSV_FIELDS = ("name", "verdict", "samples", "max_residual", "tolerance",
               "wall_time_s", "parameters", "notes")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, list):
        return "; ".join(str(v) for v in value)
    return str(value)


def reports_to_csv(reports: list) -> str:
    """UTF-8 text with LF line endings and lossless float cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for rep in reports:
        data = rep.to_dict()
        writer.writerow([_csv_cell(data[k]) for k in _CSV_FIELDS])
    return buf.getvalue()
