"""Report assembly: per-group check rows and their JSON/CSV/text renderings.

Every check carries an expected value, a computed value and a pass flag.
Rendering is deliberately free of wall-clock data so that reports are
byte-identical across runs for a fixed configuration.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

SCHEMA_VERSION = "1.0"


@dataclass
class CheckRow:
    group: str
    suite: str
    check_id: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass
class GroupSection:
    label: str
    order: int
    degrees: list[int]
    h: int
    num_reflections: int
    ncp_size: int | None = None
    checks: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.checks)


@dataclass
class Report:
    sections: list[GroupSection] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(sec.passed for sec in self.sections)

    def rows(self) -> list[CheckRow]:
        return [row for sec in self.sections for row in sec.checks]


def _plain(value):
    """Deterministic, JSON-friendly projection of a check value."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def render_json(report: Report) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "all_pass": report.all_pass,
        "groups": [
            {
                "group": sec.label,
                "order": sec.order,
                "degrees": list(sec.degrees),
                "coxeter_number": sec.h,
                "num_reflections": sec.num_reflections,
                "ncp_size": sec.ncp_size,
                "pass": sec.passed,
                "checks": [
                    {
                        "suite": row.suite,
                        "check_id": row.check_id,
                        "expected": _plain(row.expected),
                        "computed": _plain(row.computed),
                        "pass": row.passed,
                    }
                    for row in sec.checks
                ],
            }
            for sec in report.sections
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["group", "suite", "check_id", "expected", "computed",
                     "pass"])
    for row in report.rows():
        writer.writerow([row.group, row.suite, row.check_id,
                         str(_plain(row.expected)), str(_plain(row.computed)),
                         str(row.passed).lower()])
    return buf.getvalue()


def render_text(report: Report) -> str:
    lines = []
    for sec in report.sections:
        lines.append(f"== {sec.label}  |W|={sec.order}  "
                     f"degrees={list(sec.degrees)}  h={sec.h}  "
                     f"reflections={sec.num_reflections}"
                     + (f"  |NCP|={sec.ncp_size}" if sec.ncp_size else ""))
        for row in sec.checks:
            mark = "ok " if row.passed else "FAIL"
            lines.append(f"  [{mark}] {row.suite}/{row.check_id}: "
                         f"expected {_plain(row.expected)}, "
                         f"computed {_plain(row.computed)}")
    lines.append("ALL PASS" if report.all_pass else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "json": render_json,
    "csv": render_csv,
    "text": render_text,
}
