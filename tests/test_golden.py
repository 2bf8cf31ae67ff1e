"""The catalog verification report is pinned byte for byte.

`tests/data/verify_catalog.json` is the output of
`ncpforge verify --format json` over the default catalog.  Every value in
it is a count, a boolean or an (r, u) list, so a refactor that changes no
result leaves it unchanged.  Regenerate it only when a check is added or
removed on purpose.
"""

from pathlib import Path

from ncpforge.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_catalog.json"


def test_catalog_report_matches_golden(tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "--format", "json", "--output", str(target)])
    assert code == 0
    assert target.read_bytes() == GOLDEN.read_bytes()
