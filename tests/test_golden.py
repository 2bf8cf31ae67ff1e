"""The verification reports are pinned byte for byte.

`tests/data/verify_catalog.json`, `.csv` and `.txt` are the output of
`ncpforge verify --format json`, `csv` and `text` over the default
catalog, and `tests/data/verify_B5_G3-3-5.json` that of
`ncpforge verify --group B5 --group G:3,3,5 --format json`, two groups
outside it.  Every value in them is a count, a boolean or an (r, u) list,
so a refactor that changes no result leaves them unchanged.  Regenerate
them only when a check is added or removed on purpose.
"""

from pathlib import Path

import pytest

from ncpforge.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_catalog.json"


def test_catalog_report_matches_golden(tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "--format", "json", "--output", str(target)])
    assert code == 0
    assert target.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("text", "txt")])
def test_catalog_renderings_match_golden(tmp_path, fmt, suffix):
    target = tmp_path / f"report.{suffix}"
    code = main(["verify", "--format", fmt, "--output", str(target)])
    assert code == 0
    assert target.read_bytes() == (DATA / f"verify_catalog.{suffix}").read_bytes()


def test_groups_outside_the_catalog_match_golden(tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "--group", "B5", "--group", "G:3,3,5",
                 "--format", "json", "--output", str(target)])
    assert code == 0
    assert target.read_bytes() == (DATA / "verify_B5_G3-3-5.json").read_bytes()
