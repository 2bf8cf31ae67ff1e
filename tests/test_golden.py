"""The verification reports are pinned byte for byte.

`tests/data/verify_catalog.json`, `.csv` and `.txt` are the output of
`ncpforge verify --format json`, `csv` and `text` over the default
catalog, and `tests/data/verify_B5_G3-3-5.json` that of
`ncpforge verify --group B5 --group G:3,3,5 --format json`, two groups
outside it, and `tests/data/verify_H4_E6.json` that of
`ncpforge verify --order-cap 60000 --group H4 --group E6 --format json`,
two exceptional groups off the default catalog.
`tests/data/verify_E7.json`, the report of `ncpforge verify --order-cap
3000000 --group E7 --format json`, is compared by a CI step, not here:
that run takes about 25 s and 1.7 GB of address space.  Every value in them is a count, a boolean or an (r, u) list,
so a refactor that changes no result leaves them unchanged.  Regenerate
them only when a check is added or removed on purpose.
"""

from pathlib import Path

import json

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


@pytest.fixture(scope="module")
def h4_e6_report(tmp_path_factory):
    target = tmp_path_factory.mktemp("h4_e6") / "report.json"
    code = main(["verify", "--order-cap", "60000", "--group", "H4",
                 "--group", "E6", "--format", "json", "--output", str(target)])
    assert code == 0
    return target.read_bytes()


def test_h4_and_e6_match_golden(h4_e6_report):
    assert h4_e6_report == (DATA / "verify_H4_E6.json").read_bytes()


def test_h4_and_e6_reproduce_the_papers_table(h4_e6_report):
    """Literals from the paper's table, not from any formula in the code:
    |NCP| = 280 and 833, |Red(c)| = 1350 and 41472, and for E6 the
    number of factorisations of c into 5 blocks, 86400."""
    groups = {g["group"]: g for g in json.loads(h4_e6_report)["groups"]}
    computed = {(label, check["check_id"]): check["computed"]
                for label, g in groups.items() for check in g["checks"]}
    assert groups["H4"]["ncp_size"] == 280
    assert groups["E6"]["ncp_size"] == 833
    assert computed["H4", "red"] == 1350
    assert computed["E6", "red"] == 41472
    assert computed["E6", "fact_5"] == 86400
