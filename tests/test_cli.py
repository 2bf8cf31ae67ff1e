"""CLI contract: exit codes, formats, determinism."""

import contextlib
import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpforge.catalog import GroupSpec, catalog_specs, parse_spec
from ncpforge.cli import (
    DEFAULT_NMAX,
    DEFAULT_ORBIT_CAP,
    DEFAULT_ORDER_CAP,
    SUITES,
    main,
    run_group,
)
import ncpforge
from ncpforge.errors import TableMismatch
from ncpforge.group import ReflectionGroup, build_group
from ncpforge.ncp import NcpLattice


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_text(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "A2" in out and "|W|=6" in out
    assert "F4" in out


def test_catalog_max_order_excludes_f4(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--max-order", "100")
    assert code == 0
    assert "F4" not in out
    assert "B2" in out


@pytest.mark.parametrize("max_order", ["1", "-5"])
def test_catalog_max_order_selecting_nothing_is_config_error(max_order,
                                                             capsys):
    """No catalog group has order below |A1| = 2; an empty listing is a
    configuration error, as an empty `verify` selection is."""
    code, out, err = run_cli(capsys, "catalog", "--max-order", max_order)
    assert code == 4
    assert out == ""
    assert f"--max-order {max_order} selects no catalog group" in err


def test_catalog_json(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1.0"
    entry = next(e for e in payload["catalog"] if e["group"] == "A2")
    assert entry["order"] == 6 and entry["degrees"] == [2, 3]


def test_verify_single_group_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "A3", "--suite", "all")
    assert code == 0
    assert "ALL PASS" in out
    assert "catalan: expected 14, computed 14" in out


def test_verify_trivial_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "A1")
    assert code == 0
    assert "ALL PASS" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "B2",
                           "--suite", "counts", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1.0"
    assert payload["all_pass"] is True
    section = payload["groups"][0]
    assert section["group"] == "B2"
    for check in section["checks"]:
        assert {"suite", "check_id", "expected", "computed",
                "pass"} <= set(check)


def test_verify_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "A2",
                           "--suite", "ncp", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["group", "suite", "check_id", "expected", "computed",
                       "pass"]
    assert all(row[0] == "A2" and row[5] == "true" for row in rows[1:])


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--group", "A2",
                           "--suite", "ncp", "--format", "json",
                           "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["all_pass"] is True


def test_verify_unwritable_output_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, _, err = run_cli(capsys, "verify", "--group", "A2",
                           "--suite", "ncp", "--output", str(target))
    assert code == 4
    assert "config error" in err and not target.exists()


def test_unwritable_output_fails_before_any_build(tmp_path, capsys,
                                                  monkeypatch):
    import ncpforge.cli as cli

    def no_build(*args, **kwargs):
        pytest.fail("a group was built before --output was checked")

    monkeypatch.setattr(cli, "build_group", no_build)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--output", str(target))
    assert code == 4
    assert out == "" and "config error" in err


def test_output_file_kept_when_run_ends_early(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    code, _, _ = run_cli(capsys, "verify", "--group", "F4",
                         "--order-cap", "100", "--output", str(target))
    assert code == 3
    assert target.read_text() == "earlier report\n"
    code, _, _ = run_cli(capsys, "verify", "--group", "A2", "--suite", "ncp",
                         "--format", "json", "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["all_pass"] is True


@pytest.mark.parametrize("argv", [["verify", "--group", "A1"], ["catalog"]],
                         ids=["verify", "catalog"])
def test_output_to_a_device_that_cannot_be_truncated(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--output", os.devnull)
    assert code == 0 and out == "" and err == ""


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_verify_nmax_below_one_is_config_error(nmax, capsys):
    code, out, err = run_cli(capsys, "verify", "--group", "A2",
                             "--nmax", nmax)
    assert code == 4
    assert out == "" and "--nmax" in err


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "I2:5", "G:3,3,3"])
def test_each_suite_alone_matches_all_suites(label):
    caps = (DEFAULT_ORDER_CAP, DEFAULT_ORBIT_CAP, DEFAULT_NMAX)
    spec = parse_spec(label)
    together = run_group(spec, list(SUITES), *caps).checks
    for suite in SUITES:
        alone = run_group(spec, [suite], *caps).checks
        assert alone and alone == [r for r in together if r.suite == suite]


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_report_does_not_depend_on_the_choice_of_c(spec, monkeypatch):
    """Every row is a count or a class invariant, so replacing c by a
    conjugate s c s^-1, for each generator s that moves it, gives the same
    (check_id, expected, computed) rows in the same order."""
    import ncpforge.cli as cli

    group = ReflectionGroup(spec)       # not the cached group: c changes
    monkeypatch.setattr(cli, "build_group", lambda *args, **kwargs: group)
    monkeypatch.setattr(cli, "build_ncp", NcpLattice)
    caps = (DEFAULT_ORDER_CAP, DEFAULT_ORBIT_CAP, DEFAULT_NMAX)

    def triples():
        return [(row.check_id, row.expected, row.computed)
                for row in run_group(spec, list(SUITES), *caps).checks]

    at_c, c = triples(), group.coxeter
    conjugates = [group.product(s, c, group.inv[s])
                  for s in group.generators]
    assert group.n == 1 or any(w != c for w in conjugates)
    for w in conjugates:
        if w != c:
            group.coxeter = w
            assert triples() == at_c


def test_exit_code_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "Z9")
    assert code == 4


def test_exit_code_resource_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "F4",
                           "--order-cap", "100")
    assert code == 3
    assert "resource cap" in err


def test_out_of_memory_is_a_resource_cap(capsys, monkeypatch):
    """A failed allocation ends the run with exit 3 and one stderr line,
    not a traceback."""
    import ncpforge.cli as cli

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli, "build_group", no_memory)
    code, out, err = run_cli(capsys, "verify", "--group", "A3")
    assert code == 3
    assert out == ""
    assert err == ("ncpforge: resource cap: out of memory: "
                   "Unable to allocate 1.00 TiB\n")


@pytest.mark.parametrize("argv", [
    ("verify", "--group", "A1000000000", "--order-cap", "10"),
    ("orbits", "--group", "B1000000000", "--shape", "1", "--order-cap", "10"),
], ids=["verify", "orbits"])
def test_huge_rank_hits_the_order_cap(capsys, no_huge_degrees, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "exceeds cap 10" in err


@pytest.mark.parametrize("cap,code", [("8", 0), ("7", 3)])
def test_order_cap_boundary(capsys, cap, code):
    # |B2| = 8: a cap of exactly |W| builds the group, one less refuses it
    assert run_cli(capsys, "verify", "--group", "B2", "--suite", "ncp",
                   "--order-cap", cap)[0] == code


def test_exit_code_check_failed(capsys, monkeypatch):
    import ncpforge.cli as cli

    def broken(ncp, strata):
        raise TableMismatch("forced mismatch for plumbing test")

    monkeypatch.setattr(cli, "table_a1_verify", broken)
    code, out, _ = run_cli(capsys, "verify", "--group", "A2",
                           "--suite", "table-a1")
    assert code == 2
    assert "FAIL" in out and "TableMismatch" in out


@pytest.fixture
def a2_lattice_miscounted(monkeypatch):
    """|NCP| of A2 (degrees 2, 3) is checked against one more than the
    Catalan number, so building that lattice raises CatalanMismatch; the
    lattice cached on the group is dropped for the test."""
    import ncpforge.ncp as ncp_module

    real = ncp_module.fuss_catalan
    monkeypatch.setattr(
        ncp_module, "fuss_catalan",
        lambda degrees, k=1: real(degrees, k) + (tuple(degrees) == (2, 3)))
    monkeypatch.delattr(build_group(parse_spec("A2")), "_ncp", raising=False)


def test_verify_lattice_theorem_error_is_a_failing_build_row(
        capsys, a2_lattice_miscounted):
    """A theorem error while a lattice is built fails that group's build
    row with exit 2, and the groups after it are still verified."""
    code, out, err = run_cli(capsys, "verify", "--group", "A2", "--group",
                             "A3", "--suite", "counts", "--format", "json")
    assert code == 2 and err == ""
    a2, a3 = json.loads(out)["groups"]
    assert [(row["suite"], row["check_id"], row["pass"])
            for row in a2["checks"]] == [("build", "group_build", False)]
    assert "CatalanMismatch" in a2["checks"][0]["computed"]
    assert a3["pass"] and a3["checks"]


def test_orbits_theorem_error_is_one_line_and_exit_2(
        capsys, a2_lattice_miscounted):
    code, out, err = run_cli(capsys, "orbits", "--group", "A2",
                             "--shape", "1,1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "CatalanMismatch" in err


def test_orbits_primitive_shape(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--group", "A3",
                           "--shape", "2,1")
    assert code == 0
    assert "orbits 2" in out


def test_orbits_red_shape_json(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--group", "A3",
                           "--shape", "1,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_count"] == 1
    assert payload["orbits"][0]["size"] == 16


def test_orbits_single_block(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--group", "A2", "--shape", "2")
    assert code == 0
    assert "orbits 1" in out and "size 1" in out


def test_orbits_bad_shape(capsys):
    code, _, err = run_cli(capsys, "orbits", "--group", "A2", "--shape", "3")
    assert code == 4
    code, _, err = run_cli(capsys, "orbits", "--group", "A2", "--shape", "x")
    assert code == 4


def test_argparse_errors_use_config_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "yaml", "--group", "A2"])
    assert exc.value.code == 4


ORBIT_GOLDENS = [("A3", "2,1"), ("B3", "2,1"), ("H3", "2,1"),
                 ("D4", "2,1,1"), ("F4", "2,2"), ("G:3,3,4", "3,1"),
                 ("B5", "2,1,1,1")]


def golden_case(group: str, shape: str) -> str:
    """'G:3,3,4', '3,1' -> 'G3-3-4_3-1', as in tests/data/orbits_*.json."""
    return (f"{group.replace(':', '').replace(',', '-')}_"
            f"{shape.replace(',', '-')}")


@pytest.mark.parametrize(
    "group,shape", ORBIT_GOLDENS,
    ids=[g if s == "2,1" else golden_case(g, s) for g, s in ORBIT_GOLDENS])
def test_orbits_json_matches_golden(tmp_path, group, shape):
    """Each orbit is described by class invariants of its factors and the
    orbits are sorted by (size, descriptor), so the output does not depend
    on how elements are numbered.  D4, F4, G(3,3,4) and B5 split into
    several orbits, some of the same size."""
    golden = (Path(__file__).parent / "data"
              / f"orbits_{golden_case(group, shape)}.json")
    target = tmp_path / "orbits.json"
    code = main(["orbits", "--group", group, "--shape", shape,
                 "--format", "json", "--output", str(target)])
    assert code == 0
    assert target.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("cap", ["1", "0", "-5"])
def test_verify_empty_selection_is_config_error(cap, capsys):
    """An order cap below |A1| = 2 selects no catalog group; that is a
    configuration error, not an empty ALL PASS report."""
    code, out, err = run_cli(capsys, "verify", "--order-cap", cap,
                             "--format", "json")
    assert code == 4
    assert out == "" and f"--order-cap {cap}" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", [["verify", "--group", "A1"],
                                     ["orbits", "--group", "A1",
                                      "--shape", "1"]],
                         ids=["verify", "orbits"])
def test_orbit_cap_below_one_is_config_error(command, cap, capsys,
                                             monkeypatch):
    """No orbit fits under a cap below 1, even a single tuple; that is a
    configuration error found before any group is built."""
    import ncpforge.cli as cli

    def no_build(*args, **kwargs):
        raise AssertionError("group built before --orbit-cap was checked")

    monkeypatch.setattr(cli, "build_group", no_build)
    code, out, err = run_cli(capsys, *command, "--orbit-cap", cap)
    assert code == 4
    assert out == "" and f"--orbit-cap must be at least 1, got {cap}" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", [["verify", "--group", "A3"],
                                     ["orbits", "--group", "A3",
                                      "--shape", "2,1"]],
                         ids=["verify", "orbits"])
def test_order_cap_below_one_is_config_error(command, cap, capsys,
                                             monkeypatch):
    """No group fits under an order cap below 1, with --group as without
    it; that is a configuration error found before any group is built,
    not a resource cap."""
    import ncpforge.cli as cli

    def no_build(*args, **kwargs):
        raise AssertionError("group built before --order-cap was checked")

    monkeypatch.setattr(cli, "build_group", no_build)
    code, out, err = run_cli(capsys, *command, "--order-cap", cap)
    assert code == 4
    assert out == "" and f"--order-cap {cap}" in err


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """The benchmark's tracer (perfbench/tracing.py) patches ncpforge names
    by hand; each must still exist, and uninstall restores them."""
    import ncpforge.cli as cli
    from ncpforge import factorizations
    from ncpforge.group import ReflectionGroup

    monkeypatch.syspath_prepend(
        str(Path(__file__).parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")

    def patched():
        return (cli.main, factorizations.iter_factorisations,
                vars(ReflectionGroup)["__init__"])

    originals = patched()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(now is not orig
                   for now, orig in zip(patched(), originals))
    finally:
        tracer.uninstall()
    assert all(now is orig for now, orig in zip(patched(), originals))


def test_verify_does_not_import_numpy_ma():
    """numpy.ma costs every process about 0.7 MiB and 11 ms; the plain
    `np.unique` and `np.union1d` import it on first use."""
    src = os.path.dirname(os.path.dirname(ncpforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys\n"
              "from ncpforge.cli import main\n"
              "code = main(['verify', '--group', 'B5'])\n"
              "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr.strip() == "False"


# group specs: well-formed ones with any parameters, the grammar's pieces
# in any order, labels of groups outside the catalog, and free text
_LABELS = sorted({s.label for s in catalog_specs()}
                 | {"H4", "E6", "E7", "E8", "G24", "G25", "G26", "G27",
                    "G29", "G32", "G33", "G34"})
_SPECS = st.one_of(
    st.sampled_from(_LABELS),
    st.builds("{}{}".format, st.sampled_from("ABD"),
              st.integers(-2, 10 ** 9)),
    st.builds("I2:{}".format, st.integers(-2, 10 ** 6)),
    st.builds("G:{},{},{}".format, st.integers(-1, 8), st.integers(-1, 8),
              st.integers(-1, 10 ** 9)),
    st.lists(st.sampled_from(["A", "B", "D", "E", "F", "G", "H", "I2", ":",
                              ",", " ", "-", "0", "1", "3", "4", "34",
                              "1000000000"]), max_size=6).map("".join),
    st.text(max_size=10),
)
_SHAPES = st.one_of(
    st.lists(st.integers(-2, 8), max_size=6).map(
        lambda parts: ",".join(map(str, parts))),
    st.text(max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["verify", "orbits"]),
       groups=st.lists(_SPECS, max_size=2), shape=_SHAPES,
       order_cap=st.integers(-3, 500), orbit_cap=st.integers(-2, 10 ** 6),
       nmax=st.integers(-2, 12))
def test_every_input_ends_in_a_documented_exit_code(
        command, groups, shape, order_cap, orbit_cap, nmax):
    """Whatever the specs, shape and caps, the CLI exits 0, 2, 3 or 4
    (argparse errors included), never with a traceback."""
    argv = [command, "--order-cap", str(order_cap),
            "--orbit-cap", str(orbit_cap)]
    for group in groups if command == "verify" else groups[:1]:
        argv += ["--group", group]
    argv += ["--nmax", str(nmax)] if command == "verify" else [
        "--shape", shape]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
