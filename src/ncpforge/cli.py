"""Command-line front end: catalog listing, verification suites, orbit dumps.

Exit codes: 0 all selected checks pass, 2 at least one check failed,
3 a resource cap was hit or memory ran out, 4 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from functools import cached_property

import numpy as np

from .catalog import catalog_specs, degrees_of, order_of, parse_spec
from .errors import (
    ConfigError,
    NcpForgeError,
    OrbitCapExceeded,
    OrderCapExceeded,
)
from .factorizations import (
    chapoton_identity,
    fact_counts,
    factorisations,
    red_count_formula,
)
from .group import DEFAULT_ORDER_CAP, build_group
from .hurwitz import (
    DEFAULT_ORBIT_CAP,
    classify_primitive_orbits,
    conjugacy_partition_on_ncp,
    orbit_decomposition,
    strong_conjugacy_classes,
)
from .ncp import build_ncp, fuss_catalan
from .parabolic import (
    length2_strata,
    reference_row,
    submax_counts,
    submax_total_formula,
    table_a1_verify,
)
from .report import RENDERERS, SCHEMA_VERSION, CheckRow, GroupSection, Report

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CAP = 3
EXIT_CONFIG = 4

SUITES = ("ncp", "counts", "chapoton", "hurwitz", "strata", "table-a1")
DEFAULT_NMAX = 6


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (4 = config error)."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# -- verification suites -----------------------------------------------------
# Each `_suite_<name>` returns its checks as (check_id, expected, computed)
# triples, in report order; `run_group` adds the group label and suite name
# to every row.  It looks the function up by name when the suite runs, so a
# wrapper set on the module attribute (perfbench's tracer) is the one called.

class GroupContext:
    """The artefacts of one group that several suites read, each computed
    at most once, and the caps `nmax` and `orbit_cap` that `run_group`
    sets.  A context lives for one `run_group` call, so nothing is cached
    across calls."""

    def __init__(self, group, ncp):
        self.group = group
        self.ncp = ncp

    @cached_property
    def by_blocks(self) -> dict[int, np.ndarray]:
        """The block factorisations of c, one array per block count."""
        return factorisations(self.ncp)

    @cached_property
    def ledger(self):
        return fact_counts(self.group, self.by_blocks)

    @property
    def red(self) -> np.ndarray:
        return self.by_blocks[self.group.n]

    def with_shape(self, shape: tuple[int, ...]) -> np.ndarray:
        """Factorisations whose block lengths, sorted in descending order,
        equal the partition `shape` of n.  Counted, not sorted: a first
        `np.sort` pages in about 0.2 MB of sort kernels."""
        rows = self.by_blocks[len(shape)]
        lengths = self.group.length[rows]
        return rows[np.all([(lengths == part).sum(axis=1) == shape.count(part)
                            for part in set(shape)], axis=0)]

    def primitive(self, k: int) -> np.ndarray:
        """Factorisations of shape k 1^(n-k), the length-k block anywhere."""
        return self.with_shape((k,) + (1,) * (self.group.n - k))

    @cached_property
    def strata(self):
        """Length-2 strata with their submaximal counts and degrees u."""
        strata = length2_strata(self.ncp)
        submax_counts(self.ncp, strata, self.by_blocks[self.group.n - 1])
        return strata


def _suite_ncp(ctx):
    group, ncp = ctx.group, ctx.ncp
    codim = group.n - group.fixed_dim[ncp.members]
    return [("catalan", fuss_catalan(group.degrees, 1), ncp.size),
            ("length_is_codim", 0, int(np.sum(ncp.rank != codim))),
            ("meet_join_missing", 0, ncp.missing_meets_joins())]


def _suite_counts(ctx):
    group, ledger, n = ctx.group, ctx.ledger, ctx.group.n
    return ([("red", red_count_formula(group), ledger.fact_enumerated[n])]
            + [(f"fact_{p}", ledger.fact_zeta[p], ledger.fact_enumerated[p])
               for p in range(1, n + 1)]
            + [("submax_total", submax_total_formula(group),
                ledger.fact_enumerated.get(n - 1, 0))])


def _suite_chapoton(ctx):
    rows = []
    multichains = ctx.ncp.multichain_counts(ctx.nmax)
    for chain_length, chains in enumerate(multichains, 1):
        res = chapoton_identity(ctx.group, ctx.ledger, chain_length)
        rows += [(f"identity_N{chain_length}", res["rhs"], res["lhs"]),
                 (f"multichain_N{chain_length}", res["rhs"], chains)]
    return rows


def _suite_hurwitz(ctx):
    group, ncp = ctx.group, ctx.ncp
    orbits = orbit_decomposition(ncp, ctx.red, cap=ctx.orbit_cap)
    rows = [("red_orbits", 1, len(orbits)),
            ("red_orbit_size", red_count_formula(group), orbits[0].size)]
    for k in range(2, group.n + 1):
        res = classify_primitive_orbits(ncp, k, ctx.primitive(k),
                                        cap=ctx.orbit_cap)
        rows += [(f"primitive_k{k}_orbits", len(res["divisor_classes"]),
                  len(res["orbits"])),
                 (f"primitive_k{k}_total",
                  sum(o.size for o in res["orbits"]), res["total"])]
    strong = strong_conjugacy_classes(ncp)
    return rows + [("strong_conjugacy_is_conjugacy", True,
                    strong == conjugacy_partition_on_ncp(ncp))]


def _suite_strata(ctx):
    group, strata = ctx.group, ctx.strata
    return [("num_strata", len(reference_row(group.spec)), len(strata)),
            ("submax_total", submax_total_formula(group),
             sum(s.count for s in strata)),
            ("r_is_order", sorted(s.order for s in strata),
             sorted(s.r for s in strata)),
            ("r_degree_shortcut", sorted(s.r for s in strata),
             sorted(s.r_from_degrees for s in strata))]


def _suite_table_a1(ctx):
    n, h = ctx.group.n, ctx.group.h
    rep = table_a1_verify(ctx.ncp, ctx.strata)
    rows = [("ll_data", rep["expected"], rep["computed"]),
            ("degree_sum", n * (n - 1) * h, rep["degree_sum"])]
    if n >= 2:
        # the fiber identity comes from concatenating a length-2 first
        # factor, which only exists in rank >= 2
        rows.append(("fiber_identity", rep["red_count"], rep["fiber_total"]))
    return rows


def run_group(spec, suites, order_cap, orbit_cap, nmax) -> GroupSection:
    label = spec.label
    try:
        group = build_group(spec, order_cap=order_cap)
        ncp = build_ncp(group)
    except (OrderCapExceeded, OrbitCapExceeded):
        raise
    except NcpForgeError as exc:
        return GroupSection(
            label=label, order=order_of(spec), degrees=list(degrees_of(spec)),
            h=degrees_of(spec)[-1], num_reflections=0,
            checks=[CheckRow(label, "build", "group_build", "ok",
                             f"{type(exc).__name__}: {exc}")])
    section = GroupSection(
        label=label, order=group.size, degrees=list(group.degrees),
        h=group.h, num_reflections=len(group.reflections),
        ncp_size=ncp.size)
    ctx = GroupContext(group, ncp)
    ctx.nmax, ctx.orbit_cap = nmax, orbit_cap
    for suite in suites:
        run_suite = globals()["_suite_" + suite.replace("-", "_")]
        try:
            rows = run_suite(ctx)
        except (OrderCapExceeded, OrbitCapExceeded):
            raise
        except NcpForgeError as exc:
            rows = [(type(exc).__name__, "ok", str(exc))]
        section.checks += [CheckRow(label, suite, *row) for row in rows]
    return section


# -- commands -----------------------------------------------------------------

def _open_output(path: str | None):
    """The --output file, opened before any work so that a path that cannot
    be written fails first.  Append mode leaves an existing file as it is
    until the output is written."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _emit(text: str, out) -> None:
    """Write the whole output to the opened --output file (replacing what
    a regular file held), or to stdout when there is none.  A device such
    as /dev/null cannot be truncated, so it is only written to."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(0)
        out.write(text)
        out.flush()
    except OSError as exc:
        raise ConfigError(
            f"cannot write {out.name}: {exc.strerror}") from None


def cmd_catalog(args, out) -> int:
    entries = []
    for spec in catalog_specs():
        order = order_of(spec)
        if args.max_order is not None and order > args.max_order:
            continue
        entries.append({"group": spec.label, "order": order,
                        "degrees": list(degrees_of(spec)),
                        "coxeter_number": degrees_of(spec)[-1]})
    if not entries:
        raise ConfigError(
            f"--max-order {args.max_order} selects no catalog group")
    if args.format == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION,
                           "catalog": entries}, indent=2) + "\n"
    else:
        lines = [f"{e['group']:10s} |W|={e['order']:<7d} "
                 f"degrees={e['degrees']}" for e in entries]
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    return EXIT_OK


def _check_caps(args) -> None:
    """No group fits under an order cap below 1, and no orbit under an
    orbit cap below 1; both are found before any group is built."""
    if args.order_cap < 1:
        raise ConfigError(f"--order-cap {args.order_cap} is below 1")
    if args.orbit_cap < 1:
        raise ConfigError(
            f"--orbit-cap must be at least 1, got {args.orbit_cap}")


def cmd_verify(args, out) -> int:
    if args.nmax < 1:
        raise ConfigError(f"--nmax must be at least 1, got {args.nmax}")
    _check_caps(args)
    if args.group:
        specs = [parse_spec(g) for g in args.group]
    else:
        specs = [s for s in catalog_specs() if order_of(s) <= args.order_cap]
        if not specs:
            raise ConfigError(
                f"--order-cap {args.order_cap} selects no catalog group")
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    report = Report([run_group(spec, suites, args.order_cap, args.orbit_cap,
                               args.nmax) for spec in specs])
    _emit(RENDERERS[args.format](report), out)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _orbit_descriptor(group, orbit) -> list[list[int]]:
    """The least, over the orbit's tuples, of the per-factor
    [order, reflection length, class size]: invariants of the factors'
    conjugacy classes, so the descriptor does not depend on how elements
    are numbered."""
    of_class: dict[int, list[int]] = {}
    class_size = np.bincount(group.class_id)

    def describe(w: int) -> list[int]:
        cid = int(group.class_id[w])
        if cid not in of_class:
            of_class[cid] = [group.element_order(w), int(group.length[w]),
                             int(class_size[cid])]
        return of_class[cid]

    return min([describe(w) for w in t] for t in orbit.members)


def cmd_orbits(args, out) -> int:
    _check_caps(args)
    spec = parse_spec(args.group)
    try:
        shape = tuple(sorted((int(p) for p in args.shape.split(",")),
                             reverse=True))
    except ValueError:
        raise ConfigError(f"bad shape {args.shape!r}") from None
    group = build_group(spec, order_cap=args.order_cap)
    if any(p < 1 for p in shape) or sum(shape) != group.n:
        raise ConfigError(
            f"shape {list(shape)} is not a partition of n = {group.n}")
    ncp = build_ncp(group)
    tuples = GroupContext(group, ncp).with_shape(shape)
    orbits = orbit_decomposition(ncp, tuples, cap=args.orbit_cap)
    described = sorted((o.size, _orbit_descriptor(group, o)) for o in orbits)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "group": spec.label,
        "shape": list(shape),
        "total": len(tuples),
        "orbit_count": len(orbits),
        "orbits": [{"size": size, "factor_classes": descriptor}
                   for size, descriptor in described],
    }
    if args.format == "json":
        text = json.dumps(summary, indent=2, default=list) + "\n"
    else:
        lines = [f"group {spec.label}  shape {list(shape)}  "
                 f"tuples {len(tuples)}  orbits {len(orbits)}"]
        lines += [f"  orbit {i}: size {size}"
                  for i, (size, _) in enumerate(described)]
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ncpforge",
                     description="Exact verification toolkit for "
                                 "noncrossing-partition combinatorics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list supported groups")
    p_cat.add_argument("--max-order", type=int, default=None)
    p_cat.add_argument("--format", choices=("text", "json"), default="text")
    p_cat.add_argument("--output", default=None)
    p_cat.set_defaults(func=cmd_catalog)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--group", action="append", default=None,
                       help="group spec (repeatable); default: whole catalog")
    p_ver.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_ver.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
    p_ver.add_argument("--output", default=None)
    p_ver.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    p_ver.add_argument("--orbit-cap", type=int, default=DEFAULT_ORBIT_CAP)
    p_ver.add_argument("--nmax", type=int, default=DEFAULT_NMAX,
                       help="largest multichain length for the Chapoton suite")
    p_ver.set_defaults(func=cmd_verify)

    p_orb = sub.add_parser("orbits", help="Hurwitz orbit decomposition")
    p_orb.add_argument("--group", required=True)
    p_orb.add_argument("--shape", required=True,
                       help="comma-separated partition of n, e.g. 2,1,1")
    p_orb.add_argument("--format", choices=("text", "json"), default="text")
    p_orb.add_argument("--output", default=None)
    p_orb.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    p_orb.add_argument("--orbit-cap", type=int, default=DEFAULT_ORBIT_CAP)
    p_orb.set_defaults(func=cmd_orbits)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_output(args.output) as out:
            return args.func(args, out)
    except (OrderCapExceeded, OrbitCapExceeded) as exc:
        print(f"ncpforge: resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"ncpforge: resource cap: out of memory: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConfigError as exc:
        print(f"ncpforge: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NcpForgeError as exc:
        print(f"ncpforge: check failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
