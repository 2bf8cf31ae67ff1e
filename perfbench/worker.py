"""Child process of the benchmark: runs one workload round through
ncpforge's public entry points and writes its own timings to a JSON file.

    python3 perfbench/worker.py import
    python3 perfbench/worker.py verify --result R [--trace T] -- <cli args>
    python3 perfbench/worker.py warm --passes P [--seconds S] --result R
                                [--trace T]

`import` only loads the package (the cold set-up cost).  `verify` calls
`ncpforge.cli.main` with the given arguments and exits with its code.
`warm` builds every catalog group and lattice, then times at least P passes
of `cli.run_group` over the catalog with all suites, and more while they fit
in S seconds from the start of set-up; it checks each pass's report.  With `--trace`, the
tracer is installed first, and afterwards each suite is timed on its own
by a one-suite `run_group` call per group, with the tracer removed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def probe_suites(specs) -> dict[str, float]:
    """Seconds of a one-suite `run_group` call per suite, summed over the
    (already built) groups."""
    from ncpforge import cli

    out = {}
    for suite in cli.SUITES:
        start = time.perf_counter()
        for spec in specs:
            cli.run_group(spec, [suite], cli.DEFAULT_ORDER_CAP,
                          cli.DEFAULT_ORBIT_CAP, cli.DEFAULT_NMAX)
        out[suite] = time.perf_counter() - start
    return out


def cmd_verify(args, tracer) -> tuple[int, dict]:
    from ncpforge import cli
    from ncpforge.catalog import catalog_specs, order_of, parse_spec

    start = time.perf_counter()
    code = cli.main(args.cli_args)
    result = {"exit": code, "main_s": time.perf_counter() - start}
    if tracer is not None:
        tracer.uninstall()
        groups = [a for i, a in enumerate(args.cli_args)
                  if i and args.cli_args[i - 1] == "--group"]
        specs = ([parse_spec(g) for g in groups] if groups else
                 [s for s in catalog_specs()
                  if order_of(s) <= cli.DEFAULT_ORDER_CAP])
        result["probe_s"] = probe_suites(specs)
    return code, result


def cmd_warm(args, tracer) -> tuple[int, dict]:
    from ncpforge import cli
    from ncpforge.catalog import catalog_specs
    from ncpforge.report import Report, render_json

    from checks import CATALOG, check_report

    specs = catalog_specs()
    caps = (cli.DEFAULT_ORDER_CAP, cli.DEFAULT_ORBIT_CAP, cli.DEFAULT_NMAX)
    start = time.perf_counter()
    for spec in specs:
        # the same call form as the timed passes, so they hit the caches
        cli.run_group(spec, [], *caps)
    result = {"setup_s": time.perf_counter() - start, "pass_s": [],
              "attempted": 0, "failed": 0, "problems": []}
    passes = result["pass_s"]
    while (len(passes) < args.passes or time.perf_counter() - start
           + max(passes) <= args.seconds):
        pass_start = time.perf_counter()
        sections = [cli.run_group(spec, list(cli.SUITES), *caps)
                    for spec in specs]
        passes.append(time.perf_counter() - pass_start)
        # checked here, one pass at a time, so memory does not grow with
        # the number of passes
        failed, problems = check_report(
            json.loads(render_json(Report(sections))), CATALOG, None)
        result["attempted"] += len(specs)
        result["failed"] += failed
        result["problems"] += problems
    if tracer is not None:
        tracer.uninstall()
        result["probe_s"] = probe_suites(specs)
    return 0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("import")
    p_verify = sub.add_parser("verify")
    p_warm = sub.add_parser("warm")
    p_warm.add_argument("--passes", type=int, required=True,
                        help="least number of timed passes")
    p_warm.add_argument("--seconds", type=float, default=0,
                        help="start further passes while set-up and passes "
                             "stay within this time")
    for p in (p_verify, p_warm):
        p.add_argument("--result", required=True)
        p.add_argument("--trace", default=None)
    p_verify.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "import":
        import ncpforge.cli  # noqa: F401
        return 0
    if args.mode == "verify" and args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    run = cmd_verify if args.mode == "verify" else cmd_warm
    code, result = run(args, tracer)
    if tracer is not None:
        tracer.write(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
