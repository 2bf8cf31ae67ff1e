"""Benchmark of ncpforge: end-to-end timing of three workloads, with output
checks, and an optional traced run for per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; ncpforge is imported from
`src/`.  The workloads (see README.md) are fixed group specs, so the seed is
recorded but changes nothing.  Each workload runs single-threaded in child
processes, one at a time; all timing is taken by the benchmark around
ncpforge's public entry points.

With `--trace 0` the run repeats whole rounds of its workload until
`--seconds` have passed and reports the medians of the end-to-end metrics
named in BENCHMARK.json.  With `--trace 1` it runs one untraced and one
traced round and reports the per-layer metrics; the span and counter records
go to `perfbench/out/trace-<workload>.jsonl`.

The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from checks import CATALOG, check_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")

# Fresh processes timed for the cold set-up cost (interpreter + import).
IMPORT_SAMPLES = 9
# Least number of timed passes in the warm process, for a median.
MIN_WARM_PASSES = 3

COLD = {
    "catalog-cold": (["verify", "--format", "json"], CATALOG),
    "large-group": (["verify", "--group", "B5", "--format", "json"], ["B5"]),
}
WORKLOADS = (*COLD, "suites-warm")


class Run:
    """What a benchmark run has seen so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, report: dict | None, labels: list[str],
              exit_code: int | None) -> None:
        self.attempted += len(labels)
        if report is None:
            self.failed += len(labels)
            self.problems.append(f"no report (exit code {exit_code})")
            return
        failed, problems = check_report(report, labels, exit_code)
        self.failed += failed
        self.problems.extend(problems)


def spawn(args: list[str]) -> tuple[float, float, float, int]:
    """Run the worker once; returns wall seconds, peak RSS in MB, CPU
    seconds and exit code, all of that one child."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdin=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss * 1024 / 1e6
    return wall, rss_mb, usage.ru_utime + usage.ru_stime, proc.returncode


def load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def fresh(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


def cold_round(run: Run, workload: str, trace: str | None = None) -> dict:
    cli_args, labels = COLD[workload]
    report = fresh(os.path.join(OUT, f"report-{workload}.json"))
    result = fresh(os.path.join(OUT, f"result-{workload}.json"))
    extra = ["--trace", fresh(trace)] if trace else []
    wall, rss, cpu, code = spawn(["verify", "--result", result, *extra, "--",
                                  *cli_args, "--output", report])
    run.check(load(report), labels, code)
    return {"wall_s": wall, "peak_rss_mb": rss, "cpu_s": cpu,
            **(load(result) or {})}


def warm_round(run: Run, passes: int, seconds: float,
               trace: str | None = None) -> dict:
    result = fresh(os.path.join(OUT, "result-suites-warm.json"))
    extra = ["--trace", fresh(trace)] if trace else []
    _, rss, cpu, code = spawn(["warm", "--passes", str(passes), "--seconds",
                               str(seconds), "--result", result, *extra])
    out = load(result)
    if code != 0 or out is None:
        run.problems.append(f"warm worker exited with code {code}")
        out = {"pass_s": [], "attempted": len(CATALOG),
               "failed": len(CATALOG), "problems": []}
    run.attempted += out.pop("attempted")
    run.failed += out.pop("failed")
    run.problems += out.pop("problems")
    return {"peak_rss_mb": rss, "cpu_s": cpu, **out}


def timed(run: Run, workload: str, seconds: float) -> dict[str, float]:
    """Whole rounds while the next one is expected to end within
    `seconds`; medians over them."""
    if workload in COLD:
        spawn(["import"])  # compile the bytecode caches first
        setups = [spawn(["import"])[0] for _ in range(IMPORT_SAMPLES)]
        rounds, walls = [], []
        start = time.perf_counter()
        while (not walls or time.perf_counter() - start + max(walls)
               <= seconds):
            rounds.append(cold_round(run, workload))
            walls.append(rounds[-1]["wall_s"])
    else:
        rounds = [warm_round(run, MIN_WARM_PASSES, seconds)]
        walls = rounds[0]["pass_s"]
        setups = [rounds[0]["setup_s"]] if walls else []
    if not walls or not setups:
        return {}
    return {"wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in rounds),
            "setup_s": statistics.median(setups),
            "wall_samples": walls, "setup_samples": setups}


def traced(run: Run, workload: str) -> dict[str, float]:
    """One untraced and one traced round; per-layer figures from the
    trace, suite times from one-suite calls, overhead from the pair."""
    trace = os.path.join(OUT, f"trace-{workload}.jsonl")
    if workload in COLD:
        rounds = [cold_round(run, workload), cold_round(run, workload, trace)]
        walls = [r.get("main_s") for r in rounds]
    else:
        rounds = [warm_round(run, 1, 0), warm_round(run, 1, 0, trace)]
        walls = [(r["pass_s"] or [None])[0] for r in rounds]
    plain, traced_ = rounds
    try:
        with open(trace, encoding="utf-8") as fh:
            metrics = json.loads(fh.readlines()[-1])
    except (OSError, ValueError, IndexError):
        metrics = None
    if metrics is None or None in walls or "probe_s" not in traced_:
        run.problems.append("the traced run did not finish")
        return {}
    del metrics["type"]
    for suite, seconds in traced_["probe_s"].items():
        metrics[f"cli.suite.{suite}_s"] = seconds
    metrics["trace.untraced_wall_s"], metrics["trace.wall_s"] = walls
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    metrics["trace.overhead_pct"] = 100 * (walls[1] - walls[0]) / walls[0]
    metrics["process.cpu_s"] = plain["cpu_s"]
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "summary", "workload": workload,
                             **metrics}) + "\n")
    return metrics


def reference_s() -> float:
    """A fixed stdlib-only Fraction loop, to tell machine speed drift apart
    from a change in the program."""
    def once():
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 10001):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            acc = (acc * Fraction(i % 3 + 1, i % 3 + 2)).limit_denominator(
                10 ** 6)
        return time.perf_counter() - start
    return statistics.median(once() for _ in range(3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ncpforge", "cli.py")):
        print(f"run.py: no ncpforge source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    ref_s = reference_s()
    run = Run()
    if args.trace:
        metrics = traced(run, args.workload)
        wanted = spec["per_layer"]
        # a counter or span that never fired reads 0
        metrics = {m["name"]: 0 for m in wanted} | metrics
        metrics["machine.ref_s"] = ref_s
    else:
        metrics = timed(run, args.workload, args.seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    for problem in run.problems:
        print("check failed:", problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine.ref_s": ref_s, "all_metrics": metrics}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
