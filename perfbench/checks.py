"""Output checks for the benchmark, independent of ncpforge's own formulas.

Every group section of a verification report must hold the full set of
check rows its rank implies, every row must pass, and the headline values
must agree with numbers computed here from a table of invariant degrees:

    |W| = prod d_i                    |NCP| = prod (d_i + h) / d_i
    reflections = sum (d_i - 1)       |Red(c)| = n! h^n / |W|
    multichain_N = prod (d_i + N h) / d_i

No stored copy of a report is used as a reference.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, prod

# Multichain lengths checked by the Chapoton suite at ncpforge's default.
NMAX = 6

# The default catalog, in the order `ncpforge verify` runs it.
CATALOG = (["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4"]
           + [f"I2({e})" for e in range(3, 13)]
           + ["G(3,3,3)", "G(4,4,3)", "G(3,3,4)", "H3", "F4"])


def degrees(label: str) -> list[int]:
    """Invariant degrees of a group, from its label alone."""
    m = re.fullmatch(r"([ABD])(\d+)", label)
    if m:
        family, n = m.group(1), int(m.group(2))
        if family == "A":
            return list(range(2, n + 2))
        if family == "B":
            return [2 * i for i in range(1, n + 1)]
        return sorted([2 * i for i in range(1, n)] + [n])
    m = re.fullmatch(r"I2\((\d+)\)", label)
    if m:
        return sorted([2, int(m.group(1))])
    m = re.fullmatch(r"G\((\d+),(\d+),(\d+)\)", label)
    if m and m.group(1) == m.group(2):
        e, n = int(m.group(1)), int(m.group(3))
        return sorted([e * i for i in range(1, n)] + [n])
    table = {"H3": [2, 6, 10], "F4": [2, 6, 8, 12]}
    if label in table:
        return table[label]
    raise ValueError(f"no degree table entry for {label!r}")


def fuss_catalan(degs: list[int], k: int) -> int:
    h = max(degs)
    value = prod(Fraction(d + k * h, d) for d in degs)
    if value.denominator != 1:
        raise ValueError(f"non-integral Fuss-Catalan number for {degs}")
    return value.numerator


def expected_check_ids(n: int) -> dict[str, list[str]]:
    """The check rows each suite must produce for a group of rank n."""
    return {
        "ncp": ["catalan", "length_is_codim", "meet_join_missing"],
        "counts": (["red"] + [f"fact_{p}" for p in range(1, n + 1)]
                   + ["submax_total"]),
        "chapoton": [f"{kind}_N{k}" for k in range(1, NMAX + 1)
                     for kind in ("identity", "multichain")],
        "hurwitz": (["red_orbits", "red_orbit_size"]
                    + [f"primitive_k{k}_{kind}" for k in range(2, n + 1)
                       for kind in ("orbits", "total")]
                    + ["strong_conjugacy_is_conjugacy"]),
        "strata": ["num_strata", "submax_total", "r_is_order",
                   "r_degree_shortcut"],
        "table-a1": (["ll_data", "degree_sum"]
                     + (["fiber_identity"] if n >= 2 else [])),
    }


def check_section(sec: dict) -> list[str]:
    """Problems with one passing group section of a JSON report (empty
    when it is complete and agrees with the degree table)."""
    label = sec["group"]
    degs = degrees(label)
    n, h = len(degs), max(degs)
    order = prod(degs)
    red = Fraction(factorial(n) * h ** n, order)
    problems = []

    def expect(what, wanted, got):
        if wanted != got:
            problems.append(f"{label}: {what} is {got!r}, expected {wanted!r}")

    expect("degrees", degs, sec["degrees"])
    expect("|W|", order, sec["order"])
    expect("h", h, sec["coxeter_number"])
    expect("reflection count", sum(d - 1 for d in degs),
           sec["num_reflections"])
    expect("|NCP|", fuss_catalan(degs, 1), sec["ncp_size"])

    rows: dict[str, list[dict]] = {}
    for row in sec["checks"]:
        rows.setdefault(row["suite"], []).append(row)
        if not (row["pass"] and row["expected"] == row["computed"]):
            problems.append(f"{label}: {row['suite']}/{row['check_id']} "
                            f"does not pass")
    for suite, ids in expected_check_ids(n).items():
        expect(f"{suite} check rows", ids,
               [row["check_id"] for row in rows.pop(suite, [])])
    if rows:
        problems.append(f"{label}: unexpected suites {sorted(rows)}")

    computed = {(row["suite"], row["check_id"]): row["computed"]
                for row in sec["checks"]}
    expect("ncp/catalan", fuss_catalan(degs, 1), computed.get(("ncp",
                                                                "catalan")))
    expect("counts/red", red, computed.get(("counts", "red")))
    expect("hurwitz/red_orbit_size", red,
           computed.get(("hurwitz", "red_orbit_size")))
    for k in range(1, NMAX + 1):
        expect(f"chapoton/multichain_N{k}", fuss_catalan(degs, k),
               computed.get(("chapoton", f"multichain_N{k}")))
    return problems


def check_report(report: dict, labels: list[str], exit_code: int | None
                 ) -> tuple[int, list[str]]:
    """Check a JSON verification report of the groups `labels`.

    Returns (failed groups, problems).  A group whose section does not pass
    counts as failed; every other group must pass `check_section`.  An exit
    code, if given, must be 0 exactly when no group failed, and 2 otherwise.
    """
    problems = []
    got = [sec["group"] for sec in report["groups"]]
    if got != labels:
        problems.append(f"report covers {got}, expected {labels}")
    failed = sum(1 for sec in report["groups"] if not sec["pass"])
    for sec in report["groups"]:
        if sec["pass"]:
            problems.extend(check_section(sec))
    if report["all_pass"] != (failed == 0):
        problems.append("all_pass flag disagrees with the sections")
    if exit_code is not None and exit_code != (0 if failed == 0 else 2):
        problems.append(f"exit code {exit_code} with {failed} failed groups")
    return failed, problems
