"""Acceptance gate: the ten headline checks, exact integer equality.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts the corresponding exact identity.
"""

from ncpforge.catalog import GroupSpec
from ncpforge.cli import GroupContext, main as cli_main
from ncpforge.factorizations import (
    chapoton_identity,
    fact_count_stirling,
    fact_counts_zeta,
    fact_counts,
    factorisations,
    iter_fact_with_composition,
    red_count_formula,
)
from ncpforge.group import build_group
from ncpforge.hurwitz import (
    classify_primitive_orbits,
    conjugacy_partition_on_ncp,
    hurwitz_act,
    hurwitz_orbit,
    p2_orbit_formula,
    strong_conjugacy_classes,
)
from ncpforge.ncp import build_ncp, fuss_catalan
from ncpforge.parabolic import (
    length2_strata,
    reference_row,
    submax_counts,
    submax_total_formula,
    table_a1_verify,
)
from conftest import element_of_permutation, fixed_spaces_meet_in

MAIN_LIST = (
    [GroupSpec("A", n) for n in range(1, 6)]
    + [GroupSpec("B", n) for n in range(2, 5)]
    + [GroupSpec("D", 4)]
    + [GroupSpec("I2", 2, e) for e in range(3, 13)]
    + [GroupSpec("G", 3, 3), GroupSpec("G", 3, 4), GroupSpec("G", 4, 3)]
    + [GroupSpec("H3", 3), GroupSpec("F4", 4)]
)

HURWITZ_LIST = (
    [GroupSpec("A", 3), GroupSpec("A", 4), GroupSpec("B", 3),
     GroupSpec("D", 4)]
    + [GroupSpec("I2", 2, e) for e in range(3, 9)]
    + [GroupSpec("G", 3, 3), GroupSpec("H3", 3)]
)

STRONG_CONJ_LIST = (
    [GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("D", 4),
     GroupSpec("G", 3, 3)]
    + [GroupSpec("I2", 2, e) for e in range(3, 9)]
    + [GroupSpec("H3", 3)]
)

TABLE_LIST = (
    [GroupSpec("A", n) for n in range(2, 5)]
    + [GroupSpec("B", n) for n in range(2, 5)]
    + [GroupSpec("D", 4)]
    + [GroupSpec("I2", 2, e) for e in range(3, 11)]
    + [GroupSpec("G", 3, 3), GroupSpec("G", 3, 4), GroupSpec("G", 4, 3)]
    + [GroupSpec("H3", 3), GroupSpec("F4", 4)]
)


def _line(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, desc


def _ledger(spec):
    group = build_group(spec)
    ncp = build_ncp(group)
    return group, ncp, fact_counts(group, factorisations(ncp))


def test_criterion_01_catalan_counts():
    ok = True
    for spec in MAIN_LIST:
        group = build_group(spec)
        ncp = build_ncp(group)
        ok &= ncp.size == fuss_catalan(group.degrees, 1)
    spot = (build_ncp(build_group(GroupSpec("A", 3))).size == 14
            and build_ncp(build_group(GroupSpec("B", 2))).size == 6
            and build_ncp(build_group(GroupSpec("H3", 3))).size == 32)
    _line(1, ok and spot,
          "|NCP| = prod (d_i + h)/d_i on the full catalog list")


def test_criterion_02_red_counts():
    ok = True
    for spec in MAIN_LIST:
        group = build_group(spec)
        ncp = build_ncp(group)
        enumerated = sum(
            1 for _ in iter_fact_with_composition(ncp, (1,) * group.n))
        ok &= enumerated == red_count_formula(group)
    spots = {
        "A3": 16, "D4": 162, "F4": 432, "H3": 50,
    }
    for label, value in spots.items():
        spec = next(s for s in MAIN_LIST if s.label == label)
        ok &= red_count_formula(build_group(spec)) == value
    _line(2, ok, "enumerated |Red(c)| = n! h^n / |W| on the full list")


def test_criterion_03_chapoton_identity():
    ok = True
    for spec in MAIN_LIST:
        group, ncp, ledger = _ledger(spec)
        for chain_length in range(1, 5):
            res = chapoton_identity(group, ledger, chain_length)
            ok &= res["pass"]
    group_a2, _, ledger_a2 = _ledger(GroupSpec("A", 2))
    a2 = chapoton_identity(group_a2, ledger_a2, 2)
    ok &= a2["lhs"] == a2["rhs"] == 12
    _line(3, ok, "Chapoton identity for N = 1..4 on the full list")


def test_criterion_04_ledger_triple_agreement():
    ok = True
    for spec in MAIN_LIST:
        group, ncp, ledger = _ledger(spec)
        zeta = fact_counts_zeta(group.degrees, group.n)
        for p in range(1, group.n + 1):
            stirling = fact_count_stirling(group.degrees, group.size, p)
            ok &= ledger.fact_enumerated[p] == zeta[p] == stirling
    a3 = _ledger(GroupSpec("A", 3))[2]
    ok &= a3.fact_enumerated == {1: 1, 2: 12, 3: 16}
    _line(4, ok, "enumerated fact_p = zeta form = Stirling form, all p")


def test_criterion_05_hurwitz_transitivity_and_classification():
    ok = True
    for spec in HURWITZ_LIST:
        group = build_group(spec)
        ncp = build_ncp(group)
        red = list(iter_fact_with_composition(ncp, (1,) * group.n))
        orbit = hurwitz_orbit(ncp, red[0])
        ok &= orbit.size == len(red) and set(orbit.members) == set(red)
        for k in range(2, group.n + 1):
            res = classify_primitive_orbits(
                ncp, k, GroupContext(group, ncp).primitive(k))
            ok &= len(res["orbits"]) == len(set(res["orbit_classes"]))
    _line(5, ok, "Hurwitz transitivity on Red and orbit <-> class bijection "
                 "for primitive shapes")


def test_criterion_06_s6_counterexample():
    group = build_group(GroupSpec("A", 5))
    c = element_of_permutation(group, (2, 3, 4, 5, 6, 1))
    u1 = element_of_permutation(group, (5, 3, 2, 4, 6, 1))  # (2 3)(1 5 6)
    u2 = element_of_permutation(group, (3, 2, 4, 1, 5, 6))  # (1 3 4)
    v1 = element_of_permutation(group, (5, 2, 4, 3, 6, 1))  # (3 4)(1 5 6)
    v2 = element_of_permutation(group, (2, 4, 3, 1, 5, 6))  # (1 2 4)
    ok = (c == group.coxeter
          and group.product(u1, u2) == c and group.product(v1, v2) == c
          and group.class_id[u1] == group.class_id[v1]
          and group.class_id[u2] == group.class_id[v2])
    ncp = build_ncp(group)
    u1, u2, v1, v2 = ncp.position[[u1, u2, v1, v2]].tolist()
    o1 = hurwitz_orbit(ncp, (u1, u2))
    o2 = hurwitz_orbit(ncp, (v1, v2))
    ok &= set(o1.members).isdisjoint(o2.members)
    ok &= set(o1.members) == p2_orbit_formula(ncp, u1, u2)
    ok &= set(o2.members) == p2_orbit_formula(ncp, v1, v2)
    _line(6, ok, "S6 counterexample: conjugate factors, distinct orbits, "
                 "exact p=2 closed form")


def test_criterion_07_strong_conjugacy():
    ok = True
    for spec in STRONG_CONJ_LIST:
        ncp = build_ncp(build_group(spec))
        ok &= strong_conjugacy_classes(ncp) == conjugacy_partition_on_ncp(ncp)
    _line(7, ok, "strong conjugacy = conjugacy on NCP for the listed groups")


def test_criterion_08_table_reproduction():
    ok = True
    for spec in TABLE_LIST:
        group = build_group(spec)
        ncp = build_ncp(group)
        rep = table_a1_verify(ncp, GroupContext(group, ncp).strata)
        ok &= rep["pass"] and rep["computed"] == reference_row(spec)
        ok &= rep["degree_sum"] == group.n * (group.n - 1) * group.h
        ok &= rep["fiber_total"] == red_count_formula(group)
    d4_group = build_group(GroupSpec("D", 4))
    d4_ncp = build_ncp(d4_group)
    d4 = table_a1_verify(d4_ncp, GroupContext(d4_group, d4_ncp).strata)
    ok &= d4["fiber_total"] == 162
    _line(8, ok, "Table reproduction {(r,u)} + degree sum + fiber identity")


def test_criterion_09_submaximal_totals():
    ok = True
    for spec in TABLE_LIST:
        group = build_group(spec)
        ncp = build_ncp(group)
        strata = length2_strata(ncp)
        total = submax_counts(
            ncp, strata, GroupContext(group, ncp).by_blocks[group.n - 1])
        ok &= total == submax_total_formula(group)
    spots = {"A3": 12, "B3": 18, "H3": 30, "D4": 189}
    for label, value in spots.items():
        spec = next(s for s in TABLE_LIST if s.label == label)
        ok &= submax_total_formula(build_group(spec)) == value
    _line(9, ok, "|fact_(n-1)| matches the closed submaximal total")


def test_criterion_10_structural_properties(capsys):
    ok = True
    # lattice axioms, Brady-Watt, length = codim, kernel decomposition
    for spec in (GroupSpec("A", 3), GroupSpec("B", 3)):
        group = build_group(spec)
        ncp = build_ncp(group)
        flats = [group.fixed_space(w) for w in ncp.members]
        ok &= len(set(flats)) == ncp.size
        member_arr = list(ncp.members)
        for i, u in enumerate(member_arr):
            ok &= int(ncp.rank[i]) == group.n - int(group.fixed_dim[u])
            for j, v in enumerate(member_arr):
                m, jn = ncp.meet(u, v), ncp.join(u, v)
                ok &= m == ncp.meet(v, u) and jn == ncp.join(v, u)
                ok &= ncp.meet(u, u) == u and ncp.join(u, u) == u
                ok &= bool(ncp.leq[i, j]) == flats[i].contains_subspace(flats[j])
                if ncp.leq[i, j]:
                    quotient = group.product(group.inverse(u), v)
                    ok &= fixed_spaces_meet_in(group, u, quotient, v)
    # braid relations on a sample of Red(A3)
    group = build_group(GroupSpec("A", 3))
    ncp = build_ncp(group)
    for t in iter_fact_with_composition(ncp, (1, 1, 1)):
        for i in (1,):
            lhs = t
            for g in (i, i + 1, i):
                lhs = hurwitz_act(ncp, lhs, g)
            rhs = t
            for g in (i + 1, i, i + 1):
                rhs = hurwitz_act(ncp, rhs, g)
            ok &= lhs == rhs
    # report determinism across runs
    argv = ["verify", "--group", "A3", "--group", "I2:5", "--suite", "all",
            "--format", "json"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    ok &= code1 == code2 == 0 and out1 == out2
    _line(10, ok, "lattice axioms, Brady-Watt, kernel decomposition, braid "
                  "relations, deterministic reports")
