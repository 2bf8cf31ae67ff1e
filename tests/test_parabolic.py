"""Parabolic closures, length-2 strata and the LL-data table."""

import tracemalloc

import numpy as np
import pytest

import ncpforge.parabolic as parabolic
from ncpforge.catalog import GroupSpec, catalog_specs
from ncpforge.cli import GroupContext
from ncpforge.errors import (
    ClassificationMismatch,
    ElementNotInGroup,
    NonIntegralDegree,
    NotADivisor,
    TableMismatch,
)
from ncpforge.factorizations import iter_fact_with_composition
from ncpforge.group import build_group
from ncpforge.ncp import build_ncp
from ncpforge.parabolic import (
    length2_strata,
    parabolic_of,
    pointwise_fixator,
    rank2_degrees,
    reduced_decomposition,
    reference_row,
    submax_counts,
    submax_total_formula,
    table_a1_verify,
)
from reference_scans import full_scan_fixator, subgroup_closure


def test_parabolic_of_extremes(a3, a3_ncp):
    trivial = parabolic_of(a3_ncp, a3.identity)
    assert trivial.size == 1 and trivial.rank == 0
    whole = parabolic_of(a3_ncp, a3.coxeter)
    assert whole.size == a3.size and whole.rank == a3.n


def test_parabolic_of_reflection(a3, a3_ncp):
    r = a3.reflections[0]
    p = parabolic_of(a3_ncp, r)
    assert p.rank == 1 == a3.n - a3.fixed_space(r).dim
    assert set(p.elements) == {a3.identity, r}


@pytest.mark.parametrize("spec,strata_only", [
    pytest.param(GroupSpec("B", 3), False, id="B3"),
    pytest.param(GroupSpec("H3", 3), False, id="H3"),
    pytest.param(GroupSpec("G", 3, 3), False, id="G(3,3,3)"),
    pytest.param(GroupSpec("D", 4), False, id="D4"),
    pytest.param(GroupSpec("I2", 2, 8), False, id="I2(8)"),
    # F4's vectors have denominator 2; its 105 members would take long
    pytest.param(GroupSpec("F4", 4), True, id="F4-strata"),
])
def test_pointwise_fixator_matches_full_scan(spec, strata_only):
    group = build_group(spec)
    ncp = build_ncp(group)
    members = ([s.representative for s in length2_strata(ncp)]
               if strata_only else ncp.members)
    for w in members:
        flat = group.fixed_space(w)
        full = [i for i, mat in enumerate(group.matrices)
                if all(mat.apply(v) == tuple(v) for v in flat.basis)]
        assert pointwise_fixator(group, w, np.arange(group.size)) == full


def test_parabolic_of_rejects_non_divisors(a3, a3_ncp):
    outside = next(w for w in range(a3.size) if a3_ncp.position[w] < 0)
    with pytest.raises(NotADivisor):
        parabolic_of(a3_ncp, outside)


def test_parabolic_of_rejects_indices_outside_the_group(a3, a3_ncp):
    # -1 would read the last entry of `position`; A3's last element is a
    # member of NCP, so only the range check refuses it
    assert a3_ncp.position[-1] >= 0
    for w in (-1, a3.size):
        with pytest.raises(ElementNotInGroup):
            parabolic_of(a3_ncp, w)


@pytest.mark.parametrize("fixture", ["a3_ncp", "b3_ncp", "g333_ncp"])
def test_every_member_is_parabolic_coxeter(fixture, request):
    """rank = length, and every reduced decomposition of w generates its
    parabolic closure."""
    ncp = request.getfixturevalue(fixture)
    group = ncp.group
    # Every reduced decomposition of w <= c extends to one of c by a reduced
    # decomposition of w^{-1} c, so those of w are the length-l(w) prefixes
    # of Red(c) whose product is w.
    red_c = list(iter_fact_with_composition(ncp, (1,) * group.n))
    for w in ncp.members:
        p = parabolic_of(ncp, w)
        assert p.rank == group.reflection_length(w)
        assert len(reduced_decomposition(ncp, w)) == p.rank
        assert group.product(*reduced_decomposition(ncp, w)) == w
        decompositions = {t[:p.rank] for t in red_c
                          if group.product(*t[:p.rank]) == w}
        assert decompositions
        for decomposition in decompositions:
            assert subgroup_closure(group, decomposition) == p.elements


def test_rank2_degrees():
    assert rank2_degrees(6, 3) == (2, 3)       # symmetric group on 3 letters
    assert rank2_degrees(8, 4) == (2, 4)
    assert rank2_degrees(4, 2) == (2, 2)
    with pytest.raises(NonIntegralDegree):
        rank2_degrees(7, 3)


STRATA_CASES = [
    (GroupSpec("A", 3), [(2, 2), (3, 3)], [4, 8]),
    (GroupSpec("B", 3), [(2, 2), (3, 3), (4, 4)], [6, 6, 6]),
    (GroupSpec("G", 3, 3), [(3, 3)] * 4, [4, 4, 4, 4]),
    (GroupSpec("D", 4), [(2, 2), (2, 2), (2, 2), (3, 3)], [27, 27, 27, 108]),
    (GroupSpec("H3", 3), [(2, 2), (3, 3), (5, 5)], [10, 10, 10]),
    (GroupSpec("I2", 2, 7), [(7, 7)], [1]),
]


@pytest.mark.parametrize("spec,order_r,counts", STRATA_CASES,
                         ids=lambda v: v.label if isinstance(v, GroupSpec) else "")
def test_length2_strata_and_counts(spec, order_r, counts):
    ncp = build_ncp(build_group(spec))
    strata = length2_strata(ncp)
    total = submax_counts(ncp, strata,
                          GroupContext(ncp.group, ncp).by_blocks[spec.n - 1])
    assert sorted((s.order, s.r) for s in strata) == sorted(order_r)
    assert sorted(s.count for s in strata) == sorted(counts)
    assert total == sum(counts) == submax_total_formula(ncp.group)
    # the degree shortcut agrees with direct counting on 2-reflection groups
    assert all(s.r == s.r_from_degrees for s in strata)


@pytest.mark.parametrize("spec,row", [
    (GroupSpec("A", 2), [(3, 2)]),
    (GroupSpec("A", 4), [(2, 12), (3, 12)]),
    (GroupSpec("B", 2), [(4, 2)]),
    (GroupSpec("B", 4), [(2, 6), (2, 12), (3, 12), (4, 6)]),
    (GroupSpec("D", 4), [(2, 4), (2, 4), (2, 4), (3, 16)]),
    (GroupSpec("G", 3, 3), [(3, 3)] * 4),
    (GroupSpec("G", 3, 4), [(3, 12), (4, 3)]),       # G(4,4,3)
    (GroupSpec("G", 4, 3), [(2, 12), (3, 4), (3, 24)]),  # G(3,3,4)
    (GroupSpec("H3", 3), [(2, 6), (3, 6), (5, 6)]),
    (GroupSpec("F4", 4), [(2, 24), (3, 8), (3, 8), (4, 12)]),
    (GroupSpec("I2", 2, 9), [(9, 2)]),
], ids=lambda v: v.label if isinstance(v, GroupSpec) else "")
def test_reference_rows(spec, row):
    assert reference_row(spec) == sorted(row)


def test_reference_row_drops_vanishing_terms():
    # at n = 2 the cubic terms of the A/B rows vanish
    assert reference_row(GroupSpec("A", 2)) == [(3, 2)]
    assert reference_row(GroupSpec("B", 2)) == [(4, 2)]
    assert len(reference_row(GroupSpec("B", 3))) == 3


def counted_strata(group):
    return GroupContext(group, build_ncp(group)).strata


def test_table_a1_verify_full_report(b3):
    rep = table_a1_verify(build_ncp(b3), counted_strata(b3))
    assert rep["pass"]
    assert rep["computed"] == rep["expected"] == [(2, 4), (3, 4), (4, 4)]
    assert rep["degree_sum"] == 3 * 2 * 6
    assert rep["fiber_total"] == rep["red_count"] == 27


def test_table_a1_trivial_rank_one():
    a1 = build_group(GroupSpec("A", 1))
    rep = table_a1_verify(build_ncp(a1), counted_strata(a1))
    assert rep["pass"] and rep["computed"] == []


def test_table_mismatch_is_detected(monkeypatch, a3):
    import ncpforge.parabolic as parabolic
    monkeypatch.setattr(parabolic, "reference_row", lambda spec: [(2, 99)])
    with pytest.raises(TableMismatch):
        parabolic.table_a1_verify(build_ncp(a3), counted_strata(a3))


def test_stratum_degree_and_fiber_are_checked_in_integers(a3):
    """On A3, u = count |W| / ((n-1)! h^(n-1)) = 3 count / 4: a count off
    by one raises NonIntegralDegree, and a fiber off (n-2)! h^(n-1) u / |W|
    raises TableMismatch."""
    ncp = build_ncp(a3)
    facts = GroupContext(a3, ncp).by_blocks[a3.n - 1]
    with pytest.raises(NonIntegralDegree):
        submax_counts(ncp, length2_strata(ncp), facts[1:])
    strata = length2_strata(ncp)
    submax_counts(ncp, strata, facts)
    assert table_a1_verify(ncp, strata)["pass"]
    strata[0].fiber += 1
    with pytest.raises(TableMismatch):
        table_a1_verify(ncp, strata)


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_pruned_fixator_matches_full_scan(spec):
    """Every member (of rank <= 2 on the two large groups) and every class
    representative, with w = c (all of W) and w = 1 (only 1) among
    them.  On the members, the closure of one reduced decomposition is
    that fixator too; G(3,3,3), G(4,4,3) and G(3,3,4) have members whose
    fixator holds more reflections than there are atoms below them."""
    group = build_group(spec)
    ncp = build_ncp(group)
    members = ncp.members if group.size < 3000 else \
        ncp.members[ncp.rank <= 2]
    elements = set(members.tolist()) | set(group.class_reps.tolist())
    everything = np.arange(group.size)
    assert (pointwise_fixator(group, group.coxeter, everything)
            == list(range(group.size)))
    assert (pointwise_fixator(group, group.identity, everything)
            == [group.identity])
    for w in sorted(elements | {group.coxeter, group.identity}):
        full = full_scan_fixator(group, w)
        assert pointwise_fixator(group, w, everything) == full
        if w in members:
            assert parabolic_of(ncp, w).elements == full


def test_closure_of_too_few_generators_is_refused(monkeypatch, b3):
    """One atom below a rank-2 member closes to a group of order 2, whose
    one reflection is not every reflection fixing the flat."""
    ncp = build_ncp(b3)
    w = int(ncp.members[np.argmax(ncp.rank == 2)])
    monkeypatch.setattr(parabolic, "reduced_decomposition",
                        lambda ncp, w: reduced_decomposition(ncp, w)[:1])
    with pytest.raises(ClassificationMismatch, match="different reflections"):
        parabolic_of(ncp, w)
    with pytest.raises(ClassificationMismatch, match="different reflections"):
        length2_strata(ncp)


def test_strata_allocate_nothing_of_the_size_of_w():
    """On a warm G(3,3,5) the strata's traced peak stays below 8 bytes per
    element of W: the closures are the size of a rank-2 parabolic, and the
    fixator runs over the reflections alone."""
    group = build_group(GroupSpec("G", 5, 3))
    ncp = build_ncp(group)
    expected = length2_strata(ncp)
    tracemalloc.start()
    try:
        strata = length2_strata(ncp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert strata == expected
    assert peak < 8 * group.size
