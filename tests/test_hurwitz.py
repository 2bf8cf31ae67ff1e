"""Hurwitz action: braid relations, orbits, strong conjugacy."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpforge.catalog import GroupSpec
from ncpforge.cli import GroupContext
from ncpforge.errors import (
    ClassificationMismatch,
    IndexOutOfRange,
    OrbitCapExceeded,
)
from ncpforge.factorizations import iter_fact_with_composition
from ncpforge.group import build_group
from ncpforge.hurwitz import (
    BraidGen,
    classify_primitive_orbits,
    conjugacy_partition_on_ncp,
    hurwitz_act,
    hurwitz_orbit,
    orbit_decomposition,
    p2_orbit_formula,
    strong_conjugacy_classes,
)
from ncpforge.ncp import build_ncp
from conftest import element_of_permutation


@pytest.fixture(scope="module")
def a3_red(a3, a3_ncp):
    return list(iter_fact_with_composition(a3_ncp, (1, 1, 1)))


def apply_word(group, t, word):
    for gen in word:
        t = hurwitz_act(group, t, gen)
    return t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_braid_relations(a3, a3_red, data):
    t = data.draw(st.sampled_from(a3_red))
    i = data.draw(st.integers(1, len(t) - 2))
    s_i, s_j = BraidGen(i), BraidGen(i + 1)
    braid_lhs = apply_word(a3, t, [s_i, s_j, s_i])
    braid_rhs = apply_word(a3, t, [s_j, s_i, s_j])
    assert braid_lhs == braid_rhs
    # inverses really invert
    assert apply_word(a3, t, [s_i, BraidGen(i, inverse=True)]) == t
    assert apply_word(a3, t, [BraidGen(i, inverse=True), s_i]) == t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_preserves_product_and_lengths(a3, a3_red, data):
    t = data.draw(st.sampled_from(a3_red))
    i = data.draw(st.integers(1, len(t) - 1))
    inv = data.draw(st.booleans())
    u = hurwitz_act(a3, t, BraidGen(i, inverse=inv))
    assert a3.product(*u) == a3.product(*t)
    assert sorted(a3.reflection_length(w) for w in u) == \
        sorted(a3.reflection_length(w) for w in t)


def test_commuting_generators(a3, a3_red):
    # need tuples of length >= 4: reduced decompositions have length n = 3,
    # so use a 4-block factorisation of c in B4 instead
    group = build_group(GroupSpec("B", 4))
    ncp = build_ncp(group)
    t = next(iter_fact_with_composition(ncp, (1, 1, 1, 1)))
    far = apply_word(group, t, [BraidGen(1), BraidGen(3)])
    far2 = apply_word(group, t, [BraidGen(3), BraidGen(1)])
    assert far == far2


def test_generator_index_validation(a3, a3_red):
    t = a3_red[0]
    with pytest.raises(IndexOutOfRange):
        hurwitz_act(a3, t, BraidGen(0))
    with pytest.raises(IndexOutOfRange):
        hurwitz_act(a3, t, BraidGen(len(t)))


def test_orbit_cap(a3, a3_red):
    with pytest.raises(OrbitCapExceeded):
        hurwitz_orbit(a3, a3_red[0], cap=3)


def test_transitivity_on_red(a3, a3_red):
    orbit = hurwitz_orbit(a3, a3_red[0])
    assert orbit.size == len(a3_red)
    assert set(orbit.members) == set(a3_red)


@pytest.mark.parametrize("spec,k,expected_orbit_sizes", [
    (GroupSpec("A", 3), 2, [4, 8]),
    (GroupSpec("B", 3), 2, [6, 6, 6]),
    (GroupSpec("G", 3, 3), 2, [4, 4, 4, 4]),
    (GroupSpec("H3", 3), 2, [10, 10, 10]),
    (GroupSpec("D", 4), 2, [27, 27, 27, 108]),
    (GroupSpec("A", 4), 3, [10, 10]),
], ids=lambda v: v.label if isinstance(v, GroupSpec) else str(v))
def test_primitive_orbit_classification(spec, k, expected_orbit_sizes):
    group = build_group(spec)
    ncp = build_ncp(group)
    res = classify_primitive_orbits(ncp, k,
                                    GroupContext(group, ncp).primitive(k))
    assert sorted(o.size for o in res["orbits"]) == expected_orbit_sizes
    # one orbit per long-factor conjugacy class
    assert len(set(res["orbit_classes"])) == len(res["orbits"])


@pytest.mark.parametrize("spec", [GroupSpec("A", 3), GroupSpec("B", 3),
                                  GroupSpec("G", 3, 3)],
                         ids=lambda s: s.label)
def test_p2_orbit_closed_form(spec):
    group = build_group(spec)
    ncp = build_ncp(group)
    compositions = [(p, group.n - p) for p in range(1, group.n)]
    for comp in compositions:
        for t in iter_fact_with_composition(ncp, comp):
            orbit = hurwitz_orbit(group, t)
            assert set(orbit.members) == p2_orbit_formula(group, *t)


@pytest.mark.parametrize("spec", [GroupSpec("A", 3), GroupSpec("B", 3),
                                  GroupSpec("D", 4), GroupSpec("G", 3, 3),
                                  GroupSpec("I2", 2, 7), GroupSpec("H3", 3)],
                         ids=lambda s: s.label)
def test_strong_conjugacy_equals_conjugacy(spec):
    ncp = build_ncp(build_group(spec))
    strong = strong_conjugacy_classes(ncp)
    assert strong == conjugacy_partition_on_ncp(ncp)
    # restricting conjugators to reflections changes nothing
    assert strong == reference_strong_conjugacy(
        ncp, reflection_conjugators_only=True)


def reference_strong_conjugacy(ncp, reflection_conjugators_only=False):
    """The strong-conjugacy partition by one product per (w, x) pair and
    a plain merge of blocks."""
    group = ncp.group
    conjugators = [x for i, x in enumerate(ncp.members)
                   if not reflection_conjugators_only or ncp.rank[i] == 1]
    block = {w: {w} for w in ncp.members}
    for w in ncp.members:
        for x in conjugators:
            xw = group.product(x, w)
            if (xw in ncp.pos and int(group.length[xw])
                    == int(group.length[x]) + int(group.length[w])):
                merged = block[w] | block[group.product(xw, group.inverse(x))]
                for u in merged:
                    block[u] = merged
    return sorted(sorted(b) for b in {id(b): b for b in block.values()}.values())


@pytest.mark.parametrize("spec", [GroupSpec("B", 3), GroupSpec("H3", 3),
                                  GroupSpec("G", 3, 3)],
                         ids=lambda s: s.label)
@pytest.mark.parametrize("reflections_only", [False, True])
def test_strong_conjugacy_matches_reference_loop(spec, reflections_only):
    """All conjugators, or reflections only: the same partition."""
    ncp = build_ncp(build_group(spec))
    assert strong_conjugacy_classes(ncp) == \
        reference_strong_conjugacy(ncp, reflections_only)


def test_strong_conjugate_outside_ncp_is_a_mismatch(b3, b3_ncp):
    # drop one reflection from the member list: some x w x^{-1} lands on it
    dropped = next(w for i, w in enumerate(b3_ncp.members)
                   if b3_ncp.rank[i] == 1)
    keep = [i for i, w in enumerate(b3_ncp.members) if w != dropped]
    truncated = SimpleNamespace(
        group=b3, members=[b3_ncp.members[i] for i in keep],
        size=len(keep), rank=b3_ncp.rank[keep])
    with pytest.raises(ClassificationMismatch):
        strong_conjugacy_classes(truncated)


def test_s6_counterexample():
    """Two 2-block factorisations with conjugate factors but distinct
    Hurwitz orbits."""
    group = build_group(GroupSpec("A", 5))
    c = element_of_permutation(group, (2, 3, 4, 5, 6, 1))
    assert c == group.coxeter
    u1 = element_of_permutation(group, (5, 3, 2, 4, 6, 1))  # (2 3)(1 5 6)
    u2 = element_of_permutation(group, (3, 2, 4, 1, 5, 6))  # (1 3 4)
    v1 = element_of_permutation(group, (5, 2, 4, 3, 6, 1))  # (3 4)(1 5 6)
    v2 = element_of_permutation(group, (2, 4, 3, 1, 5, 6))  # (1 2 4)
    assert group.product(u1, u2) == c and group.product(v1, v2) == c
    assert group.class_id[u1] == group.class_id[v1]
    assert group.class_id[u2] == group.class_id[v2]
    o1 = hurwitz_orbit(group, (u1, u2))
    o2 = hurwitz_orbit(group, (v1, v2))
    assert (v1, v2) not in o1.members
    assert set(o1.members).isdisjoint(o2.members)
    assert set(o1.members) == p2_orbit_formula(group, u1, u2)
    assert set(o2.members) == p2_orbit_formula(group, v1, v2)


def test_orbit_decomposition_is_a_partition(b3, b3_ncp):
    tuples = list(iter_fact_with_composition(b3_ncp, (2, 1)))
    tuples += list(iter_fact_with_composition(b3_ncp, (1, 2)))
    orbits = orbit_decomposition(b3, tuples)
    sizes = sum(o.size for o in orbits)
    assert sizes == len(tuples)
    seen = set()
    for o in orbits:
        assert seen.isdisjoint(o.members)
        seen.update(o.members)


def bfs_partition(group, rows):
    """Orbits by repeated per-seed BFS from the least tuple left."""
    remaining = {tuple(t) for t in rows.tolist()}
    orbits = []
    while remaining:
        orbit = hurwitz_orbit(group, min(remaining))
        assert remaining.issuperset(orbit.members)
        remaining.difference_update(orbit.members)
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("spec", [
    GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("D", 4),
    GroupSpec("H3", 3), GroupSpec("G", 3, 3), GroupSpec("I2", 2, 6),
], ids=lambda s: s.label)
def test_orbit_decomposition_matches_per_seed_bfs(spec):
    group = build_group(spec)
    ctx = GroupContext(group, build_ncp(group))
    for tuples in [ctx.red] + [ctx.primitive(k)
                               for k in range(2, group.n + 1)]:
        orbits = orbit_decomposition(group, tuples)
        expected = bfs_partition(group, tuples)
        assert [(o.seed, o.members) for o in orbits] == \
            [(o.seed, o.members) for o in expected]


def test_orbit_decomposition_of_a_set_missing_a_tuple(b3, b3_ncp):
    tuples = GroupContext(b3, b3_ncp).primitive(2)
    for drop in (0, len(tuples) // 2, len(tuples) - 1):
        with pytest.raises(ClassificationMismatch):
            orbit_decomposition(b3, np.delete(tuples, drop, axis=0))


def test_orbit_decomposition_cap_is_the_largest_orbit():
    group = build_group(GroupSpec("D", 4))
    tuples = GroupContext(group, build_ncp(group)).primitive(2)
    largest = max(o.size for o in orbit_decomposition(group, tuples))
    assert largest == 108
    assert len(orbit_decomposition(group, tuples, cap=largest)) == 4
    with pytest.raises(OrbitCapExceeded):
        orbit_decomposition(group, tuples, cap=largest - 1)


def test_array_action_matches_tuple_action(b3, b3_ncp):
    red = GroupContext(b3, b3_ncp).red
    rows = np.array(red)
    for i in range(1, b3.n):
        for inverse in (False, True):
            gen = BraidGen(i, inverse)
            images = hurwitz_act(b3, rows, gen)
            assert images.shape == rows.shape
            assert [tuple(r) for r in images.tolist()] == \
                [hurwitz_act(b3, t, gen) for t in red]
