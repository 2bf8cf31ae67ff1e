"""Hurwitz action: braid relations, orbits, strong conjugacy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpforge.catalog import GroupSpec, catalog_specs
from ncpforge.cli import GroupContext
from ncpforge.errors import (
    ClassificationMismatch,
    ElementNotInGroup,
    IndexOutOfRange,
    NotADivisor,
    OrbitCapExceeded,
)
from ncpforge.factorizations import factorisations, iter_fact_with_composition
from ncpforge.group import build_group
from ncpforge import hurwitz
from ncpforge.hurwitz import (
    classify_primitive_orbits,
    conjugacy_partition_on_ncp,
    hurwitz_act,
    hurwitz_orbit,
    orbit_decomposition,
    p2_orbit_formula,
    strong_conjugacy_classes,
)
from ncpforge.ncp import build_ncp, quotient_table
from conftest import element_of_permutation
from reference_scans import (per_orbit_classification,
                             searched_orbit_decomposition, w_wide_lattice)


@pytest.fixture(scope="module")
def a3_red(a3, a3_ncp):
    return list(iter_fact_with_composition(a3_ncp, (1, 1, 1)))


def apply_word(ncp, t, word):
    for i in word:
        t = hurwitz_act(ncp, t, i)
    return t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_braid_relations(a3_ncp, a3_red, data):
    t = data.draw(st.sampled_from(a3_red))
    i = data.draw(st.integers(1, len(t) - 2))
    braid_lhs = apply_word(a3_ncp, t, [i, i + 1, i])
    braid_rhs = apply_word(a3_ncp, t, [i + 1, i, i + 1])
    assert braid_lhs == braid_rhs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_preserves_product_and_lengths(a3, a3_ncp, a3_red, data):
    t = data.draw(st.sampled_from(a3_red))
    i = data.draw(st.integers(1, len(t) - 1))
    u = hurwitz_act(a3_ncp, t, i)
    assert a3.product(*u) == a3.product(*t)
    assert sorted(a3.reflection_length(w) for w in u) == \
        sorted(a3.reflection_length(w) for w in t)


def test_commuting_generators(a3, a3_red):
    # need tuples of length >= 4: reduced decompositions have length n = 3,
    # so use a 4-block factorisation of c in B4 instead
    group = build_group(GroupSpec("B", 4))
    ncp = build_ncp(group)
    t = next(iter_fact_with_composition(ncp, (1, 1, 1, 1)))
    far = apply_word(ncp, t, [1, 3])
    far2 = apply_word(ncp, t, [3, 1])
    assert far == far2


def test_generator_index_validation(a3_ncp, a3_red):
    t = a3_red[0]
    with pytest.raises(IndexOutOfRange):
        hurwitz_act(a3_ncp, t, 0)
    with pytest.raises(IndexOutOfRange):
        hurwitz_act(a3_ncp, t, len(t))


def test_orbit_cap(a3_ncp, a3_red):
    with pytest.raises(OrbitCapExceeded):
        hurwitz_orbit(a3_ncp, a3_red[0], cap=3)


def test_transitivity_on_red(a3_ncp, a3_red):
    orbit = hurwitz_orbit(a3_ncp, a3_red[0])
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
            orbit = hurwitz_orbit(ncp, t)
            assert set(orbit.members) == p2_orbit_formula(ncp, *t)


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
            if (ncp.position[xw] >= 0 and int(group.length[xw])
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


def strong_conjugacy_edges(ncp, monkeypatch) -> set:
    """The edges that `strong_conjugacy_classes` hands to `components`."""
    edges = []
    real = hurwitz.components

    def recorded(size, pairs):
        edges.extend(zip(*(np.concatenate(e).tolist() for e in zip(*pairs))))
        return real(size, pairs)

    monkeypatch.setattr(hurwitz, "components", recorded)
    strong_conjugacy_classes(ncp)
    monkeypatch.setattr(hurwitz, "components", real)
    return set(edges)


@pytest.mark.parametrize("spec", [GroupSpec("A", 3), GroupSpec("B", 3),
                                  GroupSpec("D", 4), GroupSpec("H3", 3),
                                  GroupSpec("G", 3, 3), GroupSpec("B", 5)],
                         ids=lambda s: s.label)
def test_strong_conjugacy_edges_are_the_pairs_of_the_order(
        spec, monkeypatch):
    """The edges read from q are the pairs (x^{-1} y, y x^{-1}) over
    x <= y, with both products formed in W by the W-wide reference."""
    group = build_group(spec)
    ncp = build_ncp(group)
    reference = w_wide_lattice(group)
    x, y = np.nonzero(reference["leq"])
    expected = set(zip(reference["q"][x, y].tolist(),
                       reference["rq"][x, y].tolist()))
    assert strong_conjugacy_edges(ncp, monkeypatch) == expected


def test_strong_conjugate_outside_ncp_is_a_mismatch(b3_ncp):
    """The lattice build refuses a quotient outside NCP, a quotient not
    below its y, and one quotient for two pairs of one column y."""
    size = b3_ncp.size
    x, y = np.nonzero(b3_ncp.leq)
    a = b3_ncp.q[x, y]
    # the B3 quotients on the pairs of the order rebuild the B3 table
    assert np.array_equal(quotient_table(x, y, a, size, "B3"), b3_ncp.q)
    # drop one reflection: the quotients that land on it read -1
    dropped = int(np.nonzero(b3_ncp.rank == 1)[0][0])
    with pytest.raises(ClassificationMismatch, match="outside NCP"):
        quotient_table(x, y, np.where(a == dropped, -1, a), size, "B3")
    # c as the quotient of a pair whose y is not c: a member, and the
    # only c in its column, but not below y
    below_c = a.copy()
    below_c[np.flatnonzero(y != b3_ncp.top)[0]] = b3_ncp.top
    with pytest.raises(ClassificationMismatch, match="not below"):
        quotient_table(x, y, below_c, size, "B3")
    # two members below y with one quotient: each quotient is still a
    # member below y, but x -> a is no longer one to one on the column
    pair1, pair2 = np.flatnonzero(y == b3_ncp.top)[:2]
    quotients = a.copy()
    quotients[pair1] = quotients[pair2]
    with pytest.raises(ClassificationMismatch, match="one quotient"):
        quotient_table(x, y, quotients, size, "B3")


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
    ncp = build_ncp(group)
    o1 = hurwitz_orbit(ncp, (u1, u2))
    o2 = hurwitz_orbit(ncp, (v1, v2))
    assert (v1, v2) not in o1.members
    assert set(o1.members).isdisjoint(o2.members)
    assert set(o1.members) == p2_orbit_formula(ncp, u1, u2)
    assert set(o2.members) == p2_orbit_formula(ncp, v1, v2)


def test_orbit_decomposition_is_a_partition(b3, b3_ncp):
    tuples = list(iter_fact_with_composition(b3_ncp, (2, 1)))
    tuples += list(iter_fact_with_composition(b3_ncp, (1, 2)))
    orbits = orbit_decomposition(b3_ncp, tuples)
    sizes = sum(o.size for o in orbits)
    assert sizes == len(tuples)
    seen = set()
    for o in orbits:
        assert seen.isdisjoint(o.members)
        seen.update(o.members)


def bfs_partition(ncp, rows):
    """Orbits by repeated per-seed BFS from the least tuple left."""
    remaining = {tuple(t) for t in rows.tolist()}
    orbits = []
    while remaining:
        orbit = hurwitz_orbit(ncp, min(remaining))
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
    ncp = build_ncp(group)
    ctx = GroupContext(group, ncp)
    for tuples in [ctx.red] + [ctx.primitive(k)
                               for k in range(2, group.n + 1)]:
        orbits = orbit_decomposition(ncp, tuples)
        expected = bfs_partition(ncp, tuples)
        assert [(o.seed, o.members) for o in orbits] == \
            [(o.seed, o.members) for o in expected]


def orbit_listing(orbits):
    return [(o.seed, o.members) for o in orbits]


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_orbit_kernel_matches_searched_reference(spec):
    """Red(c) and every primitive shape: the same orbits, seeds and
    members, and the same classes, as the element-index kernel."""
    group = build_group(spec)
    ncp = build_ncp(group)
    ctx = GroupContext(group, ncp)
    assert orbit_listing(orbit_decomposition(ncp, ctx.red)) == \
        orbit_listing(searched_orbit_decomposition(ncp, ctx.red))
    for k in range(2, group.n + 1):
        tuples = ctx.primitive(k)
        res = classify_primitive_orbits(ncp, k, tuples)
        ref = per_orbit_classification(ncp, k, tuples)
        assert orbit_listing(res["orbits"]) == orbit_listing(ref["orbits"])
        for key in ("orbit_classes", "divisor_classes", "total"):
            assert res[key] == ref[key]


def test_an_empty_tuple_set_has_no_orbits(b3_ncp):
    """No orbits, and so no bijection with the classes of length 2."""
    for empty in ([], np.zeros((0, 3), dtype=np.int32)):
        assert orbit_decomposition(b3_ncp, empty) == []
        assert searched_orbit_decomposition(b3_ncp, empty) == []
        with pytest.raises(ClassificationMismatch):
            classify_primitive_orbits(b3_ncp, 2, empty)


def test_merged_divisor_classes_are_a_mismatch(b3, b3_ncp, monkeypatch):
    """Two classes of length-2 divisors read as one: one class then holds
    two orbits, and the bijection check fails."""
    tuples = GroupContext(b3, b3_ncp).primitive(2)
    assert len(classify_primitive_orbits(b3_ncp, 2, tuples)["orbits"]) == 3
    first, second = sorted(set(
        b3.class_id[b3_ncp.members[b3_ncp.rank == 2]].tolist()))[:2]
    monkeypatch.setattr(b3, "class_id", np.where(
        b3.class_id == second, first, b3.class_id))
    with pytest.raises(ClassificationMismatch):
        classify_primitive_orbits(b3_ncp, 2, tuples)
    with pytest.raises(ClassificationMismatch):
        per_orbit_classification(b3_ncp, 2, tuples)


def test_orbit_decomposition_of_a_set_missing_a_tuple(b3, b3_ncp):
    tuples = GroupContext(b3, b3_ncp).primitive(2)
    for drop in (0, len(tuples) // 2, len(tuples) - 1):
        with pytest.raises(ClassificationMismatch):
            orbit_decomposition(b3_ncp, np.delete(tuples, drop, axis=0))


def test_orbit_decomposition_cap_is_the_largest_orbit():
    group = build_group(GroupSpec("D", 4))
    ncp = build_ncp(group)
    tuples = GroupContext(group, ncp).primitive(2)
    largest = max(o.size for o in orbit_decomposition(ncp, tuples))
    assert largest == 108
    assert len(orbit_decomposition(ncp, tuples, cap=largest)) == 4
    with pytest.raises(OrbitCapExceeded):
        orbit_decomposition(ncp, tuples, cap=largest - 1)


def test_array_action_matches_tuple_action(b3, b3_ncp):
    red = GroupContext(b3, b3_ncp).red
    rows = np.array(red)
    for i in range(1, b3.n):
        images = hurwitz_act(b3_ncp, rows, i)
        assert images.shape == rows.shape
        assert [tuple(r) for r in images.tolist()] == \
            [hurwitz_act(b3_ncp, t, i) for t in red]


def test_list_rows_act_like_array_rows(b3, b3_ncp):
    """A 2-D input given as a list of lists maps every row, as an array
    does, and gives back an array."""
    red = GroupContext(b3, b3_ncp).red
    for i in range(1, b3.n):
        images = hurwitz_act(b3_ncp, red.tolist(), i)
        assert isinstance(images, np.ndarray)
        assert np.array_equal(images, hurwitz_act(b3_ncp, red, i))


def reference_hurwitz_act(group, rows, i):
    """sigma_i of every row of an index array by products in W:
    (a, b) -> (b, b^{-1} a b)."""
    a, b = rows[:, i - 1], rows[:, i]
    out = rows.copy()
    out[:, i - 1] = b
    out[:, i] = group.mult[group.mult[group.inverse(b), a], b]
    return out


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_table_action_matches_products_in_w(spec):
    """K(x) = x^{-1} c permutes NCP with K(K(x)) = c^{-1} x c; for every
    pair of members a and b, q[b, K(a)] is a member exactly where a b
    divides c with l(a b) = l(a) + l(b), and then K^{-1} of it is a b (the
    W-wide reference's `prod`); and sigma_i agrees with the products in W
    on every factorisation of c with at least two blocks, which it
    permutes."""
    group = build_group(spec)
    ncp = build_ncp(group)
    members, kreweras, back = ncp.members, ncp.kreweras, ncp.kreweras_inverse
    c = group.coxeter
    assert np.array_equal(members[kreweras],
                          group.mult[group.inverse(members), c])
    assert np.array_equal(back[kreweras], np.arange(ncp.size))
    assert np.array_equal(members[kreweras[kreweras]], group.mult[
        group.inverse(c), group.mult[members, c]])
    entry = ncp.q.T[kreweras]  # entry[a, b] = q[b, K(a)]
    assert np.array_equal(np.where(entry >= 0, back[entry], -1),
                          w_wide_lattice(group)["prod"])
    for p, rows in factorisations(ncp).items():
        for i in range(1, p):
            images = hurwitz_act(ncp, rows, i)
            assert images.dtype == np.int32
            assert np.array_equal(images,
                                  reference_hurwitz_act(group, rows, i))
            assert sorted(map(tuple, images.tolist())) == \
                sorted(map(tuple, rows.tolist()))


def test_action_outside_ncp_is_refused(b3, b3_ncp):
    t = tuple(GroupContext(b3, b3_ncp).red[0].tolist())
    outside = next(w for w in range(b3.size) if b3_ncp.position[w] < 0)
    # an entry outside NCP, or no element index at all
    for bad in (outside, -1, b3.size):
        with pytest.raises(ElementNotInGroup):
            hurwitz_act(b3_ncp, (bad,) + t[1:], 1)
    # r r = 1: the lengths do not add, so r r is no product in NCP
    with pytest.raises(NotADivisor):
        hurwitz_act(b3_ncp, (t[1],) + t[1:], 1)


def test_orbit_decomposition_refuses_entries_outside_ncp(b3, b3_ncp):
    t = GroupContext(b3, b3_ncp).red[:3].copy()
    outside = next(w for w in range(b3.size) if b3_ncp.position[w] < 0)
    for bad in (outside, -1, b3.size):
        t[1, 0] = bad
        with pytest.raises(ElementNotInGroup):
            orbit_decomposition(b3_ncp, t)
