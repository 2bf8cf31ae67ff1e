"""Group construction invariants and element arithmetic."""

import gc
import operator
import weakref
from fractions import Fraction
from functools import reduce
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpforge.catalog import (
    GroupSpec,
    catalog_specs,
    conductor_of,
    degrees_of,
    generators_of,
    order_of,
    parse_spec,
)
from ncpforge.cyclo import CycNum, Matrix, Subspace, euler_phi, kernel
from ncpforge.errors import (
    ConfigError,
    CoxeterValidationFailed,
    ElementNotInGroup,
    OrderCapExceeded,
)
from ncpforge import cyclo as cyclo_module
from ncpforge import group as group_module
from ncpforge.group import ReflectionGroup, build_group
from ncpforge.ncp import build_ncp
from conftest import element_of_permutation
from reference_build import exact_generators, matmul_closure
from reference_scans import (per_class_fixed_dims, product_integer_columns,
                             two_lookup_classes, two_lookup_conjugates,
                             unchunked_products, word_lengths)

# the catalog, and two groups of order 3840 and 9720 with conductors 2, 3
WIDE_SPECS = catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)]

SMALL_SPECS = [
    GroupSpec("A", 1),
    GroupSpec("A", 2),
    GroupSpec("A", 3),
    GroupSpec("B", 2),
    GroupSpec("B", 3),
    GroupSpec("D", 4),
    GroupSpec("I2", 2, 5),
    GroupSpec("I2", 2, 6),
    GroupSpec("G", 3, 3),
    GroupSpec("G", 4, 3),
    GroupSpec("H3", 3),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.label)
def test_build_invariants(spec):
    g = build_group(spec)
    assert g.size == order_of(spec)
    assert g.degrees == degrees_of(spec)
    assert len(g.reflections) == sum(d - 1 for d in g.degrees)
    assert g.element_order(g.coxeter) == g.h
    assert g.reflection_length(g.coxeter) == g.n
    assert g.fixed_dim[g.coxeter] == 0


def test_f4_build_invariants():
    g = build_group(GroupSpec("F4", 4))
    assert g.size == 1152
    assert len(g.reflections) == 24
    assert g.element_order(g.coxeter) == 12


@pytest.mark.parametrize("text,label", [
    ("A3", "A3"), ("B4", "B4"), ("D4", "D4"), ("I2:7", "I2(7)"),
    ("G:3,3,4", "G(3,3,4)"), ("H3", "H3"), ("F4", "F4"), ("H4", "H4"),
    ("E6", "E6"), ("E7", "E7"),
])
def test_parse_spec_grammar(text, label):
    assert parse_spec(text).label == label


def test_large_exceptional_groups_are_off_the_default_catalog():
    labels = [s.label for s in catalog_specs()]
    assert "H3" in labels and "F4" in labels
    assert not {"H4", "E6", "E7"} & set(labels)


@pytest.mark.parametrize("bad", ["A0", "B1", "D3", "I2:2", "G:2,3,4",
                                 "G:2,2,2", "E8", "x", "I2:x"])
def test_parse_spec_rejects(bad):
    with pytest.raises(ConfigError):
        parse_spec(bad)


@pytest.mark.parametrize("family,n,e", [
    ("F4", 2, None), ("H3", 4, None), ("I2", 5, 7)])
def test_spec_with_a_rank_its_family_fixes_is_refused(family, n, e):
    with pytest.raises(ConfigError, match="rank|n = 2"):
        GroupSpec(family, n, e)


def test_order_cap_enforced():
    with pytest.raises(OrderCapExceeded):
        build_group(GroupSpec("F4", 4), order_cap=100)


def test_order_cap_refuses_a_huge_rank_before_listing_degrees(
        no_huge_degrees):
    message = "A1000000000: order at least 4! = 24 exceeds cap 10"
    with pytest.raises(OrderCapExceeded, match=message):
        ReflectionGroup(GroupSpec("A", 10 ** 9), order_cap=10)
    # 3! fits under the cap, so the order itself is compared, as before
    with pytest.raises(OrderCapExceeded, match=r"A3: order 24 exceeds cap 10"):
        ReflectionGroup(GroupSpec("A", 3), order_cap=10)


def test_out_of_range_element_rejected(a3):
    with pytest.raises(ElementNotInGroup):
        a3.reflection_length(a3.size)
    with pytest.raises(ElementNotInGroup):
        a3.element_order(-1)


_ELEMENT_QUERIES = {
    "product_first": lambda g, w: g.product(w, 0),
    "product_last": lambda g, w: g.product(0, 1, w),
    "inverse": lambda g, w: g.inverse(w),
    "powers": lambda g, w: g.powers(w),
    "element_order": lambda g, w: g.element_order(w),
    "fixed_space": lambda g, w: g.fixed_space(w),
    "coxeter_regularity_check": lambda g, w: g.coxeter_regularity_check(w),
}


@pytest.mark.parametrize("query", sorted(_ELEMENT_QUERIES))
@pytest.mark.parametrize("offset", [-1, 0])
def test_element_queries_reject_indices_outside_the_group(a3, query, offset):
    # -1 would wrap to the last element and |W| would index past the end
    w = -1 if offset < 0 else a3.size
    with pytest.raises(ElementNotInGroup):
        _ELEMENT_QUERIES[query](a3, w)


def test_permutation_round_trip(a3):
    # adjacent transposition is a reflection; the (n+1)-cycle is c
    t = element_of_permutation(a3, (2, 1, 3, 4))
    assert a3.reflection_length(t) == 1
    c = element_of_permutation(a3, (2, 3, 4, 1))
    assert c == a3.coxeter


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_group_axioms_on_indices(a3, data):
    w = data.draw(st.integers(0, a3.size - 1))
    v = data.draw(st.integers(0, a3.size - 1))
    assert a3.product(w, a3.inverse(w)) == a3.identity
    assert a3.product(a3.identity, w) == w
    assert a3.inverse(a3.inverse(w)) == w
    # conjugation preserves length, order and class
    conj = a3.product(a3.inverse(v), w, v)
    assert a3.reflection_length(conj) == a3.reflection_length(w)
    assert a3.element_order(conj) == a3.element_order(w)
    assert a3.class_id[conj] == a3.class_id[w]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_absolute_order_triangle(b3, data):
    u = data.draw(st.integers(0, b3.size - 1))
    v = data.draw(st.integers(0, b3.size - 1))
    lu, lv = b3.reflection_length(u), b3.reflection_length(v)
    prod = b3.product(u, v)
    assert b3.reflection_length(prod) <= lu + lv
    assert divides(b3, b3.identity, u)
    assert divides(b3, u, u)


def divides(g, u, v):
    """u <= v in the absolute order: l(u) + l(u^-1 v) = l(v)."""
    quotient = g.product(g.inverse(u), v)
    return (g.reflection_length(u) + g.reflection_length(quotient)
            == g.reflection_length(v))


def test_conjugacy_classes_partition(g333):
    elements = np.arange(g333.size)
    reps = g333.class_reps
    assert reps.dtype == np.int32
    # the least element of each class, classes numbered in that order
    assert reps.tolist() == np.unique(g333.class_id,
                                      return_index=True)[1].tolist()
    assert (g333.class_id[reps] == np.arange(len(reps))).all()
    assert np.bincount(g333.class_id).sum() == g333.size
    for g in g333.generators:
        conj = g333.mult[g, g333.mult[elements, g333.inverse(g)]]
        assert (g333.class_id[conj] == g333.class_id).all()


def test_regularity_check(a3):
    assert a3.coxeter_regularity_check()
    assert not a3.coxeter_regularity_check(a3.identity)


def test_determinism_of_element_indexing():
    g1 = ReflectionGroup(GroupSpec("B", 3))
    g2 = ReflectionGroup(GroupSpec("B", 3))
    assert g1 is not g2
    assert g1.coxeter == g2.coxeter
    assert [m.key() for m in g1.matrices] == [m.key() for m in g2.matrices]


def test_dropped_group_is_freed():
    group = ReflectionGroup(GroupSpec("B", 3))
    assert group.fixed_space(group.coxeter).dim == 0
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def test_build_group_cache_ignores_call_form():
    spec = GroupSpec("B", 2)
    g = build_group(spec)
    assert build_group(spec, 50_000) is g
    assert build_group(spec, order_cap=50_000) is g
    assert build_group(spec, order_cap=10 ** 18) is g
    with pytest.raises(OrderCapExceeded):
        build_group(spec, order_cap=7)


@pytest.mark.parametrize("spec", [
    GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("D", 4),
    GroupSpec("I2", 2, 5), GroupSpec("G", 3, 3), GroupSpec("H3", 3),
], ids=lambda s: s.label)
def test_build_matches_matmul_oracle(spec):
    """The permutation store and the exact-matmul oracle number elements
    differently; compare them through the bijection
    pi: w -> oracle index of group.matrices[w]."""
    g = build_group(spec)
    matrices, mult = matmul_closure(spec)
    oracle_index = {m.key(): i for i, m in enumerate(matrices)}
    pi = np.array([oracle_index[m.key()] for m in g.matrices])
    assert sorted(pi.tolist()) == list(range(len(matrices)))
    elements = np.arange(g.size)
    ours = g.mult[elements[:, None], elements[None, :]]
    assert (mult[pi[:, None], pi[None, :]] == pi[ours]).all()
    oracle_dims = [kernel(m.minus_identity()).dim for m in matrices]
    assert [int(d) for d in g.fixed_dim] == [oracle_dims[p] for p in pi]
    identity = Matrix.identity(spec.n, conductor_of(spec))
    assert pi[g.identity] == oracle_index[identity.key()]
    c = reduce(operator.matmul, exact_generators(spec))
    assert pi[g.coxeter] == oracle_index[c.key()]


def test_locate_rejects_images_of_no_element(b3):
    assert int(b3.mult.locate([0, 1, 2])) == b3.identity
    # every basis vector sent to e_1: vectors of V, but no element's images
    with pytest.raises(ElementNotInGroup):
        b3.mult.locate([0, 0, 0])


# Coxeter diagrams of the Cartan-built groups and of B, as the label m_ij of
# each edge (i, j) of generator positions; no edge means m_ij = 2
DIAGRAM_EDGES = {
    "A": lambda n: {(i, i + 1): 3 for i in range(n - 1)},
    "B": lambda n: {(0, 1): 4} | {(i, i + 1): 3 for i in range(1, n - 1)},
    "H3": lambda n: {(0, 1): 5, (1, 2): 3},
    "F4": lambda n: {(0, 1): 3, (1, 2): 4, (2, 3): 3},
}


def expected_pair_order(spec, i, j):
    """The order of s_i s_j (i < j) for the catalog generators.  For D,
    I2 and G(e,e,n) the generators are t, s_1, ..., s_{n-1}: t s_1 has
    order e, t and s_1 each braid with s_2, adjacent s_i braid, and every
    other pair commutes."""
    if spec.family in ("D", "I2", "G"):
        if (i, j) == (0, 1):
            return 2 if spec.family == "D" else spec.e
        return 3 if j == i + 1 or (i, j) == (0, 2) else 2
    return DIAGRAM_EDGES[spec.family](spec.n).get((i, j), 2)


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.label)
def test_generators_are_reflections_with_the_diagram_orders(spec):
    g = build_group(spec)
    assert len(g.generators) == g.n
    assert set(g.generators) <= set(g.reflections)
    assert g.coxeter == g.product(*g.generators)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            pair = g.product(g.generators[i], g.generators[j])
            assert g.element_order(pair) == expected_pair_order(spec, i, j)


def plain_regularity_check(group, w):
    """Reference: the zeta_h-eigenspace of w tested against the hyperplane
    of every reflection, one exact containment test each."""
    big_m = lcm(group.conductor, group.h)
    mat = group.matrices[w].embed(big_m)
    eigenspace = kernel(mat.minus_scalar(CycNum.zeta(big_m, big_m // group.h)))
    if eigenspace.dim == 0:
        return False
    for r in group.reflections:
        hyper = group.fixed_space(r)
        lifted = Subspace(hyper.n, big_m,
                          [[e.embed(big_m) for e in v] for v in hyper.basis])
        if lifted.contains_subspace(eigenspace):
            return False
    return True


# B5 and G(3,3,5) lift to the conductors lcm(m, h) = 10 and 12
@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_regularity_check_matches_all_reflection_loop(spec):
    g = build_group(spec)
    assert g.coxeter_regularity_check() is True
    for w in [g.coxeter, g.identity] + g.class_reps.tolist():
        assert g.coxeter_regularity_check(w) == plain_regularity_check(g, w)


@pytest.mark.parametrize("spec,d", [
    (GroupSpec("A", 3), 2), (GroupSpec("B", 3), 2), (GroupSpec("D", 4), 2),
    (GroupSpec("H3", 3), 2), (GroupSpec("G", 3, 3), 3),
], ids=lambda v: v.label if isinstance(v, GroupSpec) else str(v))
def test_regularity_check_matches_all_reflection_loop_for_zeta_d(spec, d):
    """On the catalog, a zeta_h-eigenspace that is not zero avoids every
    hyperplane, so only another root of unity tests the hyperplanes: for
    d = 2 the (-1)-eigenspace of a reflection is its root line, which lies
    in the hyperplane of every other reflection commuting with it."""
    g = ReflectionGroup(spec)
    g.h = d  # both checks read zeta_h from the group
    inside = 0
    for w in g.class_reps.tolist():
        expected = plain_regularity_check(g, w)
        assert g.coxeter_regularity_check(w) == expected
        big_m = lcm(g.conductor, d)
        eigen = g.matrices[w].embed(big_m).minus_scalar(
            CycNum.zeta(big_m, big_m // d))
        inside += kernel(eigen).dim > 0 and not expected
    assert inside > 0


@pytest.mark.parametrize("drop", [0, -1])
def test_regularity_check_refuses_a_conjugate_missing_from_the_reflections(
        drop):
    g = ReflectionGroup(GroupSpec("A", 3))
    g.reflections = np.delete(g.reflections, drop)
    with pytest.raises(CoxeterValidationFailed, match="not a reflection"):
        g.coxeter_regularity_check()


def test_build_runs_one_hyperplane_test_per_reflection_class_and_no_field_arithmetic(
        monkeypatch):
    calls = {"kernel": 0, "CycNum": 0, "apply": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cyclo_module, "kernel",
                        counted("kernel", cyclo_module.kernel))
    monkeypatch.setattr(CycNum, "__init__",
                        counted("CycNum", CycNum.__init__))
    monkeypatch.setattr(Matrix, "apply", counted("apply", Matrix.apply))
    tested = []
    rank_one = ReflectionGroup._rank_one

    def recorded(self, ws):
        tested.append(np.array(ws))
        return rank_one(self, ws)

    monkeypatch.setattr(ReflectionGroup, "_rank_one", recorded)
    classes = {}
    for spec in catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)]:
        del tested[:]
        g = ReflectionGroup(spec, order_cap=order_of(spec))
        reps = g.class_reps[g.fixed_dim[g.class_reps] == g.n - 1]
        assert len(tested) == 1, spec.label
        assert np.array_equal(tested[0], reps), spec.label
        classes[spec.label] = len(reps)
    assert calls == {"kernel": 0, "CycNum": 0, "apply": 0}
    assert sum(classes[s.label] for s in catalog_specs()) == 33
    assert (classes["B5"], classes["G(3,3,5)"]) == (2, 1)


ORACLE_SPECS = WIDE_SPECS + [parse_spec("I2:30"), parse_spec("H4")]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label)
def test_rank_one_minors_match_the_exact_fixed_space(spec):
    """w - 1 has rank 1 by its 2x2 minors exactly when Ker(w - 1) is a
    hyperplane by the exact kernel, on every class representative: the
    identity (rank 0), reflections, and elements of rank 2 or more."""
    g = ReflectionGroup(spec, order_cap=order_of(spec))
    reps = g.class_reps
    got = g._rank_one(reps)
    expected = [g.fixed_space(w).dim == g.n - 1 for w in reps.tolist()]
    assert got.tolist() == expected
    assert not got[reps == g.identity].any()
    assert got.sum() == len(np.unique(g.class_id[g.reflections]))


@pytest.mark.parametrize("spec", [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
                         ids=lambda s: s.label)
def test_inverse_rows_match_argsort(spec):
    g = build_group(spec)
    # row w of argsort(perms) is the inverse permutation of w
    expected = g.mult.locate(np.argsort(g.mult.perms, axis=1)[:, :g.n])
    elements = np.arange(g.size)
    inverses = g.inverse(elements)
    assert inverses.dtype == expected.dtype
    assert np.array_equal(inverses, expected)
    assert np.array_equal(g.mult[elements, inverses],
                          np.full(g.size, g.identity))
    # any shape in, the same shape out; an int gives one int32
    assert np.array_equal(g.inverse(elements[:6].reshape(2, 3)),
                          expected[:6].reshape(2, 3))
    assert type(g.inverse(5)) is np.int32 and g.inverse(5) == expected[5]
    with pytest.raises(ElementNotInGroup):
        g.inverse(np.array([0, g.size]))
    assert not hasattr(g, "inv")  # no |W| inverse table is kept


@pytest.mark.parametrize("fixture", ["b3", "g333"])
def test_product_view_broadcasts_and_agrees_with_product(fixture, request):
    g = request.getfixturevalue(fixture)
    rng = np.random.default_rng(0)
    a = rng.integers(0, g.size, 40)
    b = rng.integers(0, g.size, 40)
    pairs = g.mult[a, b]
    assert pairs.tolist() == [g.product(x, y) for x, y in zip(a, b)]
    table = g.mult[np.ix_(a, b)]
    assert table.shape == (40, 40)
    assert (np.diagonal(table) == pairs).all()
    assert (g.mult[a[:, None], b[None, :]] == table).all()
    rows = g.mult[np.ix_(a[:3], np.arange(g.size))]
    assert (g.mult[a[:3, None], np.arange(g.size)] == rows).all()
    index = {m.key(): i for i, m in enumerate(g.matrices)}
    for x, y in zip(a[:5].tolist(), b[:5].tolist()):
        assert int(g.mult[x, y]) == g.product(x, y)
        # the index convention agrees with exact matrix products
        assert index[(g.matrices[x] @ g.matrices[y]).key()] \
            == g.product(x, y)


def _held_objects(*roots):
    """Every numpy array, list, tuple and dict reachable from the roots
    through instance attributes, lists, tuples and dicts."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (np.ndarray, dict, list, tuple)):
            found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.fixture(scope="module")
def b5_held():
    g = ReflectionGroup(GroupSpec("B", 5))
    return g, _held_objects(g, build_ncp(g))


def test_no_quadratic_array_held_by_b5_group_or_lattice(b5_held):
    g, held = b5_held
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert any(a.size >= g.size for a in arrays)  # the walk sees the store
    assert max(a.size for a in arrays) < g.size ** 2
    assert g.mult.nbytes < 100_000


def test_no_python_container_of_w_size_held_by_b5_group_or_lattice(b5_held):
    # elements are stored once, as numpy rows; a list, tuple or dict with
    # an entry per element would be a second store, and so would many
    # containers that together hold an entry per element
    g, held = b5_held
    containers = [len(c) for c in held if not isinstance(c, np.ndarray)]
    assert containers and max(containers) < g.size
    assert sum(containers) < g.size


def _bfs_components(size, pairs):
    """Least node of each node's component, by plain breadth-first search
    over the (a, b) pairs."""
    neighbours = [[] for _ in range(size)]
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    label = [None] * size
    for root in range(size):
        if label[root] is None:
            label[root], queue = root, [root]
            for node in queue:
                for other in neighbours[node]:
                    if label[other] is None:
                        label[other] = root
                        queue.append(other)
    return label


@settings(max_examples=150, deadline=None)
@example((4, []))                       # no edge lists at all (A1's 1-tuples)
@example((3, [[]]))                     # one empty edge list
@example((5, [[(2, 2), (0, 3)]]))       # a self-loop; 1 and 4 isolated
@given(st.integers(1, 40).flatmap(lambda size: st.tuples(
    st.just(size),
    st.lists(st.lists(st.tuples(st.integers(0, size - 1),
                                st.integers(0, size - 1)), max_size=30),
             max_size=3))))
def test_components_match_breadth_first_search(case):
    size, edge_lists = case
    edges = [(np.array([a for a, _ in pairs], dtype=np.int64),
              np.array([b for _, b in pairs], dtype=np.int64))
             for pairs in edge_lists]
    assert (group_module.components(size, edges).tolist()
            == _bfs_components(size, [p for pairs in edge_lists
                                      for p in pairs]))


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
def test_powers_match_repeated_products(spec):
    g = build_group(spec)
    for w in range(g.size):
        acc = g.identity
        for images in g.powers(w):
            assert images == g.mult.perms[acc, :g.n].tolist()
            acc = g.product(acc, w)
        assert acc == g.identity
        assert g.element_order(w) == len(g.powers(w))


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
def test_word_lengths_of_reflections_are_the_length_table(spec):
    # the build's lengths, level by level on classes, against the
    # breadth-first search over elements
    g = build_group(spec)
    assert g.length.dtype == np.int32
    assert (word_lengths(g, g.reflections) == g.length).all()
    assert (word_lengths(g, g.generators) >= 0).all()
    only_identity = word_lengths(g, [])
    assert only_identity[g.identity] == 0
    assert np.count_nonzero(only_identity >= 0) == 1


def test_codes_that_overflow_64_bits_are_refused(monkeypatch):
    monkeypatch.setattr(group_module, "_CODE_LIMIT", 1)
    with pytest.raises(OrderCapExceeded):
        ReflectionGroup(GroupSpec("A", 2))


def exact_vector_orbit(spec, gens=None):
    """Reference: the orbit of e_1..e_n under the exact generators
    (default: `exact_generators(spec)`) by `Matrix.apply`, breadth-first
    with the generators in order, and each generator's permutation of
    it."""
    gens = exact_generators(spec) if gens is None else gens
    m = conductor_of(spec)
    one, zero = CycNum.one(m), CycNum.zero(m)
    vectors = [tuple(one if i == j else zero for i in range(spec.n))
               for j in range(spec.n)]
    index = {v: i for i, v in enumerate(vectors)}
    perms = [[] for _ in gens]
    for v in vectors:
        for g, perm in zip(gens, perms):
            image = g.apply(v)
            if image not in index:
                index[image] = len(vectors)
                vectors.append(image)
            perm.append(index[image])
    return vectors, perms


def vectors_of_coords(group):
    """V as tuples of `CycNum`, read back from the integer coordinates."""
    return [tuple(CycNum(group.conductor, tuple(map(Fraction, x))) for x in v)
            for v in group.coords.tolist()]


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_integer_orbit_matches_exact_orbit(spec):
    g = build_group(spec)
    vectors, perms = exact_vector_orbit(spec)
    assert vectors_of_coords(g) == vectors
    for s, perm in zip(g.generators, perms):
        assert g.mult.perms[s].tolist() == perm


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.label)
def test_fixed_dim_is_the_fixed_space_dimension(spec):
    g = build_group(spec)
    for w in g.class_reps.tolist():
        assert g.fixed_dim[w] == g.fixed_space(w).dim


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3),
                               GroupSpec("I2", 2, 105)],
    ids=lambda s: s.label)
def test_fixed_dims_match_one_walk_per_class(spec):
    g = build_group(spec)
    dims, orders = g._fixed_dims()
    assert dims.dtype == np.int32
    assert np.array_equal(dims, per_class_fixed_dims(g))
    assert orders.tolist() == [len(g.powers(w)) for w in g.class_reps]
    assert np.array_equal(orders, g.class_order)


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
def test_conjugation_by_one_gather_matches_two_lookups(spec):
    """The classes, and the conjugates of the reflections by c (which the
    regularity check reads) and by each generator, against conjugation by
    two `mult` lookups."""
    g = build_group(spec)
    class_id, class_reps = two_lookup_classes(g)
    assert np.array_equal(g.class_id, class_id)
    assert np.array_equal(g.class_reps, class_reps)
    for w in [g.coxeter] + g.generators:
        assert np.array_equal(g._conjugates(w, g.reflections),
                              two_lookup_conjugates(g, w, g.reflections))


def test_fixed_dims_refuse_a_trace_sum_that_is_no_dimension(monkeypatch):
    """One coordinate of a vector outside the basis shifted: the walk
    names the same first class whose character average fails as the
    per-class loop does, and it is not the identity's."""
    g = ReflectionGroup(GroupSpec("H3", 3))
    coords = g.coords.copy()
    coords[g.n, 0, 1] += 1
    monkeypatch.setattr(g, "coords", coords)
    with pytest.raises(CoxeterValidationFailed) as walk:
        g._fixed_dims()
    with pytest.raises(CoxeterValidationFailed) as loop:
        per_class_fixed_dims(g)
    assert str(walk.value) == str(loop.value)
    assert f"element {g.identity} " not in str(walk.value)


@pytest.mark.parametrize("spec,largest", [
    (GroupSpec("H3", 3), 2),     # golden-ratio coordinates
    (GroupSpec("F4", 4), 4),     # the roots in the simple-root basis
], ids=lambda v: v.label if isinstance(v, GroupSpec) else str(v))
def test_coordinates_give_back_the_vector_orbit(spec, largest):
    g = build_group(spec)
    vectors, _ = exact_vector_orbit(spec)
    assert g.coords.dtype == np.int64
    assert g.coords.shape == (len(vectors), g.n, len(vectors[0][0].coeffs))
    assert np.abs(g.coords).max() == largest
    assert vectors_of_coords(g) == vectors


def rational_matrix(rows):
    return Matrix(len(rows), 1, [[CycNum.from_rational(1, v) for v in row]
                                 for row in rows])


def conjugated_generators(spec, t):
    """The int64 generators of a spec over Q, conjugated by the unimodular
    [[1, t], [0, 1]] in Python ints, so no product wraps."""
    u = np.array([[1, t], [0, 1]], dtype=object)
    u_inv = np.array([[1, -t], [0, 1]], dtype=object)
    return [np.array(u @ g.astype(object) @ u_inv, dtype=np.int64)
            for g in generators_of(spec)]


def test_coordinates_too_large_for_int64_sums_are_refused(monkeypatch):
    # conjugating by a unimodular matrix keeps the entries integers, but
    # V then holds coordinates near 2^62, whose 6-fold sums leave int64
    spec = GroupSpec("A", 2)
    gens = conjugated_generators(spec, 2 ** 31)
    monkeypatch.setattr(group_module, "generators_of", lambda _: gens)
    with pytest.raises(OrderCapExceeded, match="64 bits"):
        ReflectionGroup(spec)


def test_coordinates_too_large_for_the_regularity_sums_are_refused(
        monkeypatch):
    # coordinates near 2^60 pass the bound "coordinate x |W| fits in
    # int64", but not "coordinate x table entry x |W| x 2 phi(m)", which
    # bounds the sums of the zeta_3-projector (A2: table entries 0 and
    # +-1, phi(1) = 1)
    spec = GroupSpec("A", 2)
    gens = conjugated_generators(spec, 2 ** 30)
    vectors, _ = exact_vector_orbit(
        spec, [rational_matrix(g.tolist()) for g in gens])
    largest = max(abs(c) for v in vectors for x in v for c in x.coeffs)
    limit = np.iinfo(np.int64).max
    assert largest * 6 <= limit < largest * 6 * 2
    monkeypatch.setattr(group_module, "generators_of", lambda _: gens)
    with pytest.raises(OrderCapExceeded, match="64 bits"):
        ReflectionGroup(spec)


def test_coordinates_too_large_for_the_hyperplane_minors_are_refused(
        monkeypatch):
    # coordinates of 33 bits pass the bounds of the codes and of the
    # regularity sums, but a product of two of them, in a 2x2 minor of
    # r - 1, does not fit in int64 (A2: phi(1) = 1, table entry 1)
    spec = GroupSpec("A", 2)
    gens = conjugated_generators(spec, 2 ** 16)
    vectors, _ = exact_vector_orbit(
        spec, [rational_matrix(g.tolist()) for g in gens])
    largest = max(abs(c) for v in vectors for x in v for c in x.coeffs)
    limit = np.iinfo(np.int64).max
    assert largest * 6 * 2 <= limit < 2 * (largest + 1) ** 2
    monkeypatch.setattr(group_module, "generators_of", lambda _: gens)
    with pytest.raises(OrderCapExceeded, match="64 bits"):
        ReflectionGroup(spec)


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
def test_product_view_in_tiny_chunks_matches_one_gather(spec, monkeypatch):
    g = build_group(spec)
    monkeypatch.setattr(group_module, "_CHUNK", 7)
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, g.size, 40), rng.integers(0, g.size, 40)
    keys = [
        (int(a[0]), int(b[0])),                     # 0-d
        (a, b),                                     # 1-d
        (a[:5], int(b[1])),                         # 1-d by 0-d
        np.ix_(a, b[:37]),                          # 40 x 37
        (np.array(g.generators)[:, None], b),       # a frontier product
        (a[:0], b[:0]),                             # empty
    ]
    for x, y in keys:
        got = g.mult[x, y]
        expected = unchunked_products(g, x, y)
        assert got.dtype == np.int32 and got.shape == expected.shape
        assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "spec", WIDE_SPECS + [GroupSpec("I2", 2, 30), GroupSpec("I2", 2, 105)],
    ids=lambda s: s.label)
def test_integer_columns_match_exact_products(spec):
    """Each catalog generator's nonzero columns are those of the exact
    generator, multiplied out entry by entry in Q(zeta_m)."""
    m, phi = conductor_of(spec), euler_phi(conductor_of(spec))
    gens = generators_of(spec)
    exact = exact_generators(spec)
    assert len(gens) == len(exact)
    for gen, exact_gen in zip(gens, exact):
        assert gen.dtype == np.int64
        assert gen.shape == (spec.n * phi, spec.n * phi)
        columns = [[(row, int(col[row])) for row in np.flatnonzero(col)]
                   for col in gen.T]
        assert columns == product_integer_columns(exact_gen, spec.n, m, phi)


def test_closure_with_an_order_3_generator_is_refused():
    """S3 = I2(3) generated by a rotation of order 3 and a reflection: the
    premise that every generator is a reflection of order 2 fails, and the
    closure ends in a typed error however large its cap, never in a
    group."""
    g = build_group(GroupSpec("I2", 2, 3))
    s1, s2 = g.generators
    rotation = g.product(s1, s2)
    assert g.element_order(rotation) == 3
    gen_perms = g.mult.perms[[rotation, s2]]
    for cap in (2 * g.size, 1000):
        with pytest.raises((OrderCapExceeded, CoxeterValidationFailed)):
            ReflectionGroup._closure(gen_perms, g.mult.radix, cap)
    # with the identity as a generator the levels end, holding repeats
    with pytest.raises(CoxeterValidationFailed, match="twice"):
        ReflectionGroup._closure(g.mult.perms[[g.identity, s1]],
                                 g.mult.radix, 1000)


def test_build_with_an_order_3_generator_is_refused(monkeypatch):
    spec = GroupSpec("I2", 2, 3)
    g0, g1 = generators_of(spec)
    gens = [g0 @ g1, g1]          # a rotation of order 3 and a reflection
    monkeypatch.setattr(group_module, "generators_of", lambda _: gens)
    with pytest.raises((OrderCapExceeded, CoxeterValidationFailed)):
        ReflectionGroup(spec)
