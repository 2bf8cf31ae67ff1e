"""Group construction invariants and element arithmetic."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpforge.catalog import GroupSpec, degrees_of, order_of, parse_spec
from ncpforge.cyclo import kernel
from ncpforge.errors import (
    ConfigError,
    ElementNotInGroup,
    OrderCapExceeded,
)
from ncpforge.group import ReflectionGroup, build_group
from reference_build import matmul_closure

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
    ("G:3,3,4", "G(3,3,4)"), ("H3", "H3"), ("F4", "F4"),
])
def test_parse_spec_grammar(text, label):
    assert parse_spec(text).label == label


@pytest.mark.parametrize("bad", ["A0", "B1", "D3", "I2:2", "G:2,3,4",
                                 "G:2,2,2", "E6", "x", "I2:x"])
def test_parse_spec_rejects(bad):
    with pytest.raises(ConfigError):
        parse_spec(bad)


def test_order_cap_enforced():
    with pytest.raises(OrderCapExceeded):
        build_group(GroupSpec("F4", 4), order_cap=100)


def test_out_of_range_element_rejected(a3):
    with pytest.raises(ElementNotInGroup):
        a3.reflection_length(a3.size)
    with pytest.raises(ElementNotInGroup):
        a3.element_order(-1)


def test_permutation_round_trip(a3):
    # adjacent transposition is a reflection; the (n+1)-cycle is c
    t = a3.element_from_permutation((2, 1, 3, 4))
    assert a3.reflection_length(t) == 1
    c = a3.element_from_permutation((2, 3, 4, 1))
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
    conj = a3.conjugate(w, v)
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
    assert b3.divides(b3.identity, u)
    assert b3.divides(u, u)


def test_conjugacy_classes_partition(g333):
    sizes = [len(cls) for cls in g333.classes]
    assert sum(sizes) == g333.size
    assert all(g333.class_id[w] == i
               for i, cls in enumerate(g333.classes) for w in cls)


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
    g = build_group(spec)
    matrices, mult = matmul_closure(spec)
    assert [m.key() for m in g.matrices] == [m.key() for m in matrices]
    assert (g.mult == mult).all()
    assert [int(d) for d in g.fixed_dim] == [
        kernel(m.minus_identity()).dim for m in matrices]
