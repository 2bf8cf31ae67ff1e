"""Lattice structure of NCP: axioms, Brady-Watt flats, rank function."""

import copy
import gc
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import ncpforge
from ncpforge.catalog import GroupSpec, catalog_specs
from ncpforge.errors import (
    ElementNotInGroup,
    MeetJoinMissing,
    NonIntegralCount,
    OrderCapExceeded,
)
from ncpforge import ncp as ncp_module
from ncpforge.group import ReflectionGroup, build_group
from ncpforge.ncp import NcpLattice, build_ncp, fuss_catalan
from conftest import fixed_spaces_meet_in


def test_fuss_catalan_values():
    assert fuss_catalan((2, 3, 4), 1) == 14      # Catalan of rank 3, h=4
    assert fuss_catalan((2, 6, 10), 1) == 32
    assert fuss_catalan((2, 6, 8, 12), 1) == 105
    assert fuss_catalan((2, 3), 2) == 12


def test_integrality_check_survives_optimised_interpreter():
    src = os.path.dirname(os.path.dirname(ncpforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from ncpforge.ncp import fuss_catalan; fuss_catalan((3, 5), 1)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "NonIntegralCount" in proc.stderr


def test_bottom_and_top(a3_ncp, a3):
    assert a3_ncp.members[a3_ncp.bottom] == a3.identity
    assert a3_ncp.members[a3_ncp.top] == a3.coxeter
    assert a3_ncp.rank[a3_ncp.bottom] == 0
    assert a3_ncp.rank[a3_ncp.top] == a3.n


def test_rank_is_codimension(b3_ncp, b3):
    for i, w in enumerate(b3_ncp.members):
        assert b3_ncp.rank[i] == b3.n - b3.fixed_dim[w]


def test_non_member_rejected(a3_ncp, a3):
    outside = next(w for w in range(a3.size) if a3_ncp.position[w] < 0)
    with pytest.raises(ElementNotInGroup):
        a3_ncp.member_index(outside)


@pytest.mark.parametrize("fixture", ["a3_ncp", "g333_ncp"])
def test_meet_join_axioms_exhaustive(fixture, request):
    ncp = request.getfixturevalue(fixture)
    ms = ncp.members

    def leq(u, v):
        return ncp.leq[ncp.position[u], ncp.position[v]]

    for u in ms:
        assert ncp.meet(u, u) == u and ncp.join(u, u) == u
        for v in ms:
            m, j = ncp.meet(u, v), ncp.join(u, v)
            assert m == ncp.meet(v, u)
            assert j == ncp.join(v, u)
            assert leq(m, u) and leq(m, v)
            assert leq(u, j) and leq(v, j)
            # absorption
            assert ncp.meet(u, j) == u
            assert ncp.join(u, m) == u


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_meet_join_associative(b3_ncp, data):
    ms = b3_ncp.members
    u = ms[data.draw(st.integers(0, len(ms) - 1))]
    v = ms[data.draw(st.integers(0, len(ms) - 1))]
    w = ms[data.draw(st.integers(0, len(ms) - 1))]
    assert b3_ncp.meet(b3_ncp.meet(u, v), w) == b3_ncp.meet(u, b3_ncp.meet(v, w))
    assert b3_ncp.join(b3_ncp.join(u, v), w) == b3_ncp.join(u, b3_ncp.join(v, w))


@pytest.mark.parametrize("spec", [GroupSpec("A", 3), GroupSpec("B", 3),
                                  GroupSpec("G", 3, 3), GroupSpec("I2", 2, 5),
                                  GroupSpec("H3", 3)],
                         ids=lambda s: s.label)
def test_brady_watt_flats(spec):
    """w -> Ker(w-1) is injective and turns <= into reverse inclusion."""
    ncp = build_ncp(build_group(spec))
    flats = [ncp.group.fixed_space(w) for w in ncp.members]
    assert len(set(flats)) == ncp.size
    for i in range(ncp.size):
        for j in range(ncp.size):
            assert bool(ncp.leq[i, j]) == flats[i].contains_subspace(flats[j])


@pytest.mark.parametrize("fixture", ["a3_ncp", "b3_ncp", "g333_ncp"])
def test_kernel_decomposition_when_lengths_add(fixture, request):
    """u <= v  =>  Ker(v-1) = Ker(u-1) /\\ Ker((u^{-1}v)-1)."""
    ncp = request.getfixturevalue(fixture)
    group = ncp.group
    for i, u in enumerate(ncp.members):
        for j, v in enumerate(ncp.members):
            if not ncp.leq[i, j]:
                continue
            quotient = group.product(group.inverse(u), v)
            assert fixed_spaces_meet_in(group, u, quotient, v)


def test_multichain_count_matches_fuss_catalan(a3_ncp, a3):
    for chain_length in range(1, 5):
        assert a3_ncp.multichain_count(chain_length) == \
            fuss_catalan(a3.degrees, chain_length)
    with pytest.raises(ValueError):
        a3_ncp.multichain_count(0)


def test_multichain_count_is_exact_in_int64_or_refused():
    """int64 chain steps stay exact up to N = 1000 on A5; a chain length
    whose counts would wrap raises instead of returning a wrong number."""
    group = build_group(GroupSpec("A", 5))
    ncp = build_ncp(group)
    assert ncp.multichain_count(1000) == fuss_catalan(group.degrees, 1000)
    with pytest.raises(OrderCapExceeded, match="64 bits"):
        ncp.multichain_count(10 ** 6)
    with pytest.raises(OrderCapExceeded, match="64 bits"):
        ncp.multichain_counts(10 ** 6)


@pytest.mark.parametrize("spec", [GroupSpec("A", 3), GroupSpec("B", 3),
                                  GroupSpec("H3", 3), GroupSpec("G", 3, 3)],
                         ids=lambda s: s.label)
def test_multichain_counts_match_one_length_at_a_time(spec):
    ncp = build_ncp(build_group(spec))
    assert ncp.multichain_counts(6) == \
        [ncp.multichain_count(n) for n in range(1, 7)]
    with pytest.raises(ValueError):
        ncp.multichain_counts(0)


def test_divisors_and_reflections_below(b3_ncp, b3):
    c = b3.coxeter
    below_c = b3_ncp.leq[:, b3_ncp.member_index(c)]
    assert np.nonzero(below_c)[0].tolist() == list(range(b3_ncp.size))
    rank1 = b3_ncp.rank == 1
    below = b3_ncp.members[below_c & rank1].tolist()
    assert below == sorted(b3.reflections)
    r = b3_ncp.member_index(below[0])
    assert np.nonzero(b3_ncp.leq[:, r] & rank1)[0].tolist() == [r]


def test_self_duality_of_rank_counts(a3_ncp, a3):
    # complement w -> w^{-1} c is a rank-reversing bijection of NCP
    counts = {}
    for i in range(a3_ncp.size):
        counts[int(a3_ncp.rank[i])] = counts.get(int(a3_ncp.rank[i]), 0) + 1
    assert all(counts[k] == counts[a3.n - k] for k in counts)


def per_pair_missing(ncp, joins=True) -> int:
    """The lattice check as one meet and (unless `joins` is false) one
    join query per pair."""
    missing = 0
    for i in range(ncp.size):
        for j in range(i, ncp.size):
            try:
                ncp.meet(ncp.members[i], ncp.members[j])
                if joins:
                    ncp.join(ncp.members[i], ncp.members[j])
            except MeetJoinMissing:
                missing += 1
    return missing


@pytest.mark.parametrize("spec", [GroupSpec("A", 3), GroupSpec("B", 3),
                                  GroupSpec("H3", 3), GroupSpec("I2", 2, 5),
                                  GroupSpec("G", 3, 3)],
                         ids=lambda s: s.label)
def test_missing_meets_joins_matches_per_pair_queries(spec):
    ncp = build_ncp(build_group(spec))
    assert ncp.missing_meets_joins() == per_pair_missing(ncp) == 0


def row_pass_missing(ncp, joins=True) -> int:
    """The lattice check as one whole-array pass per row i: the common
    lower bounds of i and every j >= i, the one of greatest rank (first in
    index order), and whether some bound is not below it; joins dually,
    unless `joins` is false."""
    leq, rank = ncp.leq, ncp.rank
    below_all, above_all = rank.min() - 1, rank.max() + 1
    missing = 0
    for i in range(ncp.size):
        # lower[k, j]: k <= i and k <= j, for the columns j >= i
        lower = leq[:, i:] & leq[:, i, None]
        best = np.argmax(np.where(lower, rank[:, None], below_all), axis=0)
        bad = ~lower.any(axis=0) | (lower & ~leq[:, best]).any(axis=0)
        if joins:
            # upper[j, k]: i <= k and j <= k, for the rows j >= i
            upper = leq[i:, :] & leq[i]
            best = np.argmin(np.where(upper, rank, above_all), axis=1)
            bad |= ~upper.any(axis=1) | (upper & ~leq[best, :]).any(axis=1)
        missing += int(np.count_nonzero(bad))
    return missing


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_packed_lattice_check_matches_row_pass(spec):
    ncp = build_ncp(build_group(spec))
    assert ncp.missing_meets_joins() == row_pass_missing(ncp) == 0


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_packed_lattice_check_in_tiny_chunks_matches_row_pass(
        spec, monkeypatch):
    ncp = build_ncp(build_group(spec))
    monkeypatch.setattr(ncp_module, "_PAIR_CHUNK", 7)
    assert ncp.missing_meets_joins() == row_pass_missing(ncp) == 0


def test_bowtie_in_tiny_chunks(monkeypatch):
    monkeypatch.setattr(ncp_module, "_PAIR_CHUNK", 2)
    bowtie = hand_built_order(
        [0, 1, 1, 2, 2, 3],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    assert bowtie.missing_meets_joins() \
        == row_pass_missing(bowtie, joins=False) == 1


def hand_built_order(rank, covers) -> NcpLattice:
    """A lattice object over an arbitrary ranked order: members 0..len-1,
    leq the reflexive-transitive closure of the (lower, upper) covers."""
    size = len(rank)
    leq = np.eye(size, dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for k in range(size):
        leq |= leq[:, k, None] & leq[k]
    ncp = NcpLattice.__new__(NcpLattice)
    ncp.group = SimpleNamespace(spec=SimpleNamespace(label="hand-built"))
    ncp.members = np.arange(size, dtype=np.int32)
    ncp.position = ncp.members
    ncp.size = size
    ncp.rank = np.array(rank, dtype=np.int32)
    ncp.leq = leq
    return ncp


def test_missing_meets_joins_detects_a_bowtie():
    # bottom 0; a = 1 and b = 2 both below c = 3 and d = 4; top 5: a and b
    # have no join, c and d no meet.  The count is of meets: the missing
    # join cannot occur without a missing meet (see the theorem test)
    bowtie = hand_built_order(
        [0, 1, 1, 2, 2, 3],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    assert graded_with_top(bowtie)
    assert bowtie.missing_meets_joins() \
        == per_pair_missing(bowtie, joins=False) == 1
    assert per_pair_missing(bowtie) == 2


def test_meet_without_lower_bound_is_missing():
    # two minimal elements and no bottom: the candidate set is empty
    vee = hand_built_order([0, 0, 1], [(0, 2), (1, 2)])
    with pytest.raises(MeetJoinMissing):
        vee.meet(0, 1)
    assert vee.join(0, 1) == 2
    assert vee.missing_meets_joins() == per_pair_missing(vee) == 1


@st.composite
def ranked_orders(draw):
    """A hand-built order on up to 20 members (so up to three bytes of
    bits, with padding), ranks drawn freely, so that members of equal rank
    are often incomparable, and covers (a, b) only where (rank, index)
    increases, so that equal-rank members can also be comparable."""
    size = draw(st.integers(1, 20))
    rank = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                     st.integers(0, size - 1)),
                          max_size=3 * size))
    covers = [(a, b) for a, b in pairs if (rank[a], a) < (rank[b], b)]
    return hand_built_order(rank, covers)


@settings(max_examples=300, deadline=None)
@given(ranked_orders())
def test_packed_lattice_check_matches_references_on_any_order(order):
    assert order.missing_meets_joins() \
        == row_pass_missing(order, joins=False) \
        == per_pair_missing(order, joins=False)


def prime_factor_count(number: int) -> int:
    """The number of prime factors of a positive number, with
    multiplicity."""
    count, p = 0, 2
    while number > 1:
        while number % p == 0:
            number //= p
            count += 1
        p += 1
    return count


@st.composite
def graded_orders_with_top(draw):
    """A hand-built order in which rank strictly increases along every
    strict relation and one member lies above all: either the divisors of
    a number under divisibility, ranked by the number of prime factors (a
    lattice), or covers drawn only where rank increases under an added
    top (often no lattice)."""
    if draw(st.booleans()):
        number = draw(st.integers(1, 720))
        divisors = [d for d in range(1, number + 1) if number % d == 0]
        rank = [prime_factor_count(d) for d in divisors]
        covers = [(a, b) for a, x in enumerate(divisors)
                  for b, y in enumerate(divisors) if x != y and y % x == 0]
        return hand_built_order(rank, covers)
    size = draw(st.integers(1, 18))
    rank = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                     st.integers(0, size - 1)),
                          max_size=3 * size))
    covers = [(a, b) for a, b in pairs if rank[a] < rank[b]]
    covers += [(a, size) for a in range(size)]
    return hand_built_order(rank + [5], covers)


def graded_with_top(order) -> bool:
    """Whether some member lies above all, and rank x < rank y for every
    x <= y other than x = y: the premises under which a pass over the
    meets alone decides the lattice property."""
    leq, rank = order.leq, order.rank
    strict = np.count_nonzero(leq & (rank[:, None] < rank))
    return (bool(leq.all(axis=0).any())
            and strict + np.count_nonzero(leq.diagonal())
            == np.count_nonzero(leq))


@settings(max_examples=300, deadline=None)
@given(graded_orders_with_top())
def test_meet_pass_alone_matches_references_on_graded_orders(order):
    """A finite meet-semilattice with a top is a lattice: on a strictly
    graded order with a top, no meet is missing exactly when no meet and
    no join is, and the count is that of the missing meets."""
    assert graded_with_top(order)
    count = order.missing_meets_joins()
    assert count == row_pass_missing(order, joins=False) \
        == per_pair_missing(order, joins=False)
    assert (count == 0) == (row_pass_missing(order) == 0) \
        == (per_pair_missing(order) == 0)


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_every_ncp_lattice_is_graded_with_a_top(spec):
    """The premises of the meet-only check hold on every built lattice:
    c lies above all members, and rank strictly increases along every
    strict relation."""
    ncp = build_ncp(build_group(spec))
    assert graded_with_top(ncp)
    assert ncp.leq[:, ncp.top].all()


def test_a_cleared_order_entry_is_counted_as_missing_meets(b3_ncp):
    """A copy of B3's lattice with the bottom no longer below one atom:
    that atom and each other atom have no common lower bound, so their
    meets go missing and the count finds exactly the reference's pairs."""
    broken = copy.copy(b3_ncp)
    broken.leq = b3_ncp.leq.copy()
    atom = int(np.flatnonzero(b3_ncp.rank == 1)[0])
    broken.leq[b3_ncp.bottom, atom] = False
    count = broken.missing_meets_joins()
    assert count > 0
    assert count == per_pair_missing(broken, joins=False) \
        == row_pass_missing(broken, joins=False)
    assert b3_ncp.missing_meets_joins() == 0


def count_no_extreme_calls(order, monkeypatch) -> int:
    calls = []
    real = ncp_module._no_extreme

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ncp_module, "_no_extreme", counted)
    order.missing_meets_joins()
    monkeypatch.setattr(ncp_module, "_no_extreme", real)
    return len(calls)


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_lattice_check_on_ncp_is_the_meet_pass_alone(spec, monkeypatch):
    ncp = build_ncp(build_group(spec))
    pairs = ncp.size * (ncp.size + 1) // 2
    chunks = -(-pairs // ncp_module._PAIR_CHUNK)
    assert count_no_extreme_calls(ncp, monkeypatch) == chunks


def test_lattice_is_cached_on_its_group_and_freed_with_it():
    refs = []
    for _ in range(3):
        group = ReflectionGroup(GroupSpec("B", 3))
        ncp = build_ncp(group)
        assert build_ncp(group) is ncp
        refs.append(weakref.ref(group))
    del group, ncp
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


@pytest.mark.parametrize("spec", [GroupSpec("A", 3), GroupSpec("B", 3),
                                  GroupSpec("H3", 3), GroupSpec("D", 4),
                                  GroupSpec("I2", 2, 5), GroupSpec("G", 3, 3)],
                         ids=lambda s: s.label)
def test_tables_are_products_in_w(spec):
    """q, prod and rq against one `group.product` per entry: q and rq hold
    a member on exactly the pairs of the order and -1 off it, prod a
    member exactly where the product divides c with lengths adding."""
    group = build_group(spec)
    ncp = build_ncp(group)
    members = ncp.members.tolist()
    where = {w: k for k, w in enumerate(members)}

    def length(w):
        return int(group.length[w])

    for x, u in enumerate(members):
        for y, v in enumerate(members):
            quotient = group.product(group.inverse(u), v)
            below = length(u) + length(quotient) == length(v)
            assert bool(ncp.leq[x, y]) == below
            right = group.product(v, group.inverse(u))
            assert ncp.q[x, y] == (where[quotient] if below else -1)
            assert ncp.rq[x, y] == (where[right] if below else -1)
            uv = group.product(u, v)
            adds = uv in where and length(uv) == length(u) + length(v)
            assert ncp.prod[x, y] == (where[uv] if adds else -1)
