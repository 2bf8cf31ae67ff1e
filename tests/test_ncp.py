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
from ncpforge.group import ProductView, ReflectionGroup, build_group
from ncpforge.ncp import NcpLattice, build_ncp, fuss_catalan
from conftest import fixed_spaces_meet_in
from reference_scans import w_wide_lattice


# the catalog and four groups off it, H4 and E6 beyond the default cap
WIDE_SPECS = catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3),
                                GroupSpec("H4", 4), GroupSpec("E6", 6)]


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


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
def test_packed_lattice_check_matches_row_pass(spec):
    ncp = build_ncp(build_group(spec, order_cap=60000))
    assert ncp.missing_meets_joins() == row_pass_missing(ncp) == 0


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
def test_lattice_matches_the_w_wide_passes(spec):
    """The lattice grown from the identity by its covers is the one that
    the membership test over all of W and the cover pass gave (whose
    tables `prod` and `rq` the lattice no longer keeps)."""
    group = build_group(spec, order_cap=60000)
    ncp = build_ncp(group)
    wide = w_wide_lattice(group)
    for name in ("members", "position", "rank", "bottom", "top", "leq", "q"):
        got, expected = getattr(ncp, name), wide[name]
        assert np.asarray(got).dtype == np.asarray(expected).dtype, name
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("spec", [GroupSpec("B", 5), GroupSpec("H4", 4),
                                  GroupSpec("E6", 6)], ids=lambda s: s.label)
def test_lattice_build_locates_few_codes(spec, monkeypatch):
    """The build resolves at most |NCP| (|R| + 3) + |R| + #covers + |leq|
    codes: one product per member and reflection, one per cover, the
    inverses of the reflections and of the members, and one quotient per
    pair of the order.  A membership pass over all of W takes |W| more."""
    group = build_group(spec, order_cap=60000)
    located = []
    real = ProductView.locate

    def counted(self, images):
        located.append(np.asarray(images).size // group.n)
        return real(self, images)

    monkeypatch.setattr(ProductView, "locate", counted)
    ncp = NcpLattice(group)
    monkeypatch.setattr(ProductView, "locate", real)
    covers = np.count_nonzero(ncp.leq & (ncp.rank[:, None] + 1 == ncp.rank))
    bound = (ncp.size * (len(group.reflections) + 3)
             + len(group.reflections) + covers + np.count_nonzero(ncp.leq))
    assert sum(located) <= bound


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
    # have no join, c and d no meet.  The count is of pairs of covers: a
    # and b cover 0 and have no join; c and d cover both a and b, and 5 is
    # their join
    bowtie = hand_built_order(
        [0, 1, 1, 2, 2, 3],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    assert bounded_and_graded(bowtie)
    assert bowtie.missing_meets_joins() == 1
    assert per_pair_missing(bowtie) == 2


def test_meet_without_lower_bound_is_missing():
    # two minimal elements and no bottom: the candidate set is empty, and
    # the count finds the second minimal member not above the first
    vee = hand_built_order([0, 0, 1], [(0, 2), (1, 2)])
    with pytest.raises(MeetJoinMissing):
        vee.meet(0, 1)
    assert vee.join(0, 1) == 2
    assert vee.missing_meets_joins() == per_pair_missing(vee) == 1


def test_members_not_below_the_top_are_counted():
    # a bottom 0 under two maximal members 1 and 2: the covers 1 and 2 of
    # 0 have no common upper bound, and 1 is not below the last member of
    # greatest rank, 2
    wedge = hand_built_order([0, 1, 1], [(0, 1), (0, 2)])
    with pytest.raises(MeetJoinMissing):
        wedge.join(1, 2)
    assert wedge.missing_meets_joins() == 2


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
def bounded_graded_orders(draw):
    """A hand-built order with a bottom and a top in which every cover
    raises the rank by one: either the divisors of a number under
    divisibility, ranked by the number of prime factors (a lattice), or
    layers of 1 to 4 members between a bottom and a top, each member
    with upper covers drawn in the next layer, and one more added to any
    member without a lower cover (often no lattice)."""
    if draw(st.booleans()):
        number = draw(st.integers(1, 720))
        divisors = [d for d in range(1, number + 1) if number % d == 0]
        rank = [prime_factor_count(d) for d in divisors]
        covers = [(a, b) for a, x in enumerate(divisors)
                  for b, y in enumerate(divisors) if x != y and y % x == 0]
        return hand_built_order(rank, covers)
    widths = [1] + draw(st.lists(st.integers(1, 4), min_size=1,
                                 max_size=4)) + [1]
    rank = [r for r, width in enumerate(widths) for _ in range(width)]
    layers = [[m for m, r in enumerate(rank) if r == k]
              for k in range(len(widths))]
    covers = set()
    for lower, upper in zip(layers, layers[1:]):
        for a in lower:
            covers |= {(a, b) for b in draw(st.lists(st.sampled_from(upper),
                                                     min_size=1))}
        covers |= {(lower[0], b) for b in upper
                   if all(c[1] != b for c in covers)}
    return hand_built_order(rank, sorted(covers))


def covers_of(order) -> np.ndarray:
    """covers[x, y]: x < y with no z strictly between, from `leq` alone."""
    strict = (order.leq & ~np.eye(order.size, dtype=bool)).astype(np.int64)
    return (strict > 0) & (strict @ strict == 0)


def bounded_and_graded(order) -> bool:
    """Whether some member lies below all and some above all, and every
    cover x < y has rank y = rank x + 1: the premises under which the
    pass over pairs of covers decides the lattice property."""
    leq, rank = order.leq, order.rank
    return (bool(leq.all(axis=1).any()) and bool(leq.all(axis=0).any())
            and bool((rank[:, None] + 1 == rank)[covers_of(order)].all()))


@settings(max_examples=300, deadline=None)
@given(bounded_graded_orders())
def test_cover_pass_is_zero_exactly_when_references_are(order):
    """On a bounded order whose covers raise the rank by one, no pair of
    covers of one member lacks a join exactly when no pair of members
    lacks a meet or a join."""
    assert bounded_and_graded(order)
    count = order.missing_meets_joins()
    assert (count == 0) == (row_pass_missing(order) == 0) \
        == (per_pair_missing(order) == 0)


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_every_ncp_lattice_is_graded_with_a_top(spec):
    """The premises of the lattice check hold on every built lattice: 1
    lies below and c above all members, and every cover raises the rank
    by one."""
    ncp = build_ncp(build_group(spec))
    assert bounded_and_graded(ncp)
    assert ncp.leq[ncp.bottom].all() and ncp.leq[:, ncp.top].all()


def test_a_cleared_order_entry_is_counted_as_missing_meets(b3_ncp):
    """A copy of B3's lattice with the bottom no longer below one atom:
    that atom and each other atom have no common lower bound, and the
    count finds the atom outside the bottom's up-set."""
    broken = copy.copy(b3_ncp)
    broken.leq = b3_ncp.leq.copy()
    atom = int(np.flatnonzero(b3_ncp.rank == 1)[0])
    broken.leq[b3_ncp.bottom, atom] = False
    assert broken.missing_meets_joins() > 0
    assert per_pair_missing(broken) > 0 and row_pass_missing(broken) > 0
    assert b3_ncp.missing_meets_joins() == 0


def no_extreme_pairs(order, monkeypatch) -> list[int]:
    """The number of pairs of each `_no_extreme` call of the check."""
    calls = []
    real = ncp_module._no_extreme

    def counted(bits, order, i, j):
        calls.append(len(i))
        return real(bits, order, i, j)

    monkeypatch.setattr(ncp_module, "_no_extreme", counted)
    order.missing_meets_joins()
    monkeypatch.setattr(ncp_module, "_no_extreme", real)
    return calls


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_lattice_check_evaluates_pairs_of_upper_covers_only(
        spec, monkeypatch):
    """One pass over sum_z C(#upper covers of z, 2) pairs, not over all
    |NCP|^2 member pairs."""
    ncp = build_ncp(build_group(spec))
    k = np.count_nonzero(covers_of(ncp), axis=1)
    pairs = int((k * (k - 1) // 2).sum())
    assert no_extreme_pairs(ncp, monkeypatch) == [pairs]


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
    """q, K and K^{-1} against one `group.product` per entry: q holds a
    member on exactly the pairs of the order and -1 off it; K(x) is
    x^{-1} c, K^{-1} inverts it and K(K(x)) = c^{-1} x c; and q[b, K(a)]
    is a member exactly where a b divides c with lengths adding, and then
    K^{-1} of it is a b."""
    group = build_group(spec)
    ncp = build_ncp(group)
    members = ncp.members.tolist()
    where = {w: k for k, w in enumerate(members)}
    c, c_inv = group.coxeter, group.inverse(group.coxeter)
    kreweras, back = ncp.kreweras, ncp.kreweras_inverse

    def length(w):
        return int(group.length[w])

    for x, u in enumerate(members):
        assert kreweras[x] == where[group.product(group.inverse(u), c)]
        assert back[kreweras[x]] == x
        assert members[kreweras[kreweras[x]]] == group.product(c_inv, u, c)
        for y, v in enumerate(members):
            quotient = group.product(group.inverse(u), v)
            below = length(u) + length(quotient) == length(v)
            assert bool(ncp.leq[x, y]) == below
            assert ncp.q[x, y] == (where[quotient] if below else -1)
            uv = group.product(u, v)
            adds = uv in where and length(uv) == length(u) + length(v)
            entry = ncp.q[y, kreweras[x]]
            assert (entry >= 0) == adds
            if adds:
                assert members[back[entry]] == uv


@pytest.mark.parametrize("spec", [GroupSpec("B", 3), GroupSpec("B", 5),
                                  GroupSpec("H4", 4)], ids=lambda s: s.label)
def test_q_is_the_only_square_product_table(spec):
    """Every product is read from q and K, so the lattice keeps no other
    int array of |NCP|^2 entries, and no `prod` or `rq`."""
    ncp = build_ncp(build_group(spec, order_cap=60000))
    square = [name for name, value in vars(ncp).items()
              if isinstance(value, np.ndarray) and value.dtype.kind in "iu"
              and value.size == ncp.size ** 2]
    assert square == ["q"]
    assert not hasattr(ncp, "prod") and not hasattr(ncp, "rq")
