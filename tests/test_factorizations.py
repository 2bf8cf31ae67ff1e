"""Block factorisations: enumeration, closed forms, chains."""

from math import prod
from types import SimpleNamespace

import numpy as np
import pytest

from ncpforge.catalog import GroupSpec, catalog_specs, degrees_of
from ncpforge.errors import NonIntegralCount
from ncpforge.factorizations import (
    chapoton_identity,
    fact_count_stirling,
    fact_counts_zeta,
    fact_counts,
    factorisations,
    iter_fact_with_composition,
    iter_factorisations,
    red_count_formula,
    two_reflection_factorisations,
)
from ncpforge.group import build_group
from ncpforge.ncp import build_ncp, fuss_catalan
from ncpforge.parabolic import submax_total_formula
import reference_fractions as fractions_route
from reference_scans import mask_factorisations

# Parameters that no reflection group has (degrees 2, 5 need |W| = 10).
FAKE_GROUP = SimpleNamespace(spec=GroupSpec("A", 2), n=2, h=5, size=7,
                             degrees=(2, 5))


def test_red_count_formula_values(a3, b3):
    assert red_count_formula(a3) == 16
    assert red_count_formula(b3) == 27
    assert red_count_formula(build_group(GroupSpec("H3", 3))) == 50


@pytest.mark.parametrize("closed_form", [
    lambda: fuss_catalan((3, 5), 1),                    # 16/3
    lambda: fact_counts_zeta((3, 5), 2),                # fact_2 = 10/3
    lambda: fact_count_stirling((2, 3, 4), 25, 3),      # 384/25
    lambda: red_count_formula(FAKE_GROUP),              # 50/7
    lambda: submax_total_formula(FAKE_GROUP),           # 10/7
], ids=["fuss_catalan", "zeta", "stirling", "red", "submax"])
def test_non_integral_closed_forms_raise(closed_form):
    with pytest.raises(NonIntegralCount):
        closed_form()


def test_enumerate_red_agrees_with_formula(a3_ncp, b3_ncp):
    for ncp, count in ((a3_ncp, 16), (b3_ncp, 27)):
        red = list(iter_fact_with_composition(ncp, (1,) * ncp.group.n))
        assert len(red) == len(set(red)) == count
        assert count == red_count_formula(ncp.group)


def test_every_enumerated_tuple_is_a_factorisation(a3_ncp, a3):
    for fact in iter_factorisations(a3_ncp):
        fact = a3_ncp.members[list(fact)].tolist()
        assert a3.identity not in fact
        assert a3.product(*fact) == a3.coxeter
        assert sum(a3.reflection_length(w) for w in fact) == a3.n


def brute_force_factorisations(ncp, p):
    """Tuples of p nontrivial lattice members whose reflection lengths add
    up to n and whose product is c, extended one block at a time."""
    group = ncp.group
    length = {w: group.reflection_length(w) for w in ncp.members}

    def extend(prefix, product, budget):
        if len(prefix) == p:
            if budget == 0 and product == group.coxeter:
                yield prefix
            return
        for w in ncp.members:
            if 1 <= length[w] <= budget - (p - len(prefix) - 1):
                yield from extend(prefix + (w,), group.product(product, w),
                                  budget - length[w])

    return list(extend((), group.identity, group.n))


@pytest.mark.parametrize("spec", [
    GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("H3", 3),
    GroupSpec("I2", 2, 5), GroupSpec("G", 3, 3), GroupSpec("D", 4),
], ids=lambda s: s.label)
def test_factorisations_match_brute_force(spec):
    ncp = build_ncp(build_group(spec))
    by_blocks = factorisations(ncp)
    assert sorted(by_blocks) == list(range(ncp.group.n + 1))
    for p, rows in by_blocks.items():
        found = [tuple(t) for t in ncp.members[rows].tolist()]
        assert rows.dtype == np.int32 and rows.shape == (len(found), p)
        assert len(set(found)) == len(found)
        assert set(found) == set(brute_force_factorisations(ncp, p))


def test_composition_rejects_non_compositions(a3_ncp):
    for mu in ((1, 1), (2, 2), (3, 0), (4, -1)):
        with pytest.raises(ValueError):
            iter_fact_with_composition(a3_ncp, mu)


def test_zeta_polynomial_interpolates_lattice_counts(a3, a3_ncp):
    # Z(N+1) counts N-multichains; Z(0) = 0, Z(1) = 1 (empty chain), and
    # fact_p is the p-th finite difference of Z at 0
    values, expected = [0, 1] + a3_ncp.multichain_counts(3), {}
    for p in range(1, 5):
        values = [b - a for a, b in zip(values, values[1:])]
        expected[p] = values[0]
    assert expected == {1: 1, 2: 12, 3: 16, 4: 0}
    assert fact_counts_zeta(a3.degrees, 4) == expected


# (degrees, |W|): the catalog, the infinite families to rank 7, I2(e) to
# e = 30, the exceptional groups outside the catalog, and two degree sets
# whose closed forms are not integers
_EXCEPTIONAL_DEGREES = [
    (2, 12, 20, 30), (2, 5, 6, 8, 9, 12), (2, 6, 8, 10, 12, 14, 18),
    (2, 8, 12, 14, 18, 20, 24, 30),                         # H4, E6-E8
    (4, 6, 14), (6, 9, 12), (6, 12, 18), (6, 12, 30),       # G24-G27
    (4, 8, 12, 20), (12, 18, 24, 30), (4, 6, 10, 12, 18),   # G29, G32, G33
    (6, 12, 18, 24, 30, 42),                                # G34
]
_SPECS = (catalog_specs()
          + [GroupSpec(f, n) for f, low in (("A", 1), ("B", 2), ("D", 4))
             for n in range(low, 8)]
          + [GroupSpec("G", n, e) for e in range(2, 7) for n in range(3, 8)]
          + [GroupSpec("I2", 2, e) for e in range(3, 31)])
DEGREE_TABLE = sorted(
    {(degrees_of(s), prod(degrees_of(s))) for s in _SPECS}
    | {(d, prod(d)) for d in _EXCEPTIONAL_DEGREES}
    | {((3, 5), 15), ((2, 3, 4), 25)})


def _outcome(form):
    """The repr of a closed form's value (so that an int and an integral
    Fraction differ), or the type of the error it raises."""
    try:
        return repr(form())
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("degrees,order", DEGREE_TABLE, ids=[
    "-".join(map(str, degrees)) + f"/{order}"
    for degrees, order in DEGREE_TABLE])
def test_integer_forms_match_the_fraction_route(degrees, order):
    """Every closed form gives the value, or the error type, that the
    earlier Fraction arithmetic gave."""
    group = SimpleNamespace(spec=GroupSpec("A", 1), n=len(degrees),
                            h=degrees[-1], size=order, degrees=degrees)
    forms = [(f"fuss_catalan k={k}", fuss_catalan, fractions_route.fuss_catalan,
              (degrees, k)) for k in range(-1, 9)]
    forms += [(f"zeta pmax={pmax}", fact_counts_zeta,
               fractions_route.fact_counts_zeta, (degrees, pmax))
              for pmax in range(10)]
    forms += [(f"stirling blocks={b}", fact_count_stirling,
               fractions_route.fact_count_stirling, (degrees, order, b))
              for b in range(1, len(degrees) + 1)]
    forms += [("red", red_count_formula, fractions_route.red_count_formula,
               (group,)),
              ("submax", submax_total_formula,
               fractions_route.submax_total_formula, (group,))]
    for name, ours, theirs, args in forms:
        assert _outcome(lambda: ours(*args)) == \
            _outcome(lambda: theirs(*args)), name


@pytest.mark.parametrize("spec,expected", [
    (GroupSpec("A", 3), {1: 1, 2: 12, 3: 16}),
    (GroupSpec("B", 3), {1: 1, 2: 18, 3: 27}),
    (GroupSpec("D", 4), {1: 1, 2: 48, 3: 189, 4: 162}),
    (GroupSpec("H3", 3), {1: 1, 2: 30, 3: 50}),
], ids=lambda v: v.label if isinstance(v, GroupSpec) else "")
def test_ledger_triple_agreement(spec, expected):
    group = build_group(spec)
    ledger = fact_counts(group, factorisations(build_ncp(group)))
    assert ledger.fact_enumerated == expected
    assert ledger.fact_zeta == expected
    assert ledger.fact_stirling == expected


def test_closed_forms_without_enumeration():
    degrees = (2, 3, 4, 5, 6)      # rank 5, h = 6
    assert fact_counts_zeta(degrees, 5)[5] == 1296
    assert fact_count_stirling(degrees, 720, 5) == 1296
    assert fact_counts_zeta(degrees, 5)[1] == 1


def test_by_composition_marginals(b3):
    ncp = build_ncp(b3)
    facts = list(iter_factorisations(ncp))
    by_composition = {}
    for fact in facts:
        comp = tuple(b3.reflection_length(w)
                     for w in ncp.members[list(fact)].tolist())
        by_composition.setdefault(comp, []).append(fact)
    totals = {}
    for comp, group_facts in by_composition.items():
        totals[len(comp)] = totals.get(len(comp), 0) + len(group_facts)
    assert totals == fact_counts(b3, factorisations(ncp)).fact_enumerated
    # each composition's factorisations are exactly those of a direct pass
    for comp, group_facts in by_composition.items():
        assert list(iter_fact_with_composition(ncp, comp)) == group_facts


def test_two_reflection_factorisations_of_short_elements(a3_ncp, a3):
    members = a3_ncp.members.tolist()
    length2 = [y for y, w in enumerate(members)
               if a3.reflection_length(w) == 2]
    for y in length2:
        pairs = two_reflection_factorisations(a3_ncp, y)
        assert all(a3.product(members[r1], members[r2]) == members[y]
                   for r1, r2 in pairs)
        assert len(pairs) in (2, 3)   # (2,2)-type or 3-cycle type


def test_chapoton_identity_small(a3, a3_ncp):
    ledger = fact_counts(a3, factorisations(a3_ncp))
    for chain_length in range(1, 5):
        res = chapoton_identity(a3, ledger, chain_length)
        assert res["pass"]
        assert res["rhs"] == fuss_catalan(a3.degrees, chain_length)


def iter_multichains(ncp, chain_length):
    """All multichains w_1 <= ... <= w_N <= c, by brute force."""
    if chain_length == 0:
        yield ()
        return
    for chain in iter_multichains(ncp, chain_length - 1):
        last = ncp.position[chain[-1]] if chain else None
        for k, w in enumerate(ncp.members):
            if last is None or ncp.leq[last, k]:
                yield chain + (w,)


def test_exhaustive_multichains_match_dp():
    group = build_group(GroupSpec("A", 2))
    ncp = build_ncp(group)
    for chain_length in (1, 2, 3):
        exhaustive = sum(1 for _ in iter_multichains(ncp, chain_length))
        assert exhaustive == ncp.multichain_count(chain_length)
        assert exhaustive == fuss_catalan(group.degrees, chain_length)


@pytest.mark.parametrize(
    "spec", catalog_specs() + [GroupSpec("B", 5), GroupSpec("G", 5, 3)],
    ids=lambda s: s.label)
def test_successor_lists_match_mask_expansion(spec):
    ncp = build_ncp(build_group(spec))
    got, expected = factorisations(ncp), mask_factorisations(ncp)
    assert sorted(got) == sorted(expected)
    for p, rows in expected.items():
        assert got[p].dtype == rows.dtype and got[p].shape == rows.shape
        assert np.array_equal(got[p], rows)
