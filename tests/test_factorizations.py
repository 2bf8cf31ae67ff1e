"""Block factorisations: enumeration, closed forms, chains."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ncpforge.catalog import GroupSpec, catalog_specs
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
    zeta_polynomial,
    eval_poly,
)
from ncpforge.group import build_group
from ncpforge.ncp import build_ncp, fuss_catalan
from ncpforge.parabolic import submax_total_formula
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
        found = [tuple(t) for t in rows.tolist()]
        assert rows.dtype == np.int32 and rows.shape == (len(found), p)
        assert len(set(found)) == len(found)
        assert set(found) == set(brute_force_factorisations(ncp, p))


def test_composition_rejects_non_compositions(a3_ncp):
    for mu in ((1, 1), (2, 2), (3, 0), (4, -1)):
        with pytest.raises(ValueError):
            iter_fact_with_composition(a3_ncp, mu)


def test_zeta_polynomial_interpolates_lattice_counts(a3, a3_ncp):
    # Z(N+1) counts N-multichains; Z(0) = 0, Z(1) = 1 (empty chain)
    coeffs = zeta_polynomial(a3.degrees)
    assert eval_poly(coeffs, 0) == 0
    assert eval_poly(coeffs, 1) == 1
    assert eval_poly(coeffs, 2) == a3_ncp.size
    for chain_length in (2, 3):
        assert eval_poly(coeffs, chain_length + 1) == \
            a3_ncp.multichain_count(chain_length)


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
        comp = tuple(b3.reflection_length(w) for w in fact)
        by_composition.setdefault(comp, []).append(fact)
    totals = {}
    for comp, group_facts in by_composition.items():
        totals[len(comp)] = totals.get(len(comp), 0) + len(group_facts)
    assert totals == fact_counts(b3, factorisations(ncp)).fact_enumerated
    # each composition's factorisations are exactly those of a direct pass
    for comp, group_facts in by_composition.items():
        assert list(iter_fact_with_composition(ncp, comp)) == group_facts


def test_two_reflection_factorisations_of_short_elements(a3_ncp, a3):
    length2 = [w for w in a3_ncp.members if a3.reflection_length(w) == 2]
    for w in length2:
        pairs = two_reflection_factorisations(a3_ncp, w)
        assert all(a3.product(r1, r2) == w for r1, r2 in pairs)
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
