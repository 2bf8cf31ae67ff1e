"""Exact cyclotomic arithmetic and rational linear algebra."""

import operator
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpforge.cyclo import (
    CycNum,
    Matrix,
    Subspace,
    cyclotomic_polynomial,
    euler_phi,
    kernel,
    zeta_powers,
)
import ncpforge
from ncpforge.errors import DivisionByZero, FieldMismatch

# the catalog's conductors, and 15, the conductor of G27
CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15]

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6)


def cycnums(m):
    """Random elements of Q(zeta_m) as rational combinations of powers."""
    phi = euler_phi(m)
    return st.lists(rationals, min_size=phi, max_size=phi).map(
        lambda cs: sum(
            (CycNum.from_rational(m, c) * CycNum.zeta(m, k)
             for k, c in enumerate(cs)),
            CycNum.zero(m)))


def test_euler_phi_small_values():
    assert [euler_phi(m) for m in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert all(euler_phi(m) == sum(gcd(k, m) == 1 for k in range(1, m + 1))
               for m in range(1, 61))


def test_cyclotomic_coefficients_are_ints():
    # a Fraction or a float would still compare equal
    for m in range(1, 61):
        assert all(type(c) is int for c in cyclotomic_polynomial(m)), m


@pytest.mark.parametrize("m", range(1, 61))
def test_zeta_power_table(m):
    """Rows 0..phi-1 are unit vectors and zeta^j Phi_m(zeta) = 0 for every
    j; the relation at j = k - phi then fixes row k from rows below it."""
    poly, table = cyclotomic_polynomial(m), zeta_powers(m)
    phi = euler_phi(m)
    assert len(table) == m
    assert all(len(row) == phi and all(type(t) is int for t in row)
               for row in table)
    assert [list(row) for row in table[:phi]] == \
        [[int(i == k) for i in range(phi)] for k in range(phi)]
    for j in range(m):
        assert [sum(c * table[(i + j) % m][b] for i, c in enumerate(poly))
                for b in range(phi)] == [0] * phi


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    """prod_{d | m} Phi_d = x^m - 1, multiplied out in ints; Phi_105 is
    the first with a coefficient other than 0 and +-1."""
    for m in range(1, 301):
        acc = [1]
        for d in (d for d in range(1, m + 1) if m % d == 0):
            phi = cyclotomic_polynomial(d)
            assert phi[-1] == 1 and all(type(c) is int for c in phi)
            out = [0] * (len(acc) + len(phi) - 1)
            for i, a in enumerate(acc):
                if a:
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
            acc = out
        assert acc == [-1] + [0] * (m - 1) + [1], m
    assert -2 in cyclotomic_polynomial(105)
    assert all(abs(c) <= 1 for m in range(1, 105)
               for c in cyclotomic_polynomial(m))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_zeta_has_order_m(m):
    z = CycNum.zeta(m, 1)
    acc = CycNum.one(m)
    for k in range(1, m + 1):
        acc = acc * z
        if k < m:
            assert acc != CycNum.one(m)
    assert acc == CycNum.one(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_root_of_unity_sum_vanishes(m):
    total = CycNum.zero(m)
    for k in range(m):
        total = total + CycNum.zeta(m, k)
    assert total.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONDUCTORS).flatmap(
    lambda m: st.tuples(cycnums(m), cycnums(m), cycnums(m))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycNum.zero(a.m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONDUCTORS).flatmap(cycnums))
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inv()
    else:
        inverse = a.inv()
        assert a * inverse == CycNum.one(a.m)
        assert all(type(c) is Fraction for c in inverse.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6]).flatmap(
    lambda m: st.tuples(cycnums(m), cycnums(m))))
def test_embedding_is_a_ring_homomorphism(pair):
    a, b = pair
    big = a.m * 5
    assert (a + b).embed(big) == a.embed(big) + b.embed(big)
    assert (a * b).embed(big) == a.embed(big) * b.embed(big)


def test_embedding_identifies_common_subfield():
    # zeta_6 = -zeta_3^2, so both live in Q(zeta_12) compatibly
    z6 = CycNum.zeta(6, 1)
    z3 = CycNum.zeta(3, 1)
    lifted6 = z6.embed(12)
    lifted3 = z3.embed(12)
    assert lifted6 * lifted6 == lifted3


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
def test_mixed_conductors_raise(op):
    with pytest.raises(FieldMismatch):
        op(CycNum.zeta(4, 1), CycNum.zeta(6, 1))


def test_mixed_fields_and_sizes_raise_for_matrices_and_subspaces():
    with pytest.raises(FieldMismatch):
        Matrix.identity(2, 4) @ Matrix.identity(2, 6)
    with pytest.raises(FieldMismatch):
        Matrix.identity(2, 4) @ Matrix.identity(3, 4)


def test_field_check_survives_optimised_interpreter():
    """Under python -O, zip would pair the coefficients of Q(zeta_4) and
    Q(zeta_6) and return a wrong number; the check must still raise."""
    src = os.path.dirname(os.path.dirname(ncpforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from ncpforge.cyclo import CycNum\n"
         "for op in ('__add__', '__mul__'):\n"
         "    try:\n"
         "        getattr(CycNum.zeta(4), op)(CycNum.zeta(6))\n"
         "    except ArithmeticError as exc:\n"
         "        print(type(exc).__name__)\n"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["FieldMismatch", "FieldMismatch"]


def test_cos_pi_5_satisfies_golden_quadratic():
    # 2 cos(pi/5) is the golden ratio: x^2 - x - 1 = 0
    m = 5
    one = CycNum.one(m)
    x = one + CycNum.zeta(m, 1) + CycNum.zeta(m, 4)
    assert x * x - x - one == CycNum.zero(m)


# -- matrices and subspaces -------------------------------------------------

def rational_matrix(rows):
    return Matrix(len(rows), 1, [[CycNum.from_rational(1, v) for v in row]
                                 for row in rows])


def test_matrix_product_and_apply():
    mat = rational_matrix([[1, 2], [0, 1]])
    sq = mat @ mat
    assert sq.rows[0][1] == CycNum.from_rational(1, 4)
    image = mat.apply((CycNum.one(1), CycNum.one(1)))
    assert image[0] == CycNum.from_rational(1, 3)


def test_kernel_and_rank_of_projection():
    ker = kernel(rational_matrix([[1, 0], [0, 0]]))
    assert ker.dim == 1
    assert ker.contains((CycNum.zero(1), CycNum.one(1)))
    assert not ker.contains((CycNum.one(1), CycNum.zero(1)))


def test_subspace_equality_is_basis_independent():
    one, zero = CycNum.one(1), CycNum.zero(1)
    two = CycNum.from_rational(1, 2)
    s1 = Subspace(2, 1, [[one, one]])
    s2 = Subspace(2, 1, [[two, two]])
    assert s1 == s2
    assert s1.contains_subspace(s2)
