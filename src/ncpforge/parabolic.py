"""Parabolic subgroups, length-2 strata and the LL-data table.

A parabolic subgroup is the pointwise fixator of a flat Ker(w - 1),
closed from one reduced decomposition of w and checked against the
reflections that fix the flat, with no search over W.  The length-2
members of NCP fall into W-conjugacy classes (strata); each stratum
carries a ramification index r (the number of ordered 2-reflection
factorisations of a member) and a degree u derived by inverting the
submaximal counting formula.  The multiset {(r, u)} is compared against an
embedded reference table evaluated exactly at the group's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isqrt

import numpy as np

from .catalog import _EXCEPTIONAL, GroupSpec
from .errors import (
    ClassificationMismatch,
    NonIntegralDegree,
    NotADivisor,
    TableMismatch,
)
from .factorizations import red_count_formula, two_reflection_factorisations
from .group import ReflectionGroup
from .ncp import NcpLattice, exact_quotient


# -- parabolic subgroups ------------------------------------------------------

@dataclass
class ParabolicSubgroup:
    group: ReflectionGroup
    w: int                      # the NCP member it closes up
    elements: list[int]         # sorted element indices
    reflections: list[int]      # the elements that are reflections
    rank: int

    @property
    def size(self) -> int:
        return len(self.elements)


def pointwise_fixator(group: ReflectionGroup, w: int, among) -> list[int]:
    """The elements of the sorted index array among that fix every vector
    of the flat Ker(w - 1), in exact integer sums.

    With o the order of w, (1/o) sum_{k<o} w^k projects onto Ker(w - 1),
    so the sums s_j = sum_k w^k(e_j) span the flat, and g fixes it
    pointwise iff g(s_j) = s_j for every j.  Both sides are sums of
    vectors of V, compared as integer coordinates (`group.coords`).  The
    columns j are tested one at a time, each on the candidates that passed
    the ones before, one power of w at a time; a column with s_j = 0 is
    fixed by every element and skipped."""
    perms, coords = group.mult.perms, group.coords
    powers = np.array(group.powers(w))
    fixing = np.asarray(among)
    for j in range(group.n):
        target = coords[powers[:, j]].sum(axis=0)
        if not target.any():
            continue
        # moved[g] = g(s_j) for the candidates g still fixing
        moved = np.zeros((len(fixing), *target.shape), dtype=np.int64)
        for x in powers[:, j].tolist():
            moved += coords[perms[fixing, x]]
        fixing = fixing[(moved == target).all(axis=(1, 2))]
    return fixing.tolist()


def reduced_decomposition(ncp: NcpLattice, w: int) -> list[int]:
    """Reflections r_1, ..., r_k with r_1 ... r_k = w and k = l(w): the
    quotients q[x, y] along one maximal chain 1 < ... < w of NCP, walked
    down from w by its first lower cover at each rank."""
    y, decomposition = int(ncp.position[w]), []
    while ncp.rank[y]:
        x = int(np.argmax(ncp.leq[:, y] & (ncp.rank == ncp.rank[y] - 1)))
        decomposition.append(int(ncp.members[ncp.q[x, y]]))
        y = x
    return decomposition[::-1]


def parabolic_of(ncp: NcpLattice, w: int) -> ParabolicSubgroup:
    """The parabolic closure of an NCP member: the fixator of Ker(w - 1),
    closed by the build's `_closure` from a reduced decomposition of w,
    which generates it (Bessis 2003).  Its rank n - dim Ker(w - 1) must be
    l(w), and its reflections those fixing Ker(w - 1) among the |R|: then
    the closure lies in the fixator, which these reflections generate
    (Steinberg 1964), so the two are equal."""
    group = ncp.group
    group._check_member(w)
    if ncp.position[w] < 0:
        raise NotADivisor(f"element {w} does not divide the Coxeter element")
    rank = group.n - int(group.fixed_dim[w])
    if rank != int(group.length[w]):
        raise ClassificationMismatch(
            f"{group.spec.label}: parabolic rank {rank} differs from "
            f"reflection length {int(group.length[w])}")
    gens = np.array(reduced_decomposition(ncp, w), dtype=np.intp)
    rows, _ = ReflectionGroup._closure(group.mult.perms[gens],
                                       group.mult.radix, group.size)
    elements = group.mult.locate(rows[:, :group.n])
    reflections = elements[group.fixed_dim[elements] == group.n - 1]
    if reflections.tolist() != pointwise_fixator(group, w, group.reflections):
        raise ClassificationMismatch(
            f"{group.spec.label}: the closure of a reduced decomposition of "
            f"{w} and the fixator of its flat have different reflections")
    return ParabolicSubgroup(group=group, w=w, elements=elements.tolist(),
                             reflections=reflections.tolist(), rank=rank)


def rank2_degrees(order: int, num_reflections: int) -> tuple[int, int]:
    """Invariant degrees (d1 <= d2) of a rank-2 reflection group from its
    order and reflection count: d1 d2 = |P| and (d1-1)+(d2-1) = |R|."""
    s = num_reflections + 2
    disc = s * s - 4 * order
    root = isqrt(disc) if disc >= 0 else -1
    if root < 0 or root * root != disc or (s - root) % 2:
        raise NonIntegralDegree(
            f"no integer degrees with product {order} and sum {s}")
    return ((s - root) // 2, (s + root) // 2)


# -- length-2 strata ----------------------------------------------------------

@dataclass
class Stratum2:
    class_id: int
    representative: int
    order: int                  # element order of the representative
    r: int                      # ordered 2-reflection factorisations
    r_from_degrees: int         # 2 h' / d1' of the parabolic closure
    count: int | None = None    # |fact_{n-1}| with long factor in the class
    fiber: int | None = None    # same, long factor in first position
    u: int | None = None        # derived degree


def length2_strata(ncp: NcpLattice) -> list[Stratum2]:
    """W-conjugacy classes of length-2 NCP members, with ramification data."""
    group = ncp.group
    reps: dict[int, int] = {}
    for w in ncp.members[ncp.rank == 2].tolist():
        reps.setdefault(int(group.class_id[w]), w)
    strata = []
    for cid, rep in sorted(reps.items(), key=lambda item: item[1]):
        r = len(two_reflection_factorisations(ncp, rep))
        if r < 2:
            raise ClassificationMismatch(
                f"{group.spec.label}: stratum of {rep} has r = {r} < 2")
        closure = parabolic_of(ncp, rep)
        d1, d2 = rank2_degrees(closure.size, len(closure.reflections))
        strata.append(Stratum2(
            class_id=cid, representative=rep,
            order=group.element_order(rep),
            r=r, r_from_degrees=2 * d2 // d1))
    return strata


def submax_total_formula(group: ReflectionGroup) -> int:
    """Closed form for |fact_{n-1}(c)|."""
    n, h = group.n, group.h
    # (n - 1)(n - 2) is even
    bracket = (n - 1) * (n - 2) // 2 * h + sum(group.degrees[:-1])
    return exact_quotient(factorial(n - 1) * h ** (n - 1) * bracket,
                          group.size,
                          f"{group.spec.label}: |fact_(n-1)| closed form")


def submax_counts(ncp: NcpLattice, strata: list[Stratum2], facts) -> int:
    """Classify fact_{n-1} (facts: the factorisations of c with n-1
    blocks, one per row) by the stratum of the length-2 factor, derive
    each u and check the total; returns the total."""
    group = ncp.group
    n, h = group.n, group.h
    # one flat search and a divmod: half the time of a 2-D np.nonzero
    rows, cols = np.divmod(np.flatnonzero(group.length[facts] == 2),
                           facts.shape[1])
    classes = group.class_id[facts[rows, cols]]
    for s in strata:
        s.count = int(np.count_nonzero(classes == s.class_id))
        s.fiber = int(np.count_nonzero(classes[cols == 0] == s.class_id))
    total = len(facts)
    if (not np.array_equal(rows, np.arange(total))
            or sum(s.count for s in strata) != total):
        raise ClassificationMismatch(
            f"{group.spec.label}: a submaximal factorisation without "
            f"exactly one length-2 factor of a known stratum")
    for s in strata:
        s.u = exact_quotient(
            s.count * group.size, factorial(n - 1) * h ** (n - 1),
            f"{group.spec.label}: the degree u of stratum count {s.count}",
            NonIntegralDegree)
    if total != submax_total_formula(group):
        raise TableMismatch(
            f"{group.spec.label}: |fact_(n-1)| = {total}, closed form "
            f"gives {submax_total_formula(group)}")
    return total


# -- the reference table ------------------------------------------------------

def reference_row(spec: GroupSpec) -> list[tuple[int, int]]:
    """The (p, u) pairs of the embedded table, evaluated at (n, e), or the
    row of an exceptional group in the catalog's table; terms with u = 0
    do not occur and are dropped.  Sorted multiset."""
    f, n = spec.family, spec.n
    if f == "A":
        pairs = [(2, n * (n - 1) * (n - 2) // 2), (3, n * (n - 1))]
    elif f == "B":
        pairs = [(2, (n - 1) * (n - 2) * (n - 3)),
                 (2, 2 * (n - 1) * (n - 2)),
                 (3, 2 * (n - 1) * (n - 2)),
                 (4, 2 * (n - 1))]
    elif f == "I2":
        pairs = [(spec.e, 2)]
    elif f in ("D", "G"):
        e = 2 if f == "D" else spec.e
        if n == 3:
            if e % 3 == 0:
                pairs = [(3, e), (3, e), (3, e), (e, 3)]
            else:
                pairs = [(3, 3 * e), (e, 3)]
        elif n == 4:
            if e % 2 == 0:
                pairs = [(2, 2 * e), (2, 2 * e), (3, 8 * e), (e, 4)]
            else:
                pairs = [(2, 4 * e), (3, 8 * e), (e, 4)]
        else:
            pairs = [(2, n * (n - 2) * (n - 3) * e // 2),
                     (3, n * (n - 2) * e), (e, n)]
    elif f in _EXCEPTIONAL:
        pairs = _EXCEPTIONAL[f].ll_row
    else:
        raise TableMismatch(f"no table row for {spec.label}")
    return sorted((p, u) for p, u in pairs if u > 0)


def table_a1_verify(ncp: NcpLattice, strata: list[Stratum2]) -> dict:
    """Compare the multiset {(r, u)} of the counted strata (after
    `submax_counts`) with the reference row; also check the degree and
    fiber identities."""
    group = ncp.group
    n, h = group.n, group.h
    expected = reference_row(group.spec)
    if n < 2:
        if expected:
            raise TableMismatch(
                f"{group.spec.label}: rank < 2 but nonempty reference row")
        return {"group": group.spec.label, "expected": [], "computed": [],
                "strata": [], "degree_sum": 0, "fiber_total": 0,
                "red_count": red_count_formula(group), "pass": True}
    computed = sorted((s.r, s.u) for s in strata)
    if computed != expected:
        raise TableMismatch(
            f"{group.spec.label}: computed {computed}, table row {expected}")
    degree_sum = sum(s.r * s.u for s in strata)
    if degree_sum != n * (n - 1) * h:
        raise TableMismatch(
            f"{group.spec.label}: sum p_i u_i = {degree_sum}, "
            f"expected n(n-1)h = {n * (n - 1) * h}")
    scalar = factorial(n - 2) * h ** (n - 1)
    for s in strata:
        if s.fiber * group.size != scalar * s.u:
            raise TableMismatch(
                f"{group.spec.label}: fiber count {s.fiber} for stratum "
                f"{s.representative} differs from (n-2)! h^(n-1) u / |W| "
                f"= {scalar * s.u}/{group.size}")
    fiber_total = sum(s.r * s.fiber for s in strata)
    red = red_count_formula(group)
    if fiber_total != red:
        raise TableMismatch(
            f"{group.spec.label}: fiber identity gives {fiber_total}, "
            f"|Red| = {red}")
    return {
        "group": group.spec.label,
        "expected": expected,
        "computed": computed,
        "strata": strata,
        "degree_sum": degree_sum,
        "fiber_total": fiber_total,
        "red_count": red,
        "pass": True,
    }
