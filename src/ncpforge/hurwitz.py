"""Hurwitz braid action on factorisation tuples; orbits and strong conjugacy.

The standard braid generator sigma_i sends (..., g_i, g_{i+1}, ...) to
(..., g_{i+1}, g_{i+1}^{-1} g_i g_{i+1}, ...); its inverse conjugates the
other way.  Orbits are closed by BFS over canonical index tuples, so
membership listings are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationMismatch, IndexOutOfRange, OrbitCapExceeded
from .group import ReflectionGroup
from .ncp import NcpLattice

DEFAULT_ORBIT_CAP = 10_000_000


@dataclass(frozen=True)
class BraidGen:
    index: int          # 1-based, 1 <= index <= p-1
    inverse: bool = False


def hurwitz_act(group: ReflectionGroup, factors: tuple[int, ...],
                gen: BraidGen) -> tuple[int, ...]:
    i = gen.index
    if len(factors) < 2 or not 1 <= i <= len(factors) - 1:
        raise IndexOutOfRange(
            f"generator index {i} for a {len(factors)}-tuple")
    a, b = factors[i - 1], factors[i]
    if gen.inverse:
        # (a, b) -> (a b a^{-1}, a)
        pair = (group.product(a, b, group.inverse(a)), a)
    else:
        # (a, b) -> (b, b^{-1} a b)
        pair = (b, group.product(group.inverse(b), a, b))
    return factors[:i - 1] + pair + factors[i + 1:]


class HurwitzOrbit:
    """Closure of a seed tuple under all sigma_i^{+-1}."""

    def __init__(self, seed: tuple[int, ...], members: list[tuple[int, ...]]):
        self.seed = seed
        self.members = members  # sorted, canonical

    @property
    def size(self) -> int:
        return len(self.members)


def hurwitz_orbit(group: ReflectionGroup, seed: tuple[int, ...],
                  cap: int = DEFAULT_ORBIT_CAP) -> HurwitzOrbit:
    seed = tuple(seed)
    p = len(seed)
    gens = [BraidGen(i, inv) for i in range(1, p) for inv in (False, True)]
    seen = {seed}
    queue = deque([seed])
    while queue:
        t = queue.popleft()
        for g in gens:
            u = hurwitz_act(group, t, g)
            if u not in seen:
                if len(seen) >= cap:
                    raise OrbitCapExceeded(f"orbit exceeded cap {cap}")
                seen.add(u)
                queue.append(u)
    return HurwitzOrbit(seed, sorted(seen))


def orbit_decomposition(group: ReflectionGroup,
                        tuples, cap: int = DEFAULT_ORBIT_CAP) -> list[HurwitzOrbit]:
    """Partition a set of factorisation tuples into Hurwitz orbits."""
    remaining = set(tuples)
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit = hurwitz_orbit(group, seed, cap=cap)
        if not remaining.issuperset(orbit.members):
            raise ClassificationMismatch(
                "orbit left the supplied tuple set; invariants violated")
        remaining.difference_update(orbit.members)
        orbits.append(orbit)
    return orbits


def long_factor(group: ReflectionGroup, factors: tuple[int, ...], k: int) -> int:
    for w in factors:
        if int(group.length[w]) == k:
            return w
    raise ValueError("no factor of the requested length")


def classify_primitive_orbits(ncp: NcpLattice, k: int, tuples,
                              cap: int = DEFAULT_ORBIT_CAP) -> dict:
    """Orbit decomposition of the primitive shape k 1^(n-k), with the
    orbit <-> long-factor-conjugacy-class bijection enforced; tuples are
    all factorisations of c of that shape, the long factor anywhere."""
    group = ncp.group
    if k < 2 or k > group.n:
        raise ValueError("primitive shapes need 2 <= k <= n")
    orbits = orbit_decomposition(group, tuples, cap=cap)
    class_of_orbit = []
    for orbit in orbits:
        classes = {int(group.class_id[long_factor(group, t, k)])
                   for t in orbit.members}
        if len(classes) != 1:
            raise ClassificationMismatch(
                f"{group.spec.label}: orbit mixes long-factor classes")
        class_of_orbit.append(classes.pop())
    if len(set(class_of_orbit)) != len(orbits):
        raise ClassificationMismatch(
            f"{group.spec.label}: two orbits share a long-factor class")
    expected_classes = {
        int(group.class_id[ncp.members[i]])
        for i in range(ncp.size) if ncp.rank[i] == k
    }
    if set(class_of_orbit) != expected_classes:
        raise ClassificationMismatch(
            f"{group.spec.label}: orbit classes differ from the classes of "
            f"length-{k} divisors")
    return {
        "shape_k": k,
        "orbits": orbits,
        "orbit_classes": class_of_orbit,
        "total": len(tuples),
    }


def p2_orbit_formula(group: ReflectionGroup, u1: int, u2: int) -> set:
    """Closed form of a 2-block orbit:
    {(u1^{c^k}, u2^{c^k}), (u2^{c^{k+1}}, u1^{c^k})} over k in Z, where
    x^v denotes v x v^{-1} (the reading under which the second family
    multiplies back to c)."""
    c = group.coxeter

    def conj(x: int, k: int) -> int:
        # c^k x c^{-k}
        ck = group.identity
        for _ in range(k % group.h):
            ck = group.product(ck, c)
        return group.product(ck, x, group.inverse(ck))

    out = set()
    for k in range(group.h):
        out.add((conj(u1, k), conj(u2, k)))
        out.add((conj(u2, k + 1), conj(u1, k)))
    return out


# -- strong conjugacy --------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def strong_conjugacy_classes(ncp: NcpLattice) -> list[list[int]]:
    """Partition of NCP members under the closure of x w = w' x with
    x w in NCP and l(x w) = l(x) + l(w).

    Conjugators x range over NCP members (x <= xw <= c forces x into NCP).
    All pairs (x, w) are tested in one whole-array pass through
    `group.mult`.
    """
    group = ncp.group
    mult, length = group.mult, group.length
    members = np.array(ncp.members, dtype=np.int32)
    pos = np.full(group.size, -1, dtype=np.int64)
    pos[members] = np.arange(ncp.size)
    lm = length[members]
    xw = mult[members[:, None], members[None, :]]
    keep = (length[xw] == lm[:, None] + lm[None, :]) & (pos[xw] >= 0)
    rows, cols = np.nonzero(keep)
    targets = pos[mult[xw[rows, cols], group.inv[members[rows]]]]  # x w x^{-1}
    if (targets < 0).any():
        raise ClassificationMismatch(
            f"{group.spec.label}: a strong conjugate of an NCP member lies "
            f"outside NCP")
    uf = _UnionFind(ncp.size)
    for i, t in zip(cols.tolist(), targets.tolist()):
        uf.union(i, t)
    buckets: dict[int, list[int]] = {}
    for i in range(ncp.size):
        buckets.setdefault(uf.find(i), []).append(ncp.members[i])
    return sorted(sorted(b) for b in buckets.values())


def conjugacy_partition_on_ncp(ncp: NcpLattice) -> list[list[int]]:
    """Ordinary W-conjugacy classes intersected with NCP."""
    group = ncp.group
    buckets: dict[int, list[int]] = {}
    for w in ncp.members:
        buckets.setdefault(int(group.class_id[w]), []).append(w)
    return sorted(sorted(b) for b in buckets.values())
