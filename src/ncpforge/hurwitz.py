"""Hurwitz braid action on factorisation tuples; orbits and strong conjugacy.

The standard braid generator sigma_i sends (..., g_i, g_{i+1}, ...) to
(..., g_{i+1}, g_{i+1}^{-1} g_i g_{i+1}, ...).  Every factor divides c, so
a tuple holds member positions of NCP, as a row of `factorisations` does,
and products are read from the quotient table q and the Kreweras
complement K, never computed in W.  `hurwitz_act` applies sigma_i to one
tuple or to every row of an array at once.  sigma_i permutes the finite
set of factorisations of c, so sigma_i^{-1} is a power of it.

The suites check two theorems with this action: B_p acts transitively on
Red(c), and the orbits of the primitive factorisations of shape
k 1^(n-k) biject with the conjugacy classes of the length-k divisors of
c, each orbit holding the long factors of one class.
`orbit_decomposition` partitions a set of tuples, given as the rows of an
array (a block count's array from `factorisations`), into Hurwitz orbits:
the `group.components` of the graph joining each tuple to its image under
each sigma_i, with one whole-array `hurwitz_act` per generator.  Tuples are
coded by the ranks of their entries among the positions the set uses, so
each image is found by one gather and one search among the codes.
`classify_primitive_orbits` reads the bijection off the (orbit, class)
pairs of all rows at once.  `hurwitz_orbit` closes a single seed by BFS and
is the per-seed reference.  Strong conjugacy classes are the components of
the graph joining w to x w x^-1, found the same way.  An orbit keeps its
members as sorted rows, so listings are reproducible.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import (ClassificationMismatch, ElementNotInGroup,
                     IndexOutOfRange, NotADivisor, OrbitCapExceeded)
from .group import _CODE_LIMIT, components
from .ncp import NcpLattice

DEFAULT_ORBIT_CAP = 10_000_000


def _positions(ncp: NcpLattice, positions: np.ndarray) -> np.ndarray:
    """The array; an entry outside 0..|NCP|-1 (so -1 too) is refused."""
    if positions.size and (positions.min() < 0 or positions.max() >= ncp.size):
        raise ElementNotInGroup("an entry is not a member position of NCP")
    return positions


def hurwitz_act(ncp: NcpLattice, factors, i: int):
    """sigma_i of a p-tuple of member positions (1 <= i < p), or of every
    row of a 2-D input, an array or a list of rows (one tuple per row),
    given back as an array; a tuple is acted on as a 1-row array.
    The two factors moved, and their product, must divide c."""
    rows = _positions(ncp, np.atleast_2d(np.asarray(factors)))
    if rows.shape[1] < 2 or not 1 <= i <= rows.shape[1] - 1:
        raise IndexOutOfRange(
            f"generator index {i} for a {rows.shape[1]}-tuple")
    a, b = rows[:, i - 1], rows[:, i]
    k = ncp.q[b, ncp.kreweras[a]]  # K(a b) = b^{-1} K(a)
    if (k < 0).any():
        raise NotADivisor("a product of adjacent factors does not divide c")
    # (a, b) -> (b, b^{-1} a b) = (b, q[b, a b]), with a b = K^{-1}(k)
    out = rows.copy()
    out[:, i - 1] = b
    out[:, i] = ncp.q[b, ncp.kreweras_inverse[k]]
    return out if np.ndim(factors) == 2 else tuple(out[0].tolist())


class HurwitzOrbit:
    """Closure of a tuple under the braid group: its members are the
    rows of `rows`, sorted; `seed` (the least) and `members` are tuple
    views of them."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    @property
    def seed(self) -> tuple[int, ...]:
        return tuple(self.rows[0].tolist())

    @property
    def members(self) -> list[tuple[int, ...]]:
        return [tuple(t) for t in self.rows.tolist()]

    @property
    def size(self) -> int:
        return len(self.rows)


def hurwitz_orbit(ncp: NcpLattice, seed: tuple[int, ...],
                  cap: int = DEFAULT_ORBIT_CAP) -> HurwitzOrbit:
    """The orbit of one seed, closed under the sigma_i by breadth-first
    search; the per-seed reference for `orbit_decomposition`."""
    seed = tuple(seed)
    seen = {seed}
    queue = deque([seed])
    while queue:
        t = queue.popleft()
        for i in range(1, len(seed)):
            u = hurwitz_act(ncp, t, i)
            if u not in seen:
                if len(seen) >= cap:
                    raise OrbitCapExceeded(f"orbit exceeded cap {cap}")
                seen.add(u)
                queue.append(u)
    return HurwitzOrbit(np.array(sorted(seen)))


def orbit_decomposition(ncp: NcpLattice, tuples,
                        cap: int = DEFAULT_ORBIT_CAP) -> list[HurwitzOrbit]:
    """Partition a set of factorisation tuples, all of one length (the
    rows of an array, or a list of tuples), into Hurwitz orbits: the
    connected components of the braid action on it.  Orbits come in order
    of their least members, which are their seeds."""
    return _orbits(*_orbit_labels(ncp, tuples, cap))


def _orbits(rows: np.ndarray, orbit_of: np.ndarray,
            sizes: np.ndarray) -> list[HurwitzOrbit]:
    """The rows grouped into orbits by their orbit numbers."""
    members = rows[np.argsort(orbit_of, kind="stable")]
    ends = np.cumsum(sizes).tolist()
    return [HurwitzOrbit(members[end - size:end])
            for size, end in zip(sizes.tolist(), ends)]


def _orbit_labels(ncp: NcpLattice, tuples, cap: int):
    """The distinct tuples as sorted rows, the orbit number of each row
    (orbits numbered by their least rows) and the orbit sizes.

    Each tuple is coded by the mixed-radix number of the ranks of its
    entries among the set's distinct positions, so the sorted codes list
    the distinct tuples in order.  Each sigma_i maps all of them at once
    and its images are looked up among the codes; the edges are
    undirected, so sigma_i^{-1} adds nothing."""
    given = _positions(ncp, np.asarray(tuples))
    if not len(given):
        empty = np.zeros(0, dtype=np.intp)
        return np.zeros((0, 0), dtype=np.intp), empty, empty
    present = np.zeros(ncp.size, dtype=bool)
    present[given] = True
    entry_rank = np.cumsum(present) - 1
    entries = int(entry_rank[-1]) + 1
    p = given.shape[1]
    if entries ** p > _CODE_LIMIT:
        raise OrbitCapExceeded(
            f"codes of {entries}^{p} tuples do not fit in 64 bits")
    radix = entries ** np.arange(p - 1, -1, -1, dtype=np.int64)
    codes, first = np.unique(entry_rank[given] @ radix, return_index=True)
    rows = given[first]
    size = len(rows)

    def locate(images: np.ndarray) -> np.ndarray:
        code = entry_rank[images] @ radix
        pos = np.minimum(np.searchsorted(codes, code), size - 1)
        if not (present[images].all()
                and np.array_equal(codes[pos], code)):
            raise ClassificationMismatch(
                "orbit left the supplied tuple set; invariants violated")
        return pos

    nodes = np.arange(size)
    label = components(size, [
        (nodes, locate(hurwitz_act(ncp, rows, i)))
        for i in range(1, p)])
    # components labels each node by the least node of its orbit
    is_seed = label == nodes
    orbit_of = (np.cumsum(is_seed) - 1)[label]
    sizes = np.bincount(orbit_of)
    if sizes.max() > cap:
        raise OrbitCapExceeded(f"orbit exceeded cap {cap}")
    return rows, orbit_of, sizes


def classify_primitive_orbits(ncp: NcpLattice, k: int, tuples,
                              cap: int = DEFAULT_ORBIT_CAP) -> dict:
    """Orbit decomposition of the primitive shape k 1^(n-k), with the
    orbit <-> long-factor-conjugacy-class bijection enforced; tuples are
    all factorisations of c of that shape, the long factor anywhere, as
    the rows of an array.
    "divisor_classes" is the set of conjugacy classes of the length-k
    divisors of c.

    The (orbit, class) pairs of the length-k factors of all rows are
    coded as orbit * classes + class; the bijection holds iff their
    distinct codes name every orbit once and their classes are the
    divisor classes."""
    group = ncp.group
    if k < 2 or k > group.n:
        raise ValueError("primitive shapes need 2 <= k <= n")
    rows, orbit_of, sizes = _orbit_labels(ncp, tuples, cap)
    row, col = np.nonzero(ncp.rank[rows] == k)
    classes = len(group.class_reps)
    codes = orbit_of[row] * classes + ncp.class_id[rows[row, col]]
    # a stable argsort, as np.unique's, pages in no further sort kernel
    codes = codes[np.argsort(codes, kind="stable")]
    pairs = codes[np.diff(codes, prepend=-1) != 0]
    orbit_numbers, class_of_orbit = np.divmod(pairs, classes)
    expected_classes = set(ncp.class_id[ncp.rank == k].tolist())
    if not (np.array_equal(orbit_numbers, np.arange(len(sizes)))
            and sorted(class_of_orbit.tolist()) == sorted(expected_classes)):
        raise ClassificationMismatch(
            f"{group.spec.label}: Hurwitz orbits do not biject with the "
            f"classes of length-{k} divisors")
    return {
        "orbits": _orbits(rows, orbit_of, sizes),
        "orbit_classes": class_of_orbit.tolist(),
        "divisor_classes": expected_classes,
        "total": len(tuples),
    }


def p2_orbit_formula(ncp: NcpLattice, u1: int, u2: int) -> set:
    """Closed form of a 2-block orbit, in member positions:
    {(u1^{c^k}, u2^{c^k}), (u2^{c^{k+1}}, u1^{c^k})} over k in Z, where
    x^v denotes v x v^{-1} (the reading under which the second family
    multiplies back to c).  Conjugation by c^{-1} keeps NCP and is the
    square of the Kreweras complement: K(K(x)) = c^{-1} x c."""
    kreweras = ncp.kreweras
    turns = [_positions(ncp, np.array([u1, u2]))]
    for _ in range(ncp.group.h):
        turns.append(kreweras[kreweras[turns[-1]]])
    conj = np.array(turns).tolist()  # (u1, u2)^{c^-k}, k = 0..h
    return ({(v1, v2) for v1, v2 in conj[:-1]}
            | {(v2, v1) for (_, v2), (v1, _) in zip(conj, conj[1:])})


# -- strong conjugacy --------------------------------------------------------

def strong_conjugacy_classes(ncp: NcpLattice) -> list[list[int]]:
    """Partition of NCP members under the closure of x w = w' x with
    x w in NCP and l(x w) = l(x) + l(w).

    Such a pair is a pair x <= y = x w of the order, with w = x^{-1} y and
    w' = y x^{-1}.  As x runs over the members below y, so does x' = q[x, y],
    with q[x', y] = y^{-1} x y: so the edges (q[q[x, y], y], x) over all of
    `leq` are the edges (w, w'), and the classes are their components.
    """
    x, y = np.nonzero(ncp.leq)
    label = components(ncp.size, [(ncp.q[ncp.q[x, y], y], x)])
    return _partition(ncp.members, label)


def conjugacy_partition_on_ncp(ncp: NcpLattice) -> list[list[int]]:
    """Ordinary W-conjugacy classes, restricted to the NCP members."""
    return _partition(ncp.members, ncp.class_id)


def _partition(members: np.ndarray, labels: np.ndarray) -> list[list[int]]:
    """Ascending members grouped by equal labels, as sorted blocks."""
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return sorted(b.tolist() for b in np.split(members[order], cuts))
