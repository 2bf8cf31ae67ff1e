"""Earlier forms of computations that the package now does in bounded
working sets or with fewer passes, kept as oracles for the tests.

Each function is the earlier package code.  Most allocate a temporary of
the size of W (or of chains x |NCP|) where the package loops over chunks,
classes, columns or successor lists; the Hurwitz references look entries
up by `searchsorted` where the package ranks them by a cumulative sum,
and classify each orbit on its own, reading its classes in W.
"""

from __future__ import annotations

import numpy as np

from ncpforge.cyclo import CycNum
from ncpforge.errors import (ClassificationMismatch, CoxeterValidationFailed,
                             ElementNotInGroup, OrbitCapExceeded)
from ncpforge.group import _CODE_LIMIT, components
from ncpforge.hurwitz import DEFAULT_ORBIT_CAP, HurwitzOrbit, hurwitz_act


def unchunked_products(group, a, b) -> np.ndarray:
    """`group.mult[a, b]` in one gather over all pairs."""
    perms = group.mult.perms
    images = perms[np.asarray(a)[..., None], perms[b, :group.n]]
    return group.mult.locate(images)


def two_lookup_conjugates(group, g: int, x) -> np.ndarray:
    """g x g^-1 for each element of x by two `mult` lookups, g (x g^-1)."""
    return group.mult[g, group.mult[x, group.inverse(g)]]


def two_lookup_classes(group) -> tuple[np.ndarray, np.ndarray]:
    """`class_id` and `class_reps` from the edges w -> g w g^-1 for each
    generator g, every conjugate by `two_lookup_conjugates`."""
    elements = np.arange(group.size)
    label = components(group.size, [
        (elements, two_lookup_conjugates(group, g, elements))
        for g in group.generators])
    reps, class_id = np.unique(label, return_inverse=True)
    return class_id.astype(np.int32), reps.astype(np.int32)


def w_wide_lattice(group) -> dict[str, np.ndarray | int]:
    """The arrays of `NcpLattice` by the earlier two passes: membership
    l(w) + l(w^-1 c) = l(c) tested on every element of W, through |W|
    inverses from `np.argsort(perms)`, then the covers x < x r among the
    members and their closure, rank by rank, and the tables scattered
    over the pairs of the order."""
    perms, length, c = group.mult.perms, group.length, group.coxeter
    inv = group.mult.locate(np.argsort(perms, axis=1)[:, :group.n])
    lc = int(length[c])
    members = np.flatnonzero(length + length[group.mult[inv, c]] == lc)
    members = members.astype(np.int32)
    size = len(members)
    position = np.full(group.size, -1, dtype=np.int32)
    position[members] = np.arange(size, dtype=np.int32)
    rank = length[members].astype(np.int32)
    xr = position[group.mult[members[:, None], group.reflections]]
    low, col = np.nonzero((xr >= 0) & (rank[xr] == rank[:, None] + 1))
    high = xr[low, col]
    up = np.packbits(np.eye(size, dtype=bool), axis=1, bitorder="little")
    for k in range(lc - 1, -1, -1):
        lo, hi = low[rank[low] == k], high[rank[low] == k]
        first = np.flatnonzero(np.diff(lo, prepend=-1))
        up[lo[first]] |= np.bitwise_or.reduceat(up[hi], first)
    leq = np.unpackbits(up, 1, size, "little").view(bool)
    x, y = np.nonzero(leq)
    a = position[group.mult[inv[members[x]], members[y]]]
    q, prod, rq = np.full((3, size, size), -1, dtype=np.int32)
    q[x, y], prod[x, a], rq[a, y] = a, y, x
    return {"members": members, "position": position, "rank": rank,
            "bottom": int(position[group.identity]),
            "top": int(position[c]), "leq": leq, "q": q, "prod": prod,
            "rq": rq}


def mask_factorisations(ncp) -> dict[int, np.ndarray]:
    """`factorisations` by one (chains, |NCP|) boolean mask per step: the
    members strictly above each chain's end."""
    leq, rank, q = ncp.leq, ncp.rank, ncp.q
    chains = np.array([[ncp.bottom]])
    out = {}
    for p in range(ncp.group.n + 1):
        done = chains[:, -1] == ncp.top
        out[p] = q[chains[done, :-1], chains[done, 1:]]
        chains = chains[~done]
        end = chains[:, -1]
        rows, nxt = np.nonzero(leq[end] & (rank > rank[end, None]))
        chains = np.column_stack((chains[rows], nxt))
    return out


def word_lengths(group, gens) -> np.ndarray:
    """Distance of every element from the identity by left multiplication
    with gens, breadth-first over whole frontiers; -1 where gens do not
    reach.  The elements reached form the subgroup that gens generate;
    with gens the reflections this is the reflection length, which the
    build reads from the classes."""
    gens = np.flatnonzero(np.bincount(np.array(gens, dtype=np.int32),
                                      minlength=group.size))
    dist = np.full(group.size, -1, dtype=np.int32)
    dist[group.identity] = 0
    frontier = np.array([group.identity], dtype=np.int32)
    d = 0
    while frontier.size and gens.size:
        d += 1
        reached = group.mult[gens[:, None], frontier].ravel()
        dist[reached[dist[reached] < 0]] = d
        frontier = np.flatnonzero(dist == d)
    return dist


def subgroup_closure(group, gens) -> list[int]:
    """Sorted element indices of the subgroup generated by gens, by
    `word_lengths` over all of W."""
    return np.nonzero(word_lengths(group, gens) >= 0)[0].tolist()


def full_scan_fixator(group, w) -> list[int]:
    """`pointwise_fixator` among all of W by one (|W|, n, n, phi) sum over
    every element, every column and every power of w."""
    perms, coords = group.mult.perms, group.coords
    target = np.zeros((group.n, *coords.shape[1:]), dtype=np.int64)
    moved = np.zeros((group.size, *target.shape), dtype=np.int64)
    for images in group.powers(w):
        target += coords[images]
        moved += coords[perms[:, images]]
    return np.nonzero((moved == target).all(axis=(1, 2, 3)))[0].tolist()


def product_integer_columns(g, n: int, m: int, phi: int):
    """The columns of the exact matrix g on the n * phi(m) power-basis
    coefficients, as lists of nonzero (row, coefficient) pairs, by one
    exact product g_ij zeta^b per entry and power; None if an entry is not
    integral."""
    columns = []
    for j in range(n):
        for b in range(phi):
            z = CycNum.zeta(m, b)
            products = [(g.rows[i][j] * z).coeffs for i in range(n)]
            if any(c.denominator != 1 for p in products for c in p):
                return None
            columns.append([(i * phi + a, c.numerator)
                            for i, p in enumerate(products)
                            for a, c in enumerate(p) if c])
    return columns


def per_class_fixed_dims(group) -> np.ndarray:
    """`fixed_dim` by one `powers(w)` walk per conjugacy class."""
    diagonal = np.arange(group.n)
    dims = np.empty(len(group.class_reps), dtype=np.int32)
    for cid, w in enumerate(group.class_reps.tolist()):
        powers = group.powers(w)
        total = group.coords[powers, diagonal].sum(axis=(0, 1))
        dim, rest = divmod(int(total[0]), len(powers))
        if total[1:].any() or rest or not 0 <= dim <= group.n:
            raise CoxeterValidationFailed(
                f"{group.spec.label}: character average of element {w} "
                f"is not a dimension in 0..{group.n}")
        dims[cid] = dim
    return dims[group.class_id]


def searched_orbit_decomposition(ncp, tuples, cap=DEFAULT_ORBIT_CAP):
    """`orbit_decomposition` with the entries ranked among the distinct
    member positions by `searchsorted`, images located the same way, and
    orbits numbered by `np.unique` of the component labels."""
    given = np.asarray(tuples)
    if not len(given):
        return []
    if given.min() < 0:
        raise ElementNotInGroup("an element is not a divisor of c")
    entries = np.flatnonzero(np.bincount(given.ravel()))
    p = given.shape[1]
    if len(entries) ** p > _CODE_LIMIT:
        raise OrbitCapExceeded(
            f"codes of {len(entries)}^{p} tuples do not fit in 64 bits")
    radix = len(entries) ** np.arange(p - 1, -1, -1, dtype=np.int64)
    codes, first = np.unique(np.searchsorted(entries, given) @ radix,
                             return_index=True)
    rows = given[first]
    size = len(rows)

    def locate(images: np.ndarray) -> np.ndarray:
        ranks = np.minimum(np.searchsorted(entries, images), len(entries) - 1)
        code = ranks @ radix
        pos = np.minimum(np.searchsorted(codes, code), size - 1)
        if not (np.all(entries[ranks] == images)
                and np.all(codes[pos] == code)):
            raise ClassificationMismatch(
                "orbit left the supplied tuple set; invariants violated")
        return pos

    nodes = np.arange(size)
    label = components(size, [
        (nodes, locate(hurwitz_act(ncp, rows, i)))
        for i in range(1, p)])
    _, orbit_of, sizes = np.unique(label, return_inverse=True,
                                   return_counts=True)
    if sizes.max() > cap:
        raise OrbitCapExceeded(f"orbit exceeded cap {cap}")
    members = rows[np.argsort(orbit_of, kind="stable")]
    return [HurwitzOrbit(part)
            for part in np.split(members, np.cumsum(sizes)[:-1])]


def per_orbit_classification(ncp, k, tuples, cap=DEFAULT_ORBIT_CAP) -> dict:
    """`classify_primitive_orbits` by one `bincount` of the classes of
    the length-k factors per orbit of `searched_orbit_decomposition`, with
    lengths and classes read off the factors' element indices."""
    group = ncp.group
    if k < 2 or k > group.n:
        raise ValueError("primitive shapes need 2 <= k <= n")
    orbits = searched_orbit_decomposition(ncp, tuples, cap=cap)
    factors = [ncp.members[o.rows] for o in orbits]
    found = [np.flatnonzero(np.bincount(
        group.class_id[elements[group.length[elements] == k]]))
             for elements in factors]
    class_of_orbit = [int(c[0]) for c in found if len(c) == 1]
    expected_classes = set(
        group.class_id[ncp.members[ncp.rank == k]].tolist())
    if (len(class_of_orbit) != len(orbits)
            or sorted(class_of_orbit) != sorted(expected_classes)):
        raise ClassificationMismatch(
            f"{group.spec.label}: Hurwitz orbits do not biject with the "
            f"classes of length-{k} divisors")
    return {
        "orbits": orbits,
        "orbit_classes": class_of_orbit,
        "divisor_classes": expected_classes,
        "total": len(tuples),
    }
