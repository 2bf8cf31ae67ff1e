"""Whole-array forms of computations that the package now does in bounded
working sets, kept as oracles for the tests.

Each function is the earlier package code: one step allocates a temporary
of the size of W (or of chains x |NCP|) where the package loops over
chunks, classes, columns or successor lists.
"""

from __future__ import annotations

import numpy as np

from ncpforge.cyclo import CycNum


def unchunked_products(group, a, b) -> np.ndarray:
    """`group.mult[a, b]` in one gather over all pairs."""
    perms = group.mult.perms
    images = perms[np.asarray(a)[..., None], perms[b, :group.n]]
    return group.mult.locate(images)


def mask_factorisations(ncp) -> dict[int, np.ndarray]:
    """`factorisations` by one (chains, |NCP|) boolean mask per step: the
    members strictly above each chain's end."""
    leq, rank, q = ncp.leq, ncp.rank, ncp.q
    chains = np.array([[ncp.bottom]])
    out = {}
    for p in range(ncp.group.n + 1):
        done = chains[:, -1] == ncp.top
        out[p] = ncp.members[q[chains[done, :-1], chains[done, 1:]]]
        chains = chains[~done]
        end = chains[:, -1]
        rows, nxt = np.nonzero(leq[end] & (rank > rank[end, None]))
        chains = np.column_stack((chains[rows], nxt))
    return out


def full_scan_fixator(group, w) -> list[int]:
    """`pointwise_fixator` by one (|W|, n, n, phi) sum over every element,
    every column and every power of w."""
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
