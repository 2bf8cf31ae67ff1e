"""Block factorisations of the Coxeter element and their exact counts.

A factorisation is an ordered tuple of nontrivial divisors of c, held as
member positions of NCP_W(c), whose product is c and whose reflection
lengths add up to n.  The p-block factorisations are the strict chains
1 = x_0 < ... < x_p = c of NCP_W(c), with blocks q[x_{i-1}, x_i];
`factorisations` lists them as one (count, p) int32 array per block count
p, one whole-array step per block over each member's strict successors.
Counts are computed three independent ways, all in integers: the lengths
of those arrays, the finite differences of the Fuss-Catalan numbers (the
values of the zeta polynomial at the integers), and the closed
Stirling-number form; any pairwise mismatch raises LedgerDisagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import LedgerDisagreement
from .group import ReflectionGroup
from .ncp import NcpLattice, exact_quotient, fuss_catalan


def red_count_formula(group: ReflectionGroup) -> int:
    n, h = group.n, group.h
    return exact_quotient(factorial(n) * h ** n, group.size,
                          f"{group.spec.label}: n! h^n / |W|")


def factorisations(ncp: NcpLattice) -> dict[int, np.ndarray]:
    """The block factorisations of c as one (count, p) int32 array of
    member positions per block count p = 0..n, one factorisation per row.
    Each step extends every strict chain from 1 by each member strictly
    above its end; the chains that reach c are read off as rows of blocks.

    The strict successors of member x are dst[indptr[x]:indptr[x + 1]],
    ascending, so each step repeats every chain once per successor of its
    end, in the row order of the (chains, |NCP|) mask it replaces, and
    allocates nothing larger than the new chains."""
    rank, q = ncp.rank, ncp.q
    src, dst = np.nonzero(ncp.leq & (rank[:, None] < rank))
    indptr = np.searchsorted(src, np.arange(ncp.size + 1))
    dst, chains = dst.astype(np.int32), np.array([[ncp.bottom]], np.int32)
    out = {}
    for p in range(ncp.group.n + 1):
        done = chains[:, -1] == ncp.top
        out[p] = q[chains[done, :-1], chains[done, 1:]]
        chains = chains[~done]
        start, stop = indptr[chains[:, -1]], indptr[chains[:, -1] + 1]
        count = stop - start
        # successor t of chain i sits at dst[start[i] + t]
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                     count)
        chains = np.column_stack((np.repeat(chains, count, axis=0),
                                  dst[np.repeat(start, count) + offset]))
    return out


def iter_factorisations(ncp: NcpLattice):
    """All block factorisations of c as tuples of member positions, by
    block count; a view of `factorisations`."""
    return (tuple(t) for rows in factorisations(ncp).values()
            for t in rows.tolist())


def iter_fact_with_composition(ncp: NcpLattice, mu: tuple[int, ...]):
    """Factorisations of c with the exact composition mu of l(c), in the
    order of `iter_factorisations`."""
    if sum(mu) != int(ncp.rank[ncp.top]) or any(p < 1 for p in mu):
        raise ValueError(f"{mu} is not a composition of l(c)")
    rows = factorisations(ncp)[len(mu)]
    rows = rows[(ncp.rank[rows] == mu).all(axis=1)]
    return (tuple(t) for t in rows.tolist())


def two_reflection_factorisations(ncp: NcpLattice, y: int) -> list[tuple[int, int]]:
    """Pairs (r1, r2) of reflections with r1 r2 = y (member positions, y
    of rank 2): r1 runs over the rank-1 members below y; r2 = q[r1, y]."""
    r1 = np.flatnonzero(ncp.leq[:, y] & (ncp.rank == 1))
    r2 = ncp.q[r1, y]
    return list(zip(*np.stack((r1, r2))[:, ncp.rank[r2] == 1].tolist()))


# -- closed-form counts ----------------------------------------------------

def fact_counts_zeta(degrees, pmax: int) -> dict[int, int]:
    """fact_p = Delta^p Z (0) = sum_k (-1)^(p-k) C(p,k) Z(k) for
    p = 1..pmax.  The zeta polynomial Z(X) = prod ((d_i - h) + h X) / d_i
    takes the Fuss-Catalan value Z(k) = Cat^(k-1)(W) at each integer k,
    and Z(0) = 0 since d_n = h."""
    values = [fuss_catalan(degrees, k - 1) for k in range(pmax + 1)]
    return {p: sum((-1) ** (p - k) * comb(p, k) * values[k]
                   for k in range(p + 1))
            for p in range(1, pmax + 1)}


@lru_cache(maxsize=None)
def stirling2(p: int, k: int) -> int:
    if p == k:
        return 1
    if k == 0 or k > p:
        return 0
    return k * stirling2(p - 1, k) + stirling2(p - 1, k - 1)


def _elementary_symmetric(values) -> list[int]:
    es = [1] + [0] * len(values)
    for v in values:
        for k in range(len(values), 0, -1):
            es[k] += es[k - 1] * v
    return es


def fact_count_stirling(degrees, order: int, blocks: int) -> int:
    """Closed Stirling form for fact_{n-p} in terms of the codegrees."""
    n = len(degrees)
    h = degrees[-1]
    p = n - blocks
    codegrees = [h - d for d in degrees[:-1]]
    sigma = _elementary_symmetric(codegrees)
    total = sum(
        (-1) ** (p - j) * sigma[p - j] * stirling2(n - p + j, n - p) * h ** j
        for j in range(p + 1))
    return exact_quotient(factorial(n - p) * h ** (n - p) * total, order,
                          f"Stirling form of fact_{blocks} for degrees "
                          f"{tuple(degrees)}")


# -- the ledger ------------------------------------------------------------

@dataclass
class CountLedger:
    fact_enumerated: dict[int, int]
    fact_zeta: dict[int, int]
    fact_stirling: dict[int, int]


def fact_counts(group: ReflectionGroup, by_blocks) -> CountLedger:
    """Fill the ledger three independent ways and require agreement;
    by_blocks holds the block factorisations of c (`factorisations`)."""
    n = group.n
    enumerated = {p: len(by_blocks[p]) for p in range(1, n + 1)}
    zeta = fact_counts_zeta(group.degrees, n)
    stirling = {p: fact_count_stirling(group.degrees, group.size, p)
                for p in range(1, n + 1)}
    if not (enumerated == zeta == stirling):
        raise LedgerDisagreement(
            f"{group.spec.label}: enumeration {enumerated}, "
            f"zeta {zeta}, stirling {stirling}")
    return CountLedger(fact_enumerated=enumerated, fact_zeta=zeta,
                       fact_stirling=stirling)


def chapoton_identity(group: ReflectionGroup, ledger: CountLedger,
                      chain_length: int) -> dict:
    """Both sides of sum_p C(N+1, p) fact_p = prod (d_i + N h) / d_i."""
    n = group.n
    lhs = sum(comb(chain_length + 1, p) * ledger.fact_enumerated[p]
              for p in range(1, n + 1))
    rhs = fuss_catalan(group.degrees, chain_length)
    return {
        "group": group.spec.label,
        "N": chain_length,
        "lhs": lhs,
        "rhs": rhs,
        "pass": lhs == rhs,
    }
