"""Block factorisations of the Coxeter element and their exact counts.

A factorisation is an ordered tuple of nontrivial element indices whose
product is c and whose reflection lengths add up to n.  Counts are computed
three independent ways: brute enumeration over the lattice, the discrete
derivative of the Zeta polynomial, and the closed Stirling-number form; any
pairwise mismatch raises LedgerDisagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import (
    LedgerDisagreement,
    NonIntegralCount,
    NotAChain,
    RedCountMismatch,
)
from .group import ReflectionGroup
from .ncp import NcpLattice, fuss_catalan


def is_factorisation(group: ReflectionGroup, factors: tuple[int, ...],
                     target: int | None = None) -> bool:
    if target is None:
        target = group.coxeter
    if any(w == group.identity for w in factors):
        return False
    if group.product(*factors) != target:
        return False
    total = sum(int(group.length[w]) for w in factors)
    return total == int(group.length[target])


def composition_of(group: ReflectionGroup, factors: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(group.length[w]) for w in factors)


def red_count_formula(group: ReflectionGroup) -> int:
    n, h = group.n, group.h
    value = Fraction(factorial(n) * h ** n, group.size)
    if value.denominator != 1:
        raise NonIntegralCount(
            f"{group.spec.label}: n! h^n / |W| is {value}")
    return value.numerator


def iter_factorisations(ncp: NcpLattice, target: int | None = None,
                        blocks: int | None = None):
    """All block factorisations of target (default c), optionally with a
    fixed number of blocks; depth-first, canonical index order."""
    group = ncp.group
    if target is None:
        target = ncp.c

    def rec(w: int, remaining: int | None, prefix: list[int]):
        lw = int(group.length[w])
        if lw == 0:
            if remaining in (None, 0):
                yield tuple(prefix)
            return
        if remaining == 0:
            return
        if remaining is not None and remaining > lw:
            return
        for u in ncp.divisors_of(w):
            if u == group.identity:
                continue
            quotient = int(ncp.quotients[ncp.pos[u], ncp.pos[w]])
            prefix.append(u)
            yield from rec(quotient,
                           None if remaining is None else remaining - 1,
                           prefix)
            prefix.pop()

    yield from rec(target, blocks, [])


def iter_fact_with_composition(ncp: NcpLattice, mu: tuple[int, ...],
                               target: int | None = None):
    """Factorisations with the exact composition mu of l(target)."""
    group = ncp.group
    if target is None:
        target = ncp.c
    if sum(mu) != int(group.length[target]) or any(p < 1 for p in mu):
        raise ValueError(f"{mu} is not a composition of l(target)")

    def rec(w: int, pos: int, prefix: list[int]):
        if pos == len(mu):
            if w == group.identity:
                yield tuple(prefix)
            return
        want = mu[pos]
        for u in ncp.divisors_of(w):
            if int(group.length[u]) != want:
                continue
            quotient = group.product(group.inverse(u), w)
            prefix.append(u)
            yield from rec(quotient, pos + 1, prefix)
            prefix.pop()

    yield from rec(target, 0, [])


def enumerate_red(ncp: NcpLattice, check: bool = True) -> list[tuple[int, ...]]:
    """All reduced decompositions of c; count must equal n! h^n / |W|."""
    group = ncp.group
    n = group.n
    red = list(iter_fact_with_composition(ncp, (1,) * n))
    if check and len(red) != red_count_formula(group):
        raise RedCountMismatch(
            f"{group.spec.label}: enumerated {len(red)}, "
            f"formula gives {red_count_formula(group)}")
    return red


def two_reflection_factorisations(ncp: NcpLattice, w: int) -> list[tuple[int, int]]:
    """Pairs (r1, r2) of reflections with r1 r2 = w (w of length 2)."""
    group = ncp.group
    pairs = []
    for r1 in ncp.reflections_below(w):
        r2 = group.product(group.inverse(r1), w)
        if int(group.length[r2]) == 1:
            pairs.append((r1, r2))
    return pairs


# -- closed-form counts ----------------------------------------------------

def zeta_polynomial(degrees) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of Z(X) = prod ((d_i - h) + h X) / d_i."""
    h = degrees[-1]
    coeffs = [Fraction(1)]
    for d in degrees:
        a, b = Fraction(d - h, d), Fraction(h, d)  # a + b X
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, ci in enumerate(coeffs):
            new[i] += ci * a
            new[i + 1] += ci * b
        coeffs = new
    return tuple(coeffs)


def eval_poly(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fact_count_zeta(degrees, p: int) -> int:
    """fact_p = Delta^p Z (0) = sum_k (-1)^(p-k) C(p,k) Z(k)."""
    coeffs = zeta_polynomial(degrees)
    value = sum((-1) ** (p - k) * comb(p, k) * eval_poly(coeffs, k)
                for k in range(p + 1))
    if value.denominator != 1:
        raise NonIntegralCount(
            f"fact_{p} from the zeta polynomial of degrees "
            f"{tuple(degrees)} is {value}")
    return value.numerator


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
    value = Fraction(factorial(n - p) * h ** (n - p) * total, order)
    if value.denominator != 1:
        raise NonIntegralCount(
            f"Stirling form of fact_{blocks} for degrees {tuple(degrees)} "
            f"is {value}")
    return value.numerator


# -- the ledger ------------------------------------------------------------

@dataclass
class CountLedger:
    group_label: str
    fact_enumerated: dict[int, int]
    fact_zeta: dict[int, int]
    fact_stirling: dict[int, int]
    by_composition: dict[tuple[int, ...], int]


def fact_counts(group: ReflectionGroup, facts) -> CountLedger:
    """Fill the ledger three independent ways and require agreement; facts
    are all block factorisations of c (`iter_factorisations`)."""
    n = group.n
    by_comp: dict[tuple[int, ...], int] = {}
    enumerated = {p: 0 for p in range(1, n + 1)}
    for fact in facts:
        comp = composition_of(group, fact)
        by_comp[comp] = by_comp.get(comp, 0) + 1
        enumerated[len(fact)] += 1
    zeta = {p: fact_count_zeta(group.degrees, p) for p in range(1, n + 1)}
    stirling = {p: fact_count_stirling(group.degrees, group.size, p)
                for p in range(1, n + 1)}
    if not (enumerated == zeta == stirling):
        raise LedgerDisagreement(
            f"{group.spec.label}: enumeration {enumerated}, "
            f"zeta {zeta}, stirling {stirling}")
    return CountLedger(
        group_label=group.spec.label,
        fact_enumerated=enumerated,
        fact_zeta=zeta,
        fact_stirling=stirling,
        by_composition=by_comp,
    )


# -- chains <-> factorisations ----------------------------------------------

def chain_to_factorisation(ncp: NcpLattice, chain) -> tuple[int, ...]:
    """Multichain (w_1 <= ... <= w_N, each <= c) to a block factorisation,
    by erasing repeats and taking successive quotients up to c."""
    group = ncp.group
    for w in chain:
        ncp.member_index(w)
    for u, v in zip(chain, chain[1:]):
        if not ncp.leq_elements(u, v):
            raise NotAChain("sequence is not weakly increasing")
    strict = [group.identity]
    for w in list(chain) + [ncp.c]:
        if w != strict[-1]:
            strict.append(w)
    factors = tuple(
        group.product(group.inverse(u), v)
        for u, v in zip(strict, strict[1:]))
    return factors


def factorisation_to_multichain(ncp: NcpLattice, factors, repeats) -> tuple[int, ...]:
    """Inverse direction: repeats = (r_0, ..., r_p) with r_i >= 1 for
    0 < i < p; produces the multichain with each partial product h_i
    repeated r_i times (and r_0 leading identities)."""
    group = ncp.group
    p = len(factors)
    if len(repeats) != p + 1:
        raise ValueError("need p+1 repeat counts")
    if any(r < 1 for r in repeats[1:p]) or any(r < 0 for r in repeats):
        raise ValueError("interior repeat counts must be >= 1")
    partials = [group.identity]
    for f in factors:
        partials.append(group.product(partials[-1], f))
    if partials[-1] != ncp.c:
        raise NotAChain("factors do not multiply to c")
    chain: list[int] = []
    for h, r in zip(partials, repeats):
        chain.extend([h] * r)
    return tuple(chain)


def iter_multichains(ncp: NcpLattice, chain_length: int):
    """All multichains w_1 <= ... <= w_N <= c (exhaustive; small N only)."""
    size = ncp.size

    def rec(start_candidates, depth, prefix):
        if depth == 0:
            yield tuple(prefix)
            return
        for j in start_candidates:
            w = ncp.members[j]
            above = [k for k in range(size) if ncp.leq[j, k]]
            prefix.append(w)
            yield from rec(above, depth - 1, prefix)
            prefix.pop()

    yield from rec(range(size), chain_length, [])


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
