"""Type A checked against an oracle that shares no code with the matrix path.

The oracle builds S_{n+1} as plain tuples: a permutation of 0..n is the
tuple of its images, a product a*b applies b first, the absolute
(reflection) length is n+1 minus the number of cycles, and c is the long
cycle (1 2 ... n+1).  Divisors of w are the u with l(u) + l(u^-1 w) = l(w);
a block factorisation of c peels one nontrivial divisor off the remaining
quotient at a time until the identity is left.  Only the two comparison
tests below read `ncpforge`.
"""

from functools import lru_cache
from itertools import permutations
from math import comb

import pytest

from ncpforge.catalog import GroupSpec
from ncpforge.cli import GroupContext
from ncpforge.group import build_group
from ncpforge.ncp import build_ncp

RANKS = [1, 2, 3, 4]


# -- the oracle: permutations as tuples -------------------------------------

def compose(a: tuple, b: tuple) -> tuple:
    """a*b: apply b, then a."""
    return tuple(a[x] for x in b)


def inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def absolute_length(a: tuple) -> int:
    seen, cycles = set(), 0
    for start in range(len(a)):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = a[x]
    return len(a) - cycles


def long_cycle(n: int) -> tuple:
    """c = (1 2 ... n+1) on 0..n."""
    return tuple(list(range(1, n + 1)) + [0])


def divisors(w: tuple) -> list[tuple]:
    """Every u <= w in absolute order, by testing all of S_{n+1}."""
    lw = absolute_length(w)
    return [u for u in permutations(range(len(w)))
            if absolute_length(u)
            + absolute_length(compose(inverse(u), w)) == lw]


@lru_cache(maxsize=None)
def factorisation_counts(w: tuple) -> dict[int, int]:
    """p -> number of block factorisations of w into p nontrivial blocks
    whose lengths add up to l(w), by depth-first search."""
    identity = tuple(range(len(w)))
    if w == identity:
        return {0: 1}
    counts: dict[int, int] = {}
    for u in divisors(w):
        if u != identity:
            for p, k in factorisation_counts(compose(inverse(u), w)).items():
                counts[p + 1] = counts.get(p + 1, 0) + k
    return counts


# -- the oracle against the closed forms and the matrix path -----------------

@pytest.mark.parametrize("n", RANKS)
def test_oracle_gives_catalan_and_cayley_counts(n):
    c = long_cycle(n)
    assert absolute_length(c) == n
    assert len(divisors(c)) == comb(2 * n + 2, n + 1) // (n + 2)
    assert factorisation_counts(c)[n] == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", RANKS)
def test_matrix_path_matches_the_oracle(n):
    group = build_group(GroupSpec("A", n))
    ncp = build_ncp(group)
    ledger = GroupContext(group, ncp).ledger
    c = long_cycle(n)
    assert ncp.size == len(divisors(c))
    assert ledger.fact_enumerated == factorisation_counts(c)
