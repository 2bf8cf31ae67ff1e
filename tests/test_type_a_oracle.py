"""Type A checked against an oracle that shares no code with the matrix path.

The oracle builds S_{n+1} as plain tuples: a permutation of 0..n is the
tuple of its images, a product a*b applies b first, the absolute
(reflection) length is n+1 minus the number of cycles, and c is the long
cycle (1 2 ... n+1).  Divisors of w are the u with l(u) + l(u^-1 w) = l(w);
a block factorisation of c peels one nontrivial divisor off the remaining
quotient at a time until the identity is left.  The length-2 strata are
the length-2 divisors of c classed by cycle type (conjugacy in S_{n+1}):
r counts the ordered pairs of transpositions whose product is a
representative, and u is the number of (n-1)-block factorisations of c
whose length-2 block has that type, divided by (n-1)! h^(n-1) / |W| with
h = n+1 and |W| = (n+1)!.  Only the three comparison tests below read
`ncpforge`.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

import pytest

from ncpforge.catalog import GroupSpec
from ncpforge.cli import GroupContext
from ncpforge.group import build_group
from ncpforge.ncp import build_ncp

RANKS = [1, 2, 3, 4, 5]


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


def cycle_type(a: tuple) -> tuple:
    """The cycle lengths of a, in decreasing order."""
    seen, lengths = set(), []
    for start in range(len(a)):
        if start not in seen:
            x, size = start, 0
            while x not in seen:
                seen.add(x)
                x, size = a[x], size + 1
            lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def submaximal_types(w: tuple) -> dict[tuple, int]:
    """cycle type -> number of factorisations of w into transpositions and
    exactly one length-2 block, by the cycle type of that block."""
    counts: dict[tuple, int] = {}
    for u in divisors(w):
        rest = compose(inverse(u), w)
        if absolute_length(u) == 1:
            for kind, k in submaximal_types(rest).items():
                counts[kind] = counts.get(kind, 0) + k
        elif absolute_length(u) == 2:
            reduced = factorisation_counts(rest)[absolute_length(rest)]
            counts[cycle_type(u)] = counts.get(cycle_type(u), 0) + reduced
    return counts


def strata(n: int) -> list[tuple[int, int]]:
    """The (r, u) pair of each length-2 stratum of NCP(c), sorted."""
    c = long_cycle(n)
    representative = {}
    for u in divisors(c):
        if absolute_length(u) == 2:
            representative.setdefault(cycle_type(u), u)
    transpositions = [t for t in permutations(range(n + 1))
                      if absolute_length(t) == 1]
    scale = Fraction(factorial(n - 1) * (n + 1) ** (n - 1), factorial(n + 1))
    counts = submaximal_types(c)
    pairs = []
    for kind, w in representative.items():
        r = sum(compose(s, t) == w for s in transpositions
                for t in transpositions)
        u = counts[kind] / scale
        assert u.denominator == 1
        pairs.append((r, u.numerator))
    return sorted(pairs)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_strata_match_the_oracle(n):
    group = build_group(GroupSpec("A", n))
    context = GroupContext(group, build_ncp(group))
    assert sorted((s.r, s.u) for s in context.strata) == strata(n)
