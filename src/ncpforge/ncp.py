"""The noncrossing partition lattice NCP_W(c) = [1, c] under absolute order."""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import (
    CatalanMismatch,
    ClassificationMismatch,
    ElementNotInGroup,
    MeetJoinMissing,
    NonIntegralCount,
    OrderCapExceeded,
)
from .group import ReflectionGroup

# pairs per chunk of `missing_meets_joins`; each of its temporaries takes
# this many rows of |NCP| / 8 bytes (4.3 MB on E7's 4160 members), however
# many pairs there are
_PAIR_CHUNK = 1 << 13
# _LOWEST_BIT[b]: position of the lowest set bit of the byte b (0 for b = 0)
_LOWEST_BIT = np.array([max((b & -b).bit_length() - 1, 0) for b in range(256)],
                       dtype=np.intp)


def fuss_catalan(degrees, k: int = 1) -> int:
    """prod (d_i + k*h) / d_i, exact; k = -1 gives 0, since d_n = h."""
    h = degrees[-1]
    return exact_quotient(prod(d + k * h for d in degrees), prod(degrees),
                          f"Fuss-Catalan number for degrees {tuple(degrees)}, "
                          f"k = {k}")


def exact_quotient(num: int, den: int, what: str,
                   error=NonIntegralCount) -> int:
    """num / den, which must be an integer; otherwise `error`, naming what."""
    value, rem = divmod(num, den)
    if rem:
        raise error(f"{what} is {num}/{den}, not an integer")
    return value


class NcpLattice:
    """Divisors of the Coxeter element: `members` (element indices, int32)
    and `position` (element index -> member position, -1 outside NCP).
    On member positions: `rank`, the order `leq` and three int32 product
    tables, -1 off their domain: q[x, y] = x^{-1} y and rq[x, y] = y x^{-1}
    for x <= y, and prod[x, a] = x a for x <= x a."""

    def __init__(self, group: ReflectionGroup):
        self.group = group
        self.c = c = group.coxeter
        inv, length = group.inv, group.length
        lc = int(length[c])
        quot = group.mult[inv, c]  # quot[w] = w^{-1} c
        member_mask = length + length[quot] == lc
        # element indices are canonical (code order), so is this order
        self.members = np.flatnonzero(member_mask).astype(np.int32)
        expected = fuss_catalan(group.degrees, 1)
        if len(self.members) != expected:
            raise CatalanMismatch(
                f"{group.spec.label}: |NCP| = {len(self.members)}, "
                f"formula gives {expected}")
        self.size = len(self.members)
        self.position = np.full(group.size, -1, dtype=np.int32)
        self.position[self.members] = np.arange(self.size, dtype=np.int32)
        self.rank = length[self.members].astype(np.int32)
        self.bottom = int(self.position[group.identity])
        self.top = int(self.position[c])

        # quotients[x, y] = members[x]^{-1} members[y] (element indices)
        quotients = group.mult[np.ix_(inv[self.members], self.members)]
        self.leq = ((self.rank[:, None] + length[quotients])
                    == self.rank[None, :])
        self.q, self.prod, self.rq = order_tables(
            self.position[quotients], self.leq, group.spec.label)

    # -- order structure ---------------------------------------------------

    def member_index(self, w):
        """The member position of an element index, or of each entry of an
        array of them; an element outside NCP raises ElementNotInGroup."""
        w = np.asarray(w)
        if ((0 <= w) & (w < len(self.position))).all():
            position = self.position[w]
            if (position >= 0).all():
                return position
        raise ElementNotInGroup("an element is not a divisor of c")

    def meet(self, u: int, v: int) -> int:
        """Greatest lower bound (element indices in and out)."""
        i, j = self.member_index(u), self.member_index(v)
        below = np.nonzero(self.leq[:, i] & self.leq[:, j])[0]
        return self._extreme(below, upper=True, what="meet")

    def join(self, u: int, v: int) -> int:
        i, j = self.member_index(u), self.member_index(v)
        above = np.nonzero(self.leq[i, :] & self.leq[j, :])[0]
        return self._extreme(above, upper=False, what="join")

    def _extreme(self, candidates: np.ndarray, upper: bool, what: str) -> int:
        if candidates.size:
            ranks = self.rank[candidates]
            best = candidates[int(np.argmax(ranks) if upper
                                  else np.argmin(ranks))]
            if upper:
                ok = self.leq[candidates, best].all()
            else:
                ok = self.leq[best, candidates].all()
            if ok:
                return int(self.members[best])
        raise MeetJoinMissing(
            f"{self.group.spec.label}: no {what} for the pair")

    def missing_meets_joins(self) -> int:
        """Number of member pairs i <= j without a meet, counted as `meet`
        would find them: the candidate is the first common lower bound of
        greatest rank, and the pair is missing when there is no bound or
        some bound is not below the candidate.

        The down-sets are packed as bits in (-rank, index) order, so the
        first set bit of two members' common down-set is exactly the
        candidate that `meet` picks.  All pairs are checked at once, a
        fixed chunk at a time.

        No join is checked: a finite meet-semilattice with a greatest
        element is a lattice, and under strict grading the join of two
        members is their only common upper bound of least rank, so it is
        the candidate that `join` picks.  Every NcpLattice has both
        premises by construction: c lies above every member, since
        membership is l(w) + l(w^-1 c) = l(c), and x <= y means
        rank x + l(x^-1 y) = rank y, where only the identity has length
        0."""
        size, rank = self.size, self.rank
        order = np.argsort(-rank, kind="stable")
        # bit p of bits[k] is set iff order[p] <= k
        bits = np.packbits(self.leq.T[:, order], axis=1, bitorder="little")
        row_len = np.arange(size, 0, -1)
        row_start = np.cumsum(row_len) - row_len
        pairs = size * (size + 1) // 2
        missing = 0
        # pair t of row i is row_start[i] + j - i
        for start in range(0, pairs, _PAIR_CHUNK):
            t = np.arange(start, min(start + _PAIR_CHUNK, pairs))
            i = np.searchsorted(row_start, t, side="right") - 1
            j = i + t - row_start[i]
            missing += int(np.count_nonzero(_no_extreme(bits, order, i, j)))
        return missing

    # -- counting ----------------------------------------------------------

    def multichain_counts(self, nmax: int) -> list[int]:
        """Numbers of multichains w_1 <= ... <= w_N <= c for N = 1..nmax:
        after N products with `leq`, counts[j] is the number of multichains
        of length N ending below member j.  Each step is exact in int64
        while no count exceeds 2^63 / |NCP|; a longer chain raises
        OrderCapExceeded."""
        if nmax < 1:
            raise ValueError("chain length must be >= 1")
        leq = self.leq.astype(np.int64)
        counts = np.ones(self.size, dtype=np.int64)
        totals = []
        for _ in range(nmax):
            if int(counts.max()) > np.iinfo(np.int64).max // self.size:
                raise OrderCapExceeded(
                    f"{self.group.spec.label}: multichain counts of length "
                    f"{nmax} do not fit in 64 bits")
            counts = counts @ leq
            totals.append(int(counts[self.top]))
        return totals

    def multichain_count(self, chain_length: int) -> int:
        """Number of multichains w_1 <= ... <= w_N <= c, N = chain_length."""
        return self.multichain_counts(chain_length)[-1]

    def __repr__(self):
        return f"NcpLattice({self.group.spec.label}, size={self.size})"


def order_tables(quotients: np.ndarray, leq: np.ndarray, label: str):
    """q, prod and rq (see `NcpLattice`) scattered over the pairs x <= y of
    `leq` from the positions a = `quotients[x, y]` of x^{-1} y: q[x, y] = a,
    prod[x, a] = y and rq[a, y] = x.  Each a is a divisor of c below y, and
    x -> a permutes the members below y, so q and rq are defined on exactly
    the pairs of the order (every strong conjugate y x^{-1} is a member)
    and prod on |leq| entries; otherwise ClassificationMismatch."""
    x, y = np.nonzero(leq)
    a = quotients[x, y]
    q, prod, rq = np.full((3,) + leq.shape, -1, dtype=np.int32)
    if (a >= 0).all():  # else a -1 would index the last member
        q[x, y], prod[x, a], rq[a, y] = a, y, x
    if not (np.array_equal(rq >= 0, leq)
            and np.count_nonzero(prod >= 0) == len(x)):
        raise ClassificationMismatch(
            f"{label}: a quotient or a strong conjugate of NCP members "
            f"lies outside NCP, or two products coincide")
    return q, prod, rq


def _no_extreme(bits, order, i, j) -> np.ndarray:
    """For each pair (i[k], j[k]): whether the common set bits[i] & bits[j]
    is empty or has a member outside the set of its first member, the
    member order[p] of its lowest set bit p."""
    common = bits[i] & bits[j]
    nonzero = common != 0
    first = np.argmax(nonzero, axis=1)
    rows = np.arange(len(i))
    best = order[8 * first + _LOWEST_BIT[common[rows, first]]]
    return ~nonzero[rows, first] | (common & ~bits[best]).any(axis=1)


def build_ncp(group: ReflectionGroup) -> NcpLattice:
    """The lattice of a group, built once and kept on the group, so that
    it is freed with the group."""
    ncp = getattr(group, "_ncp", None)
    if ncp is None:
        ncp = group._ncp = NcpLattice(group)
    return ncp
