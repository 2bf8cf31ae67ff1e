"""The noncrossing partition lattice NCP_W(c) = [1, c] under absolute order."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (
    CatalanMismatch,
    ElementNotInGroup,
    MeetJoinMissing,
    NonIntegralCount,
    OrderCapExceeded,
)
from .group import ReflectionGroup


def fuss_catalan(degrees, k: int = 1) -> int:
    """prod (d_i + k*h) / d_i, exact."""
    h = degrees[-1]
    value = Fraction(1)
    for d in degrees:
        value *= Fraction(d + k * h, d)
    if value.denominator != 1:
        raise NonIntegralCount(
            f"Fuss-Catalan number for degrees {tuple(degrees)}, k = {k} "
            f"is {value}")
    return value.numerator


class NcpLattice:
    """Divisors of the Coxeter element, with rank and order table."""

    def __init__(self, group: ReflectionGroup):
        self.group = group
        c = group.coxeter
        self.c = c
        inv = group.inv
        length = group.length
        lc = int(length[c])
        quot = group.mult[inv, c]  # quot[w] = w^{-1} c
        member_mask = length + length[quot] == lc
        # element indices are canonical (code order), so is this order
        self.members = [int(i) for i in np.nonzero(member_mask)[0]]
        expected = fuss_catalan(group.degrees, 1)
        if len(self.members) != expected:
            raise CatalanMismatch(
                f"{group.spec.label}: |NCP| = {len(self.members)}, "
                f"formula gives {expected}")
        self.pos = {w: i for i, w in enumerate(self.members)}
        self.size = len(self.members)
        self.rank = np.array([int(length[w]) for w in self.members],
                             dtype=np.int32)
        self.bottom = self.pos[group.identity]
        self.top = self.pos[c]

        # quotients[i, j] = members[i]^{-1} members[j] (element indices);
        # dense relation table: leq[i, j] iff members[i] divides members[j]
        idx = np.array(self.members, dtype=np.int32)
        self.quotients = group.mult[np.ix_(inv[idx], idx)]
        self.leq = ((self.rank[:, None] + length[self.quotients])
                    == self.rank[None, :])

    # -- order structure ---------------------------------------------------

    def member_index(self, w: int) -> int:
        try:
            return self.pos[int(w)]
        except KeyError:
            raise ElementNotInGroup(
                f"element {w} is not a divisor of c") from None

    def meet(self, u: int, v: int) -> int:
        """Greatest lower bound (element indices in and out)."""
        i, j = self.member_index(u), self.member_index(v)
        below = np.nonzero(self.leq[:, i] & self.leq[:, j])[0]
        return self.members[self._extreme(below, upper=True, what="meet")]

    def join(self, u: int, v: int) -> int:
        i, j = self.member_index(u), self.member_index(v)
        above = np.nonzero(self.leq[i, :] & self.leq[j, :])[0]
        return self.members[self._extreme(above, upper=False, what="join")]

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
                return int(best)
        raise MeetJoinMissing(
            f"{self.group.spec.label}: no {what} for the pair")

    def missing_meets_joins(self) -> int:
        """Number of member pairs i <= j without a meet or a join, counted
        as `meet` and `join` would find them: the candidate is the first
        common lower (upper) bound of greatest (least) rank, and the pair
        is missing when there is no bound or some bound is not below
        (above) the candidate.  One whole-array pass per row i."""
        leq, rank = self.leq, self.rank
        below_all, above_all = rank.min() - 1, rank.max() + 1
        missing = 0
        for i in range(self.size):
            # lower[k, j]: k <= i and k <= j, for the columns j >= i
            lower = leq[:, i:] & leq[:, i, None]
            best = np.argmax(np.where(lower, rank[:, None], below_all), axis=0)
            bad = ~lower.any(axis=0) | (lower & ~leq[:, best]).any(axis=0)
            # upper[j, k]: i <= k and j <= k, for the rows j >= i
            upper = leq[i:, :] & leq[i]
            best = np.argmin(np.where(upper, rank, above_all), axis=1)
            bad |= ~upper.any(axis=1) | (upper & ~leq[best, :]).any(axis=1)
            missing += int(np.count_nonzero(bad))
        return missing

    # -- counting ----------------------------------------------------------

    def multichain_count(self, chain_length: int) -> int:
        """Number of multichains w_1 <= ... <= w_N <= c: after N products
        with `leq`, counts[j] is the number of multichains ending below
        member j.  Each step is exact in int64 while no count exceeds
        2^63 / |NCP|; a longer chain raises OrderCapExceeded."""
        if chain_length < 1:
            raise ValueError("chain length must be >= 1")
        leq = self.leq.astype(np.int64)
        counts = np.ones(self.size, dtype=np.int64)
        for _ in range(chain_length):
            if int(counts.max()) > np.iinfo(np.int64).max // self.size:
                raise OrderCapExceeded(
                    f"{self.group.spec.label}: multichain counts of length "
                    f"{chain_length} do not fit in 64 bits")
            counts = counts @ leq
        return int(counts[self.top])

    def reflections_below(self, w: int) -> list[int]:
        below = self.leq[:, self.member_index(w)] & (self.rank == 1)
        return [self.members[i] for i in np.nonzero(below)[0]]

    def __repr__(self):
        return f"NcpLattice({self.group.spec.label}, size={self.size})"


def build_ncp(group: ReflectionGroup) -> NcpLattice:
    """The lattice of a group, built once and kept on the group, so that
    it is freed with the group."""
    ncp = getattr(group, "_ncp", None)
    if ncp is None:
        ncp = group._ncp = NcpLattice(group)
    return ncp
