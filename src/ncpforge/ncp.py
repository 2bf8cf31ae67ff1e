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
    """Divisors of the Coxeter element: `members` (element indices, int32,
    ascending) and `position` (element index -> member position, -1 outside
    NCP).  On member positions: `rank`, `class_id`, the order `leq`, the
    one product table q[x, y] = x^{-1} y for x <= y (int32, -1 elsewhere),
    and the Kreweras complement K(x) = x^{-1} c = q[x, top] and its
    inverse, `kreweras` and `kreweras_inverse`: a b = K^{-1}(q[b, K(a)]) as
    K(a b) = b^{-1} K(a), and K(K(x)) = c^{-1} x c.  NCP grows from 1 by
    its covers: for x of rank k and a reflection r, x r covers x iff
    l(r^{-1} x^{-1} c) = l(c) - k - 1, as c = (x r)(r^{-1} x^{-1} c); r in
    place of r^{-1} is wrong for a reflection of order above 2.  `leq` is
    their closure: bounded by 1 and c, every cover raising the rank by one,
    as the check by Bjoerner-Edelman-Ziegler's Lemma 2.1 needs."""

    def __init__(self, group: ReflectionGroup):
        self.group = group
        self.c = c = group.coxeter
        length, inverses = group.length, group.inverse(group.reflections)
        lc = int(length[c])
        # position >= 0 marks a member found; layer is rank k, rest its x^-1 c
        self.position = position = np.full(group.size, -1, dtype=np.int32)
        position[group.identity] = 0
        layer, rest, covers = np.array([group.identity]), np.array([c]), []
        for k in range(lc):
            after = group.mult[inverses, rest[:, None]]
            row, col = np.nonzero(length[after] == lc - k - 1)
            high = group.mult[layer[row], group.reflections[col]]
            covers.append((layer[row], high))
            # one cover per distinct upper end x r, with its complement
            position[high] = np.arange(len(high))
            first = position[high] == np.arange(len(high))
            layer, rest = high[first], after[row, col][first]
        # element indices are canonical (code order), so is this order
        self.members = members = np.flatnonzero(position >= 0).astype(np.int32)
        expected = fuss_catalan(group.degrees, 1)
        if len(self.members) != expected:
            raise CatalanMismatch(
                f"{group.spec.label}: |NCP| = {len(self.members)}, "
                f"formula gives {expected}")
        self.size = size = len(self.members)
        position[members] = np.arange(size, dtype=np.int32)
        self.rank = length[members].astype(np.int32)
        self.class_id = group.class_id[members]
        self.bottom = int(position[group.identity])
        self.top = int(position[c])

        # up-sets as bits, each its member and the up-sets of its covers,
        # from the top rank down; a rank's covers come grouped by lower end
        up = np.packbits(np.eye(size, dtype=bool), axis=1, bitorder="little")
        for low, high in reversed(covers):
            low, high = position[low], position[high]
            first = np.flatnonzero(np.diff(low, prepend=-1))
            up[low[first]] |= np.bitwise_or.reduceat(up[high], first)
        self.leq = np.unpackbits(up, 1, size, "little").view(bool)
        x, y = np.nonzero(self.leq)
        a = position[group.mult[group.inverse(members)[x], members[y]]]
        self.q = quotient_table(x, y, a, size, group.spec.label)
        # K is a permutation: column top of q is one to one
        self.kreweras = self.q[:, self.top]
        self.kreweras_inverse = np.empty_like(self.kreweras)
        self.kreweras_inverse[self.kreweras] = np.arange(size, dtype=np.int32)

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
        """The lattice check, on `leq` and `rank` alone: the members not
        above the first member of least rank or not below the last of
        greatest rank, plus the pairs of distinct upper covers of one
        member without a join.  A finite bounded poset in which any two
        elements covering a common one have a join is a lattice (Lemma 2.1
        of Bjoerner, Edelman and Ziegler, Discrete Comput. Geom. 5, 1990),
        so the count is 0 exactly on a lattice if every cover raises the
        rank by one, as in every NcpLattice."""
        leq, rank = self.leq, self.rank
        order = np.argsort(rank, kind="stable")
        low, high = np.nonzero(leq & (rank[:, None] + 1 == rank))
        # a member that covers exactly one other is never a minimal common
        # upper bound of two distinct members of one rank, so it gets no bit
        cols = order[np.bincount(high, minlength=len(rank))[order] != 1]
        # bit p of bits[k] is set iff k <= cols[p], in (rank, index) order,
        # so a pair's first common bit is its join if it has one
        bits = np.packbits(leq[:, cols], axis=1, bitorder="little")
        # cover t pairs with the later[t] covers after it of its lower end
        later = np.searchsorted(low, low, "right") - 1 - np.arange(len(low))
        first = np.repeat(np.arange(len(low)), later)
        second = first + 1 + np.arange(len(first)) - np.repeat(
            np.cumsum(later) - later, later)
        missing = _no_extreme(bits, cols, high[first], high[second])
        return int(np.count_nonzero(missing)
                   + np.count_nonzero(~(leq[order[0]] & leq[:, order[-1]])))

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


def quotient_table(x, y, a, size: int, label: str) -> np.ndarray:
    """q (see `NcpLattice`) scattered over the pairs x <= y of the order
    from the positions a of x^{-1} y: q[x, y] = a.  Each a is a divisor of
    c below y, and x -> a permutes the members below y, so every a is a
    member, every (a, y) is a pair of the order and no two pairs of one
    column y share their a; otherwise ClassificationMismatch."""
    q = np.full((size, size), -1, dtype=np.int32)
    hit = np.zeros((size, size), dtype=bool)
    if (a >= 0).all():  # else a -1 would index the last member
        q[x, y], hit[a, y] = a, True
    if not ((q[a, y] >= 0).all() and np.count_nonzero(hit) == len(x)):
        raise ClassificationMismatch(
            f"{label}: a quotient of NCP members lies outside NCP or not "
            f"below its dividend, or two divisors of one member leave one "
            f"quotient")
    return q


def _no_extreme(bits, order, i, j) -> np.ndarray:
    """For each pair (i[k], j[k]): whether the common set bits[i] & bits[j]
    is empty or has a member outside the set of its first member, the
    member order[p] of its lowest set bit p."""
    common = bits[i]
    common &= bits[j]
    first = np.argmax(common != 0, axis=1)
    head = common[np.arange(len(i)), first]  # 0 only if the set is empty
    outside = ~bits[order[8 * first + _LOWEST_BIT[head]]]
    outside &= common
    return (head == 0) | outside.any(axis=1)


def build_ncp(group: ReflectionGroup) -> NcpLattice:
    """The lattice of a group, built once and kept on the group, so that
    it is freed with the group."""
    ncp = getattr(group, "_ncp", None)
    if ncp is None:
        ncp = group._ncp = NcpLattice(group)
    return ncp
