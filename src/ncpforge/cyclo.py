"""Exact arithmetic in cyclotomic fields Q(zeta_m) and exact linear algebra.

Numbers are stored as reduced residues modulo the m-th cyclotomic polynomial,
with Fraction coefficients, so equality is coefficient-wise and hashing is
sound.  No floating point anywhere.

One cached table per conductor, `zeta_powers(m)`, holds the integer
coefficients of x^k mod Phi_m for k < m, and it is the only source of
powers of zeta_m: `zeta`, products, the inverse and `embed` reduce zeta^k
through row k mod m, since zeta^m = 1.  phi(m) is the degree of Phi_m.  One
polynomial division serves both Phi_m, divided out of x^m - 1 in integers
since every Phi_d is monic, and the extended Euclid inverse over Q, whose
Bezout coefficients are kept as field elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch

Poly = tuple[int, ...]

F0 = Fraction(0)
F1 = Fraction(1)


def _poly_divmod(num, den) -> tuple[list, list]:
    """Quotient and remainder of polynomials, coefficients low to high; den
    ends in a nonzero coefficient.  A monic den divides without `/`, so
    integer coefficients stay integers; otherwise num holds Fractions, so
    no `/` divides two ints.  The remainder is trimmed to its degree."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if lead != 1:
            c /= lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    rem = num[:len(den) - 1] or [0]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return q, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> Poly:
    """m-th cyclotomic polynomial, integer coefficients low to high, monic.

    Computed by recursive exact division of x^m - 1 by the monic Phi_d over
    the proper divisors d of m, in integers; the base case Phi_1 = x - 1
    covers plain rationals.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem != [0]:
                raise FieldMismatch(f"Phi_{d} does not divide x^{m} - 1")
    return tuple(num)


def euler_phi(m: int) -> int:
    """phi(m), the degree of Phi_m."""
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def zeta_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k < m holds the coefficients of x^k mod Phi_m, which are those of
    zeta_m^k in the power basis; they are integers since Phi_m is monic.
    Rows 0..phi-1 are unit vectors, and each later row is x times the one
    before, with x^phi = -(c_0 + ... + c_{phi-1} x^{phi-1})."""
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    rows = [tuple(int(i == k) for i in range(phi)) for k in range(phi)]
    while len(rows) < m:
        prev = rows[-1]
        rows.append(tuple((prev[i - 1] if i else 0) - prev[-1] * poly[i]
                          for i in range(phi)))
    return tuple(rows)


def _combine(m: int, terms) -> tuple[Fraction, ...]:
    """sum of c zeta_m^k over the (k, c) terms, in the power basis: row
    k mod m of the table, since zeta_m^m = 1 (a unit vector below phi)."""
    table = zeta_powers(m)
    phi = len(table[0])
    out = [F0] * phi
    for k, c in terms:
        if c:
            k %= m
            if k < phi:
                out[k] += c
                continue
            for i, t in enumerate(table[k]):
                if t:
                    out[i] += c * t
    return tuple(out)


def _field_mismatch(a, b) -> FieldMismatch:
    """The error for an operation on values of different fields or sizes
    (`CycNum.embed` and `Matrix.embed` move a value to a larger field)."""
    return FieldMismatch(
        f"operands over Q(zeta_{a.m}) and Q(zeta_{b.m}): {a!r}, {b!r}")


class CycNum:
    """Element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("m", "coeffs", "_hash", "_key")

    def __init__(self, m: int, coeffs: tuple[Fraction, ...]):
        self.m = m
        self.coeffs = coeffs
        self._hash = None
        self._key = None

    @classmethod
    def from_rational(cls, m: int, value) -> "CycNum":
        return cls(m, _combine(m, [(0, Fraction(value))]))

    @classmethod
    def zero(cls, m: int) -> "CycNum":
        return cls.from_rational(m, 0)

    @classmethod
    def one(cls, m: int) -> "CycNum":
        return cls.from_rational(m, 1)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CycNum":
        """zeta_m^k."""
        return cls(m, _combine(m, [(k, F1)]))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "CycNum") -> "CycNum":
        if self.m != other.m:
            raise _field_mismatch(self, other)
        return CycNum(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycNum") -> "CycNum":
        if self.m != other.m:
            raise _field_mismatch(self, other)
        return CycNum(self.m, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycNum":
        return CycNum(self.m, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycNum") -> "CycNum":
        if self.m != other.m:
            raise _field_mismatch(self, other)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        conv: dict[int, Fraction] = {}
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    conv[i + j] = conv.get(i + j, F0) + a * b
        return CycNum(self.m, _combine(self.m, conv.items()))

    def inv(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_m (irreducible over Q, so the gcd is a nonzero constant).
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m = self.m
        # r0 = Phi_m and r1 = self as polynomials; each r_i = s_i * self in
        # Q(zeta_m), so the Bezout coefficients s_i are field elements
        r0 = [Fraction(c) for c in cyclotomic_polynomial(m)]
        r1 = list(self.coeffs)
        while r1[-1] == 0:
            r1.pop()
        s0, s1 = CycNum.zero(m), CycNum.one(m)
        while r1 != [0]:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - CycNum(m, _combine(m, enumerate(q))) * s1
        if len(r0) != 1:
            raise FieldMismatch(f"Phi_{m} and {self} are not coprime")
        return CycNum(m, tuple(x / r0[0] for x in s0.coeffs))

    def embed(self, big_m: int) -> "CycNum":
        """Image in Q(zeta_M) for m | M, via zeta_m = zeta_M^(M/m)."""
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError("target conductor must be a multiple")
        factor = big_m // self.m
        return CycNum(big_m, _combine(big_m, (
            (i * factor, c) for i, c in enumerate(self.coeffs))))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycNum)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.m, self.coeffs))
        return self._hash

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple((c.numerator, c.denominator)
                              for c in self.coeffs)
        return self._key

    def __repr__(self):
        return f"CycNum(m={self.m}, {list(self.coeffs)})"


class Matrix:
    """Square matrix over Q(zeta_m), column-vector convention."""

    __slots__ = ("n", "m", "rows", "_key")

    def __init__(self, n: int, m: int, rows):
        self.n = n
        self.m = m
        self.rows = tuple(tuple(r) for r in rows)
        self._key = None

    @classmethod
    def identity(cls, n: int, m: int) -> "Matrix":
        one, zero = CycNum.one(m), CycNum.zero(m)
        return cls(n, m, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n or self.m != other.m:
            raise _field_mismatch(self, other)
        n = self.n
        zero = CycNum.zero(self.m)
        cols = list(zip(*other.rows))
        out = []
        for i in range(n):
            row = self.rows[i]
            out_row = []
            for j in range(n):
                acc = zero
                col = cols[j]
                for k in range(n):
                    if row[k] and col[k]:
                        acc = acc + row[k] * col[k]
                out_row.append(acc)
            out.append(out_row)
        return Matrix(n, self.m, out)

    def apply(self, vec) -> tuple:
        zero = CycNum.zero(self.m)
        out = []
        for i in range(self.n):
            acc = zero
            for k in range(self.n):
                if self.rows[i][k] and vec[k]:
                    acc = acc + self.rows[i][k] * vec[k]
            out.append(acc)
        return tuple(out)

    def minus_scalar(self, z: CycNum) -> "Matrix":
        rows = [list(r) for r in self.rows]
        for i in range(self.n):
            rows[i][i] = rows[i][i] - z
        return Matrix(self.n, self.m, rows)

    def minus_identity(self) -> "Matrix":
        return self.minus_scalar(CycNum.one(self.m))

    def embed(self, big_m: int) -> "Matrix":
        return Matrix(
            self.n, big_m,
            [[e.embed(big_m) for e in row] for row in self.rows],
        )

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.n, self.m) + tuple(
                e.key() for row in self.rows for e in row
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Matrix(n={self.n}, m={self.m})"


def _rref(vectors: list[list[CycNum]], m: int) -> list[tuple[CycNum, ...]]:
    """Reduced row echelon form; canonical basis of the span."""
    rows = [list(v) for v in vectors]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = rows[pivot_row][col].inv()
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [
                    x - factor * y for x, y in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows[:pivot_row] if any(r)]


class Subspace:
    """Subspace of Q(zeta_m)^n with a canonical RREF basis."""

    __slots__ = ("n", "m", "basis")

    def __init__(self, n: int, m: int, vectors):
        self.n = n
        self.m = m
        self.basis = tuple(_rref([list(v) for v in vectors], m))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        probe = _rref([list(b) for b in self.basis] + [list(vec)], self.m)
        return len(probe) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.m == other.m
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, self.m, self.basis))

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim})"


def _nullspace(rows: list[list[CycNum]], m: int, ncols: int) -> list[list[CycNum]]:
    """Basis of the nullspace of a (possibly rectangular) matrix."""
    red = _rref(rows, m)
    one, zero = CycNum.one(m), CycNum.zero(m)
    pivots = []
    for r in red:
        for j in range(ncols):
            if r[j]:
                pivots.append(j)
                break
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in zip(red, pivots):
            if r[f]:
                v[p] = -r[f]
        basis.append(v)
    return basis


def kernel(mat: Matrix) -> Subspace:
    """Exact kernel of a square matrix; dim kernel + rank = n."""
    sols = _nullspace([list(r) for r in mat.rows], mat.m, mat.n)
    return Subspace(mat.n, mat.m, sols)
