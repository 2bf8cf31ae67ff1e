"""Exact arithmetic in cyclotomic fields Q(zeta_m) and exact linear algebra.

Numbers are stored as reduced residues modulo the m-th cyclotomic polynomial,
with Fraction coefficients, so equality is coefficient-wise and hashing is
sound.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch

Poly = tuple[int, ...]

F0 = Fraction(0)
F1 = Fraction(1)


def euler_phi(m: int) -> int:
    result = m
    p, mm = 2, m
    while p * p <= mm:
        if mm % p == 0:
            while mm % p == 0:
                mm //= p
            result -= result // p
        p += 1
    if mm > 1:
        result -= result // mm
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # exact division of integer polynomials with monic-up-to-sign divisor
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coeff = num[i + len(den) - 1]
        if coeff % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        c = coeff // lead
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> Poly:
    """m-th cyclotomic polynomial, coefficients low to high, monic.

    Computed by recursive exact division of x^m - 1 by Phi_d over the proper
    divisors d of m; the base case Phi_1 = x - 1 covers plain rationals.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
            if rem != [0]:
                raise FieldMismatch(f"Phi_{d} does not divide x^{m} - 1")
    return tuple(num)


class _Conductor:
    """Per-conductor reduction data: powers of x modulo Phi_m."""

    def __init__(self, m: int):
        self.m = m
        self.phi = euler_phi(m)
        poly = cyclotomic_polynomial(m)
        # x^phi = -(c_0 + ... + c_{phi-1} x^{phi-1}), Phi_m monic
        self._top = tuple(Fraction(-c) for c in poly[:-1])
        self._pows: list[tuple[Fraction, ...]] = [
            tuple(F1 if i == k else F0 for i in range(self.phi))
            for k in range(self.phi)
        ]

    def power(self, k: int) -> tuple[Fraction, ...]:
        while k >= len(self._pows):
            prev = self._pows[-1]
            shifted = [F0] + list(prev[:-1])
            top = prev[-1]
            if top:
                for i, t in enumerate(self._top):
                    shifted[i] += top * t
            self._pows.append(tuple(shifted))
        return self._pows[k]


@lru_cache(maxsize=None)
def _conductor(m: int) -> _Conductor:
    return _Conductor(m)


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
        phi = _conductor(m).phi
        v = Fraction(value)
        return cls(m, tuple(v if i == 0 else F0 for i in range(phi)))

    @classmethod
    def zero(cls, m: int) -> "CycNum":
        return cls.from_rational(m, 0)

    @classmethod
    def one(cls, m: int) -> "CycNum":
        return cls.from_rational(m, 1)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CycNum":
        """zeta_m^k."""
        c = _conductor(m)
        return cls(m, c.power(k % m))

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
        cond = _conductor(self.m)
        phi = cond.phi
        a, b = self.coeffs, other.coeffs
        conv = [F0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:phi])
        for k in range(phi, 2 * phi - 1):
            ck = conv[k]
            if ck:
                pw = cond.power(k)
                for i in range(phi):
                    if pw[i]:
                        out[i] += ck * pw[i]
        return CycNum(self.m, tuple(out))

    def inv(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_m (irreducible over Q, so the gcd is a nonzero constant).
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        a = list(self.coeffs)
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        # extended Euclid: r0 = Phi, r1 = a; track s in r = s*a (mod Phi)
        r0, r1 = phi_poly, a
        s0, s1 = [F0], [F1]
        while any(c != 0 for c in r1):
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is the gcd, a nonzero constant; s0 * a = r0 (mod Phi)
        if len(r0) != 1 or r0[0] == 0:
            raise FieldMismatch(f"Phi_{self.m} and {self} are not coprime")
        c = r0[0]
        inv_coeffs = [x / c for x in s0]
        phi = _conductor(self.m).phi
        out = [F0] * phi
        cond = _conductor(self.m)
        for k, x in enumerate(inv_coeffs):
            if x:
                pw = cond.power(k)
                for i in range(phi):
                    if pw[i]:
                        out[i] += x * pw[i]
        return CycNum(self.m, tuple(out))

    def embed(self, big_m: int) -> "CycNum":
        """Image in Q(zeta_M) for m | M, via zeta_m = zeta_M^(M/m)."""
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError("target conductor must be a multiple")
        factor = big_m // self.m
        cond = _conductor(big_m)
        out = [F0] * cond.phi
        for i, c in enumerate(self.coeffs):
            if c:
                pw = cond.power(i * factor)
                for j in range(cond.phi):
                    if pw[j]:
                        out[j] += c * pw[j]
        return CycNum(big_m, tuple(out))

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


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    if len(num) < len(den):
        return [F0], num
    q = [F0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [F0] * (n - len(a))
    b = b + [F0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


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
