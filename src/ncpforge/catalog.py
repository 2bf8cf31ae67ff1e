"""Catalog of supported well-generated irreducible reflection groups.

Families shipped: A(n>=1), B(n>=2), D(n>=4) (= G(2,2,n)), I2(e>=3)
(= G(e,e,2)), G(e,e,n) with e>=2 and n>=3, H3 and F4.  Each entry carries
the smallest faithful exact matrix representation:

* type A: permutation matrices of S_{n+1} restricted to the sum-zero
  subspace, realised over Q (conductor 1);
* types B, D: signed permutation matrices over Q;
* I2(e) and G(e,e,n): monomial matrices over Q(zeta_e);
* H3: the geometric representation over Q(zeta_5);
* F4: the crystallographic root-system representation over Q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycNum, Matrix
from .errors import ConfigError

Fr = Fraction


@dataclass(frozen=True)
class GroupSpec:
    family: str          # 'A', 'B', 'D', 'I2', 'G', 'H3', 'F4'
    n: int               # rank
    e: int | None = None  # twist parameter for I2 / G

    def __post_init__(self):
        f = self.family
        if f == "A":
            if self.n < 1:
                raise ConfigError("A(n) needs n >= 1")
        elif f == "B":
            if self.n < 2:
                raise ConfigError("B(n) needs n >= 2")
        elif f == "D":
            if self.n < 4:
                raise ConfigError("D(n) needs n >= 4")
        elif f == "I2":
            if self.e is None or self.e < 3:
                raise ConfigError("I2(e) needs e >= 3 (I2(2) is reducible)")
        elif f == "G":
            if self.e is None or self.e < 2 or self.n < 3:
                raise ConfigError("G(e,e,n) needs e >= 2 and n >= 3")
            if self.e == 2 and self.n == 2:
                raise ConfigError("G(2,2,2) is reducible")
        elif f in ("H3", "F4"):
            pass
        else:
            raise ConfigError(f"unknown family {f!r}")

    @property
    def label(self) -> str:
        if self.family == "I2":
            return f"I2({self.e})"
        if self.family == "G":
            return f"G({self.e},{self.e},{self.n})"
        if self.family in ("H3", "F4"):
            return self.family
        return f"{self.family}{self.n}"


_SPEC_RE = re.compile(r"^([ABD])(\d+)$")


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar: A3, B4, D4, I2:7, G:3,3,4, H3, F4."""
    text = text.strip()
    if text == "H3":
        return GroupSpec("H3", 3)
    if text == "F4":
        return GroupSpec("F4", 4)
    m = _SPEC_RE.match(text)
    if m:
        return GroupSpec(m.group(1), int(m.group(2)))
    if text.startswith("I2:"):
        try:
            e = int(text[3:])
        except ValueError:
            raise ConfigError(f"bad I2 spec {text!r}") from None
        return GroupSpec("I2", 2, e)
    if text.startswith("G:"):
        parts = text[2:].split(",")
        if len(parts) != 3:
            raise ConfigError(f"bad G spec {text!r}")
        try:
            d, e, n = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bad G spec {text!r}") from None
        if d != e:
            raise ConfigError("only G(e,e,n) is in the catalog")
        return GroupSpec("G", n, e)
    raise ConfigError(f"unrecognised group spec {text!r}")


def degrees_of(spec: GroupSpec) -> tuple[int, ...]:
    f, n, e = spec.family, spec.n, spec.e
    if f == "A":
        return tuple(range(2, n + 2))
    if f == "B":
        return tuple(2 * i for i in range(1, n + 1))
    if f == "I2":
        return (2, e)
    if f in ("D", "G"):
        ee = 2 if f == "D" else e
        return tuple(sorted([ee * i for i in range(1, n)] + [n]))
    if f == "H3":
        return (2, 6, 10)
    if f == "F4":
        return (2, 6, 8, 12)
    raise ConfigError(f"unknown family {f!r}")


def order_of(spec: GroupSpec) -> int:
    order = 1
    for d in degrees_of(spec):
        order *= d
    return order


def conductor_of(spec: GroupSpec) -> int:
    if spec.family == "I2":
        return spec.e
    if spec.family == "G":
        return spec.e
    if spec.family == "D":
        return 2
    if spec.family == "H3":
        return 5
    return 1


def _perm_matrix_sum_zero(perm: tuple[int, ...]) -> Matrix:
    """Matrix of a permutation of {1..n+1} in the basis f_i = e_i - e_{i+1}."""
    np1 = len(perm)
    n = np1 - 1
    cols = []
    for i in range(1, n + 1):
        a, b = perm[i - 1], perm[i]
        col = [Fr(0)] * n
        if a < b:
            for k in range(a, b):
                col[k - 1] = Fr(1)
        else:
            for k in range(b, a):
                col[k - 1] = Fr(-1)
        cols.append(col)
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    return Matrix.from_rational_rows(1, rows)


def perm_to_element_matrix(spec: GroupSpec, perm: tuple[int, ...]) -> Matrix:
    """Type-A helper: permutation of {1..n+1} (one-line notation, 1-based)
    to its matrix in the sum-zero representation."""
    if spec.family != "A":
        raise ConfigError("permutation input is only defined for type A")
    if sorted(perm) != list(range(1, spec.n + 2)):
        raise ConfigError("not a permutation of 1..n+1")
    return _perm_matrix_sum_zero(perm)


def _signed_perm_matrix(images: list[tuple[int, int]]) -> Matrix:
    """images[j] = (i, sign): e_{j+1} -> sign * e_i (1-based)."""
    n = len(images)
    rows = [[Fr(0)] * n for _ in range(n)]
    for j, (i, sign) in enumerate(images):
        rows[i - 1][j] = Fr(sign)
    return Matrix.from_rational_rows(1, rows)


def _monomial_matrix(m: int, n: int, images: list[tuple[int, int]]) -> Matrix:
    """images[j] = (i, k): e_{j+1} -> zeta_m^k * e_i (1-based)."""
    zero = CycNum.zero(m)
    rows = [[zero] * n for _ in range(n)]
    for j, (i, k) in enumerate(images):
        rows[i - 1][j] = CycNum.zeta(m, k)
    return Matrix(n, m, rows)


def generators_of(spec: GroupSpec) -> list[Matrix]:
    f, n, e = spec.family, spec.n, spec.e
    if f == "A":
        gens = []
        for i in range(1, n + 1):
            perm = list(range(1, n + 2))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            gens.append(_perm_matrix_sum_zero(tuple(perm)))
        return gens
    if f == "B":
        gens = [_signed_perm_matrix(
            [(1, -1)] + [(i, 1) for i in range(2, n + 1)])]
        for i in range(1, n):
            images = [(j, 1) for j in range(1, n + 1)]
            images[i - 1], images[i] = (i + 1, 1), (i, 1)
            gens.append(_signed_perm_matrix(images))
        return gens
    if f in ("D", "G", "I2"):
        m = conductor_of(spec)
        rank = 2 if f == "I2" else n
        # twisted transposition: e_1 -> zeta e_2, e_2 -> zeta^{-1} e_1
        images = [(2, 1), (1, m - 1)] + [(j, 0) for j in range(3, rank + 1)]
        gens = [_monomial_matrix(m, rank, images)]
        for i in range(1, rank):
            images = [(j, 0) for j in range(1, rank + 1)]
            images[i - 1], images[i] = (i + 1, 0), (i, 0)
            gens.append(_monomial_matrix(m, rank, images))
        return gens
    if f == "H3":
        return _h3_generators()
    if f == "F4":
        return _f4_generators()
    raise ConfigError(f"unknown family {f!r}")


def _h3_generators() -> list[Matrix]:
    # geometric representation from the Coxeter matrix (m12=5, m23=3, m13=2);
    # cos(pi/5) = (1 + zeta5 + zeta5^4) / 2
    m = 5
    one = CycNum.one(m)
    zero = CycNum.zero(m)
    half = CycNum.from_rational(m, Fr(1, 2))
    cos5 = (one + CycNum.zeta(m, 1) + CycNum.zeta(m, 4)) * half
    coshalf = half  # cos(pi/3)
    gram = [
        [one, -cos5, zero],
        [-cos5, one, -coshalf],
        [zero, -coshalf, one],
    ]
    gens = []
    two = CycNum.from_rational(m, 2)
    for i in range(3):
        rows = []
        for k in range(3):
            row = []
            for j in range(3):
                entry = one if k == j else zero
                if k == i:
                    entry = entry - two * gram[i][j]
                row.append(entry)
            rows.append(row)
        gens.append(Matrix(3, m, rows))
    return gens


def _f4_generators() -> list[Matrix]:
    roots = [
        (Fr(0), Fr(1), Fr(-1), Fr(0)),
        (Fr(0), Fr(0), Fr(1), Fr(-1)),
        (Fr(0), Fr(0), Fr(0), Fr(1)),
        (Fr(1, 2), Fr(-1, 2), Fr(-1, 2), Fr(-1, 2)),
    ]
    gens = []
    for alpha in roots:
        norm = sum(a * a for a in alpha)
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                base = Fr(1) if i == j else Fr(0)
                # s_alpha(e_j) = e_j - 2 (e_j, alpha)/(alpha,alpha) alpha
                row.append(base - 2 * alpha[j] / norm * alpha[i])
            rows.append(row)
        gens.append(Matrix.from_rational_rows(1, rows))
    return gens


def coxeter_matrix_of(spec: GroupSpec) -> Matrix:
    """Catalog Coxeter element; validated by post-checks at build time."""
    f, n, e = spec.family, spec.n, spec.e
    if f == "A":
        return _perm_matrix_sum_zero(tuple(list(range(2, n + 2)) + [1]))
    if f == "B":
        # signed n-cycle e_1 -> e_2 -> ... -> e_n -> -e_1
        images = [(i + 1, 1) for i in range(1, n)] + [(1, -1)]
        return _signed_perm_matrix(images)
    if f in ("D", "G", "I2"):
        m = conductor_of(spec)
        rank = 2 if f == "I2" else n
        # e_i -> e_{i+1} (i < rank-1), e_{rank-1} -> zeta e_1,
        # e_rank -> zeta^{-1} e_rank
        images = [(i + 1, 0) for i in range(1, rank - 1)]
        images.append((1, 1))
        images.append((rank, m - 1))
        return _monomial_matrix(m, rank, images)
    gens = generators_of(spec)
    c = gens[0]
    for g in gens[1:]:
        c = c @ g
    return c


def catalog_specs() -> list[GroupSpec]:
    """Default desk-scale catalog listing (for the CLI catalog command)."""
    specs = [GroupSpec("A", n) for n in range(1, 6)]
    specs += [GroupSpec("B", n) for n in range(2, 5)]
    specs.append(GroupSpec("D", 4))
    specs += [GroupSpec("I2", 2, e) for e in range(3, 13)]
    specs += [GroupSpec("G", 3, 3), GroupSpec("G", 3, 4), GroupSpec("G", 4, 3)]
    specs += [GroupSpec("H3", 3), GroupSpec("F4", 4)]
    return specs
