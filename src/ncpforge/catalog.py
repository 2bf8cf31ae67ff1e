"""Catalog of supported well-generated irreducible reflection groups.

Families shipped: A(n>=1), B(n>=2), D(n>=4) (= G(2,2,n)), I2(e>=3)
(= G(e,e,2)), G(e,e,n) with e>=2 and n>=3, H3 and F4.  Every group is
built from one of two generator rules, with entries in Z[zeta_m]:

* Cartan rule (A(n), H3, F4): s_i(alpha_j) = alpha_j - a_ij alpha_i in
  the simple-root basis, with a_ij from the group's Cartan matrix.  Its
  entries are integers, except zeta5^2 + zeta5^3 = -2cos(pi/5) on H3's
  5-edge, so H3 lives over Q(zeta_5) and A and F4 over Q;
* monomial rule (B, D, I2, G(e,e,n)): monomial matrices of G(e,p,n) over
  Q(zeta_e), B being G(2,1,n) and D being G(2,2,n) over Q(zeta_2).

The Coxeter element c is the product of the generators in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cyclo import CycNum, Matrix
from .errors import ConfigError


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
    if spec.family in ("I2", "G"):
        return spec.e
    if spec.family in ("B", "D"):
        return 2
    if spec.family == "H3":
        return 5
    return 1


def _monomial_matrix(m: int, n: int, images: list[tuple[int, int]]) -> Matrix:
    """images[j] = (i, k): e_{j+1} -> zeta_m^k * e_i (1-based)."""
    zero = CycNum.zero(m)
    rows = [[zero] * n for _ in range(n)]
    for j, (i, k) in enumerate(images):
        rows[i - 1][j] = CycNum.zeta(m, k)
    return Matrix(n, m, rows)


def generators_of(spec: GroupSpec) -> list[Matrix]:
    """The generators s_1..s_n, in the order whose product is c."""
    f, n, m = spec.family, spec.n, conductor_of(spec)
    one, zero = CycNum.one(m), CycNum.zero(m)
    if f in ("A", "H3", "F4"):
        # Cartan rule: s_i(alpha_j) = alpha_j - a_ij alpha_i.  The three
        # diagrams are paths; a 3-edge has a_ij = -1, F4's 4-edge has
        # a_32 = -2, and H3's 5-edge a = zeta5^2 + zeta5^3 = -2cos(pi/5).
        a = [[CycNum.from_rational(
                  m, 2 if i == j else -1 if abs(i - j) == 1 else 0)
              for j in range(n)] for i in range(n)]
        if f == "H3":
            a[0][1] = a[1][0] = CycNum.zeta(m, 2) + CycNum.zeta(m, 3)
        if f == "F4":
            a[2][1] = CycNum.from_rational(m, -2)
        return [Matrix(n, m, [[(one if k == j else zero)
                               - (a[i][j] if k == i else zero)
                               for j in range(n)] for k in range(n)])
                for i in range(n)]
    # monomial rule, in G(e,p,n): B = G(2,1,n) starts with e_1 -> -e_1, the
    # others with the twisted transposition e_1 -> zeta e_2,
    # e_2 -> zeta^-1 e_1; then the transpositions (i, i+1)
    first = [(1, 1)] if f == "B" else [(2, 1), (1, m - 1)]
    gens = [_monomial_matrix(
        m, n, first + [(j, 0) for j in range(len(first) + 1, n + 1)])]
    for i in range(1, n):
        images = [(j, 0) for j in range(1, n + 1)]
        images[i - 1], images[i] = (i + 1, 0), (i, 0)
        gens.append(_monomial_matrix(m, n, images))
    return gens


def catalog_specs() -> list[GroupSpec]:
    """Default desk-scale catalog listing (for the CLI catalog command)."""
    specs = [GroupSpec("A", n) for n in range(1, 6)]
    specs += [GroupSpec("B", n) for n in range(2, 5)]
    specs.append(GroupSpec("D", 4))
    specs += [GroupSpec("I2", 2, e) for e in range(3, 13)]
    specs += [GroupSpec("G", 3, 3), GroupSpec("G", 3, 4), GroupSpec("G", 4, 3)]
    specs += [GroupSpec("H3", 3), GroupSpec("F4", 4)]
    return specs
