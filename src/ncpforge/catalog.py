"""Catalog of supported well-generated irreducible reflection groups.

Families shipped: A(n>=1), B(n>=2), D(n>=4) (= G(2,2,n)), I2(e>=3)
(= G(e,e,2)), G(e,e,n) with e>=2 and n>=3, and H3 and F4, the rows of
one exceptional table, which also holds each group's LL row.  Every group
is built from one of two generator rules, with entries in Z[zeta_m]:

* Cartan rule (A(n), H3, F4): s_i(alpha_j) = alpha_j - a_ij alpha_i in
  the simple-root basis, with the diagram an edge list (i, j, a_ij, a_ji):
  a 3-edge has a_ij = a_ji = -1, F4's 4-edge a_ij = -1 and a_ji = -2, and
  H3's 5-edge zeta5^2 + zeta5^3 = -2cos(pi/5) both ways;
* monomial rule (B, D, I2, G(e,e,n)): monomial matrices of G(e,p,n) over
  Q(zeta_e), B being G(2,1,n) and D being G(2,2,n) over Q(zeta_2).

Each generator is an int64 matrix on the n * phi(m) power-basis
coefficients of Z[zeta_m]^n, written with no field arithmetic: an entry
c zeta^k is a block read from the rows of `zeta_powers(m)`.  The Coxeter
element c is the product of the generators in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cyclo import zeta_powers
from .errors import ConfigError


class _Exceptional(NamedTuple):
    degrees: tuple[int, ...]
    conductor: int
    edges: tuple    # (i, j, a_ij, a_ji), a_ij = sum c zeta_m^k over (c, k)
    ll_row: tuple   # the LL data: (p, u) pairs of the length-2 strata


_MINUS_1, _MINUS_2 = ((-1, 0),), ((-2, 0),)
_GOLDEN = ((1, 2), (1, 3))          # zeta5^2 + zeta5^3 = -2cos(pi/5)

_EXCEPTIONAL = {
    "H3": _Exceptional((2, 6, 10), 5, (
        (0, 1, _GOLDEN, _GOLDEN), (1, 2, _MINUS_1, _MINUS_1)),
        ((2, 6), (3, 6), (5, 6))),
    "F4": _Exceptional((2, 6, 8, 12), 1, (
        (0, 1, _MINUS_1, _MINUS_1), (1, 2, _MINUS_1, _MINUS_2),
        (2, 3, _MINUS_1, _MINUS_1)),
        ((2, 24), (3, 8), (3, 8), (4, 12))),
}


@dataclass(frozen=True)
class GroupSpec:
    family: str          # 'A', 'B', 'D', 'I2', 'G', or a row of _EXCEPTIONAL
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
            if self.n != 2 or self.e is None or self.e < 3:
                raise ConfigError(
                    "I2(e) needs n = 2 and e >= 3 (I2(2) is reducible)")
        elif f == "G":
            if self.e is None or self.e < 2 or self.n < 3:
                raise ConfigError("G(e,e,n) needs e >= 2 and n >= 3")
        elif f in _EXCEPTIONAL:
            rank = len(_EXCEPTIONAL[f].degrees)
            if self.n != rank:
                raise ConfigError(f"{f} has rank {rank}, not {self.n}")
        else:
            raise ConfigError(f"unknown family {f!r}")

    @property
    def label(self) -> str:
        if self.family == "I2":
            return f"I2({self.e})"
        if self.family == "G":
            return f"G({self.e},{self.e},{self.n})"
        if self.family in _EXCEPTIONAL:
            return self.family
        return f"{self.family}{self.n}"


_SPEC_RE = re.compile(r"^([ABD])(\d+)$")


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar: A3, B4, D4, I2:7, G:3,3,4, H3, F4."""
    text = text.strip()
    if text in _EXCEPTIONAL:
        return GroupSpec(text, len(_EXCEPTIONAL[text].degrees))
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
    if f in _EXCEPTIONAL:
        return _EXCEPTIONAL[f].degrees
    if f == "A":
        return tuple(range(2, n + 2))
    if f == "B":
        return tuple(2 * i for i in range(1, n + 1))
    if f == "I2":
        return (2, e)
    ee = 2 if f == "D" else e      # D or G
    return tuple(sorted([ee * i for i in range(1, n)] + [n]))


def order_of(spec: GroupSpec) -> int:
    order = 1
    for d in degrees_of(spec):
        order *= d
    return order


def conductor_of(spec: GroupSpec) -> int:
    if spec.family in _EXCEPTIONAL:
        return _EXCEPTIONAL[spec.family].conductor
    if spec.family in ("B", "D"):
        return 2
    return spec.e or 1      # I2 and G have e, A none


def _integer_matrix(table: np.ndarray, n: int, terms) -> np.ndarray:
    """The n x n matrix whose entry (i, j) is the sum of c zeta_m^k over
    the terms (i, j, c, k), on the n * phi(m) power-basis coefficients of
    Z[zeta_m]^n.  A term c zeta^k is the phi x phi block whose column b is
    c times row (k + b) mod m of the table `zeta_powers(m)`."""
    m, phi = table.shape
    out = np.zeros((n * phi, n * phi), dtype=np.int64)
    for i, j, c, k in terms:
        out[i * phi:(i + 1) * phi, j * phi:(j + 1) * phi] += (
            c * table[(k + np.arange(phi)) % m].T)
    return out


def generators_of(spec: GroupSpec) -> list[np.ndarray]:
    """The generators s_1..s_n, in the order whose product is c, as int64
    matrices on the n * phi(m) power-basis coefficients of Z[zeta_m]^n:
    coordinate j * phi + a is coefficient a of coordinate j."""
    f, n, m = spec.family, spec.n, conductor_of(spec)
    table = np.array(zeta_powers(m), dtype=np.int64)
    if f == "A" or f in _EXCEPTIONAL:
        # Cartan rule: s_i(alpha_j) = alpha_j - a_ij alpha_i, so s_i is the
        # identity plus row i of -a, put in row i (a_ii = 2)
        edges = (_EXCEPTIONAL[f].edges if f in _EXCEPTIONAL else
                 [(i, i + 1, _MINUS_1, _MINUS_1) for i in range(n - 1)])
        rows = [[(i, i, -2, 0)] for i in range(n)]
        for i, j, a_ij, a_ji in edges:
            rows[i] += [(i, j, -c, k) for c, k in a_ij]
            rows[j] += [(j, i, -c, k) for c, k in a_ji]
        identity = [(j, j, 1, 0) for j in range(n)]
        return [_integer_matrix(table, n, identity + row) for row in rows]
    # monomial rule, in G(e,p,n), with images[j] = (i, k) for e_j -> zeta^k
    # e_i (0-based): B = G(2,1,n) starts with e_1 -> -e_1, the others with
    # the twisted transposition e_1 -> zeta e_2, e_2 -> zeta^-1 e_1; then
    # the transpositions (i, i+1)
    first = [(0, 1)] if f == "B" else [(1, 1), (0, m - 1)]
    images = [first + [(j, 0) for j in range(len(first), n)]]
    for i in range(1, n):
        images.append([(j, 0) for j in range(n)])
        images[-1][i - 1], images[-1][i] = (i, 0), (i - 1, 0)
    return [_integer_matrix(table, n, [(i, j, 1, k)
                                       for j, (i, k) in enumerate(image)])
            for image in images]


def catalog_specs() -> list[GroupSpec]:
    """Default desk-scale catalog listing (for the CLI catalog command)."""
    specs = [GroupSpec("A", n) for n in range(1, 6)]
    specs += [GroupSpec("B", n) for n in range(2, 5)]
    specs.append(GroupSpec("D", 4))
    specs += [GroupSpec("I2", 2, e) for e in range(3, 13)]
    specs += [GroupSpec("G", 3, 3), GroupSpec("G", 3, 4), GroupSpec("G", 4, 3)]
    specs += [GroupSpec(f, len(row.degrees))
              for f, row in _EXCEPTIONAL.items()]
    return specs
