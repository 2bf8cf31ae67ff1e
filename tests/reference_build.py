"""Reference group construction in exact Q(zeta_m) arithmetic.

`exact_generators` writes the catalog's generators as `Matrix` objects
over Q(zeta_m), by the Cartan and monomial rules in field arithmetic; it
shares no code with `catalog.generators_of`, which emits integer
matrices.  `matmul_closure` is the breadth-first closure over those
matrices, with each new element the exact product g @ mat, followed by the
multiplication table built from the generators' left-multiplication maps,
again by exact products.  This is slow (|gens| * |W| matrix products twice
over) and serves only as an oracle for `ReflectionGroup`, which never
multiplies two exact matrices.
"""

from __future__ import annotations

import numpy as np

from ncpforge.catalog import GroupSpec
from ncpforge.cyclo import CycNum, Matrix


def exact_generators(spec: GroupSpec) -> list[Matrix]:
    """The generators s_1..s_n of the catalog group, in the order whose
    product is c, over Q(zeta_m)."""
    f, n = spec.family, spec.n
    m = spec.e or {"B": 2, "D": 2, "H3": 5}.get(f, 1)
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

    def monomial(images):
        """images[j] = (i, k): e_{j+1} -> zeta_m^k * e_i (1-based)."""
        rows = [[zero] * n for _ in range(n)]
        for j, (i, k) in enumerate(images):
            rows[i - 1][j] = CycNum.zeta(m, k)
        return Matrix(n, m, rows)

    # monomial rule, in G(e,p,n): B = G(2,1,n) starts with e_1 -> -e_1, the
    # others with the twisted transposition e_1 -> zeta e_2,
    # e_2 -> zeta^-1 e_1; then the transpositions (i, i+1)
    first = [(1, 1)] if f == "B" else [(2, 1), (1, m - 1)]
    gens = [monomial(
        first + [(j, 0) for j in range(len(first) + 1, n + 1)])]
    for i in range(1, n):
        images = [(j, 0) for j in range(1, n + 1)]
        images[i - 1], images[i] = (i + 1, 0), (i, 0)
        gens.append(monomial(images))
    return gens


def matmul_closure(spec: GroupSpec) -> tuple[list[Matrix], np.ndarray]:
    """The group's matrices in key order and its multiplication table
    (mult[a, b] = index of a @ b)."""
    gens = exact_generators(spec)
    ident = Matrix.identity(spec.n, gens[0].m)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for mat in frontier:
            for g in gens:
                prod = g @ mat
                if prod.key() not in seen:
                    seen[prod.key()] = prod
                    nxt.append(prod)
        frontier = nxt
    matrices = sorted(seen.values(), key=Matrix.key)
    index = {mat.key(): i for i, mat in enumerate(matrices)}

    size = len(matrices)
    identity = index[ident.key()]
    gen_perms = [np.array([index[(g @ mat).key()] for mat in matrices],
                          dtype=np.int32) for g in gens]
    mult = np.empty((size, size), dtype=np.int32)
    mult[identity] = np.arange(size, dtype=np.int32)
    done = np.zeros(size, dtype=bool)
    done[identity] = True
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for perm in gen_perms:
                target = perm[w]
                if not done[target]:
                    mult[target] = perm[mult[w]]
                    done[target] = True
                    nxt.append(int(target))
        frontier = nxt
    if not done.all():
        raise AssertionError(f"{spec.label}: generators miss elements")
    return matrices, mult
