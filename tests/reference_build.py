"""Reference group construction by exact matrix products.

Breadth-first closure over the generator matrices, with each new element
the exact product g @ mat, followed by the multiplication table built from
the generators' left-multiplication maps, again by exact products.  This is
slow (|gens| * |W| matrix products twice over) and serves only as an oracle
for `ReflectionGroup`, which never multiplies two exact matrices.
"""

from __future__ import annotations

import numpy as np

from ncpforge.catalog import GroupSpec, conductor_of, generators_of
from ncpforge.cyclo import Matrix


def matmul_closure(spec: GroupSpec) -> tuple[list[Matrix], np.ndarray]:
    """The group's matrices in key order and its multiplication table
    (mult[a, b] = index of a @ b)."""
    gens = generators_of(spec)
    ident = Matrix.identity(spec.n, conductor_of(spec))
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
