"""Catalog-built reflection groups.

A group is built without multiplying two exact matrices.  The orbit V of the
standard basis vectors e_1..e_n under the generators is computed once with
exact `Matrix.apply`, and each generator becomes an integer permutation of
V.  Since V holds a basis, an element is determined by the permutation it
induces on V, so breadth-first closure runs over permutations keyed by their
bytes.  The closure records each generator's left-multiplication map, from
which the full multiplication table follows by index arithmetic.  Each
element's exact matrix is assembled from its columns g(e_j), which are
vectors of V, and elements are re-indexed in canonical digest order of those
matrices, so the indexing is identical across runs.  Fixed-space dimensions
come from averaging the character over each cyclic subgroup.  All
downstream computation works on integer indices against the multiplication
table; exact matrices are kept for fixed spaces, flats and the regularity
check.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import numpy as np

from .catalog import (
    GroupSpec,
    conductor_of,
    coxeter_matrix_of,
    degrees_of,
    generators_of,
    order_of,
    perm_to_element_matrix,
)
from .cyclo import CycNum, Matrix, Subspace, kernel
from .errors import (
    CoxeterValidationFailed,
    ElementNotInGroup,
    OrderCapExceeded,
)

DEFAULT_ORDER_CAP = 50_000


class ReflectionGroup:
    """Fully enumerated well-generated irreducible reflection group."""

    def __init__(self, spec: GroupSpec, order_cap: int = DEFAULT_ORDER_CAP):
        self.spec = spec
        self.conductor = conductor_of(spec)
        self.degrees = degrees_of(spec)
        self.n = spec.n
        self.h = self.degrees[-1]
        expected_order = _check_order_cap(spec, order_cap)

        gens = generators_of(spec)
        vectors, gen_perms = self._vector_orbit(gens, self.n * expected_order)
        perms, left = self._closure(gen_perms, expected_order * 2)
        if len(perms) != expected_order:
            raise CoxeterValidationFailed(
                f"{spec.label}: closure has {len(perms)} elements, "
                f"product of degrees is {expected_order}")
        # column j of an element's matrix is its image of e_j, a vector of V
        matrices = [Matrix(self.n, self.conductor,
                           zip(*(vectors[k] for k in perm[:self.n])))
                    for perm in perms.tolist()]
        order = sorted(range(len(matrices)), key=lambda i: matrices[i].digest())
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        self.matrices: list[Matrix] = [matrices[i] for i in order]
        self.size = len(self.matrices)
        self._index = {mat.key(): i for i, mat in enumerate(self.matrices)}
        # the closure starts from the identity permutation, element 0
        self.identity = int(rank[0])
        left = rank[left[:, order]]
        self.generators = [int(row[self.identity]) for row in left]

        self.mult = self._build_mult_table(left)
        self.inv = np.empty(self.size, dtype=np.int32)
        rows, cols = np.nonzero(self.mult == self.identity)
        self.inv[rows] = cols
        self.class_id, self.classes = self._conjugacy_classes()

        self.fixed_dim = self._fixed_dims()
        self._fixed_spaces: dict[int, Subspace] = {}
        self.reflections = [
            i for i in range(self.size)
            if i != self.identity and self.fixed_dim[i] == self.n - 1
        ]
        if len(self.reflections) != sum(d - 1 for d in self.degrees):
            raise CoxeterValidationFailed(
                f"{spec.label}: found {len(self.reflections)} reflections, "
                f"expected {sum(d - 1 for d in self.degrees)}")
        for r in self.reflections:
            if self.fixed_space(r).dim != self.n - 1:
                raise CoxeterValidationFailed(
                    f"{spec.label}: element {r} has character fixed "
                    f"dimension {self.n - 1} but a fixed space of dimension "
                    f"{self.fixed_space(r).dim}")

        self.length = self._length_table()

        cox = coxeter_matrix_of(spec)
        key = cox.key()
        if key not in self._index:
            raise CoxeterValidationFailed(
                f"{spec.label}: catalog Coxeter matrix not in the group")
        self.coxeter = self._index[key]
        self._validate_coxeter()

    # -- construction ----------------------------------------------------

    def _vector_orbit(self, gens: list[Matrix], cap: int
                      ) -> tuple[list[tuple], np.ndarray]:
        """The orbit V of e_1..e_n under the generators (basis vectors
        first) and each generator as a permutation of V:
        gen_perms[s, i] is the index of gens[s](V[i])."""
        one, zero = CycNum.one(self.conductor), CycNum.zero(self.conductor)
        vectors = [tuple(one if i == j else zero for i in range(self.n))
                   for j in range(self.n)]
        index = {v: i for i, v in enumerate(vectors)}
        gen_perms: list[list[int]] = [[] for _ in gens]
        pos = 0
        while pos < len(vectors):
            v = vectors[pos]
            for g, perm in zip(gens, gen_perms):
                image = g.apply(v)
                k = index.get(image)
                if k is None:
                    k = index[image] = len(vectors)
                    vectors.append(image)
                    if len(vectors) > cap:
                        raise OrderCapExceeded(
                            f"{self.spec.label}: basis-vector orbit blew "
                            f"past {cap} vectors")
                perm.append(k)
            pos += 1
        return vectors, np.array(gen_perms, dtype=np.int32)

    @staticmethod
    def _closure(gen_perms: np.ndarray, hard_cap: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first closure over permutations of V, from the identity.
        Returns the elements (one permutation per row, identity first) and
        left[s, w], the index of generator s times element w."""
        ident = np.arange(gen_perms.shape[1], dtype=np.int32)
        perms = [ident]
        seen = {ident.tobytes(): 0}
        left: list[list[int]] = [[] for _ in gen_perms]
        pos = 0
        while pos < len(perms):
            w = perms[pos]
            for s, row in zip(gen_perms, left):
                prod = s[w]
                key = prod.tobytes()
                k = seen.get(key)
                if k is None:
                    k = seen[key] = len(perms)
                    perms.append(prod)
                    if len(perms) > hard_cap:
                        raise OrderCapExceeded(
                            "closure blew past the expected order")
                row.append(k)
            pos += 1
        return np.array(perms), np.array(left, dtype=np.int32)

    def _build_mult_table(self, left: np.ndarray) -> np.ndarray:
        """Full table from the generators' left-multiplication maps:
        row s*w is left[s] applied to row w."""
        size = self.size
        mult = np.empty((size, size), dtype=np.int32)
        mult[self.identity] = np.arange(size, dtype=np.int32)
        done = np.zeros(size, dtype=bool)
        done[self.identity] = True
        frontier = [self.identity]
        while frontier:
            nxt = []
            for w in frontier:
                for perm in left:
                    target = perm[w]
                    if not done[target]:
                        mult[target] = perm[mult[w]]
                        done[target] = True
                        nxt.append(int(target))
            frontier = nxt
        if not done.all():
            raise CoxeterValidationFailed(
                f"{self.spec.label}: generators do not reach every element")
        return mult

    def _fixed_dims(self) -> np.ndarray:
        """dim Ker(w - 1) = (1/ord w) sum_{k < ord w} tr(w^k) for every
        element, the multiplicity of the trivial character on <w>; it is
        constant on conjugacy classes, so one representative per class."""
        zero = CycNum.zero(self.conductor)
        dims = np.empty(len(self.classes), dtype=np.int32)
        for cid, members in enumerate(self.classes):
            w = members[0]
            total, k, acc = zero, 0, self.identity
            while True:
                rows = self.matrices[acc].rows
                for i in range(self.n):
                    total = total + rows[i][i]
                k += 1
                acc = int(self.mult[acc, w])
                if acc == self.identity:
                    break
            dim = total.rational_value() / k if total.is_rational() else None
            if dim is None or dim.denominator != 1 or not 0 <= dim <= self.n:
                raise CoxeterValidationFailed(
                    f"{self.spec.label}: character average of element {w} "
                    f"is not a dimension in 0..{self.n}")
            dims[cid] = dim.numerator
        return dims[self.class_id]

    def _length_table(self) -> np.ndarray:
        dist = np.full(self.size, -1, dtype=np.int32)
        dist[self.identity] = 0
        frontier = np.array([self.identity], dtype=np.int32)
        d = 0
        refl = np.array(self.reflections, dtype=np.int32)
        while frontier.size:
            d += 1
            reached = np.unique(self.mult[np.ix_(refl, frontier)])
            new = reached[dist[reached] < 0]
            dist[new] = d
            frontier = new
        if (dist < 0).any():
            raise CoxeterValidationFailed(
                f"{self.spec.label}: reflections do not generate the group")
        return dist

    def _conjugacy_classes(self) -> tuple[np.ndarray, list[list[int]]]:
        class_id = np.full(self.size, -1, dtype=np.int32)
        classes: list[list[int]] = []
        gen_and_inv = list(self.generators) + [
            int(self.inv[g]) for g in self.generators
        ]
        for start in range(self.size):
            if class_id[start] >= 0:
                continue
            cid = len(classes)
            orbit = [start]
            class_id[start] = cid
            queue = [start]
            while queue:
                w = queue.pop()
                for g in gen_and_inv:
                    conj = int(self.mult[g, self.mult[w, self.inv[g]]])
                    if class_id[conj] < 0:
                        class_id[conj] = cid
                        orbit.append(conj)
                        queue.append(conj)
            classes.append(sorted(orbit))
        return class_id, classes

    def _validate_coxeter(self) -> None:
        c = self.coxeter
        if self.element_order(c) != self.h:
            raise CoxeterValidationFailed(
                f"{self.spec.label}: Coxeter element has order "
                f"{self.element_order(c)}, expected h = {self.h}")
        if self.fixed_dim[c] != 0:
            raise CoxeterValidationFailed(
                f"{self.spec.label}: Coxeter element has a nontrivial fixed space")
        if int(self.length[c]) != self.n:
            raise CoxeterValidationFailed(
                f"{self.spec.label}: reflection length of c is "
                f"{int(self.length[c])}, expected {self.n}")
        if not self.coxeter_regularity_check():
            raise CoxeterValidationFailed(
                f"{self.spec.label}: catalog Coxeter element is not "
                f"zeta_h-regular")

    # -- queries ----------------------------------------------------------

    def index_of(self, mat: Matrix) -> int:
        try:
            return self._index[mat.key()]
        except KeyError:
            raise ElementNotInGroup(f"matrix not in {self.spec.label}") from None

    def element_from_permutation(self, perm: tuple[int, ...]) -> int:
        """Type A only: one-line permutation of 1..n+1 to element index."""
        return self.index_of(perm_to_element_matrix(self.spec, perm))

    def product(self, *elements: int) -> int:
        acc = self.identity
        for w in elements:
            acc = int(self.mult[acc, w])
        return acc

    def inverse(self, w: int) -> int:
        return int(self.inv[w])

    def conjugate(self, w: int, by: int) -> int:
        """by^{-1} * w * by."""
        return int(self.mult[self.inv[by], self.mult[w, by]])

    def element_order(self, w: int) -> int:
        self._check_member(w)
        k, acc = 1, w
        while acc != self.identity:
            acc = int(self.mult[acc, w])
            k += 1
        return k

    def reflection_length(self, w: int) -> int:
        self._check_member(w)
        return int(self.length[w])

    def divides(self, u: int, v: int) -> bool:
        """Absolute order: l(u) + l(u^{-1} v) = l(v)."""
        self._check_member(u)
        self._check_member(v)
        quotient = self.mult[self.inv[u], v]
        return int(self.length[u]) + int(self.length[quotient]) == int(self.length[v])

    def conjugacy_class(self, w: int) -> list[int]:
        self._check_member(w)
        return self.classes[int(self.class_id[w])]

    def _check_member(self, w) -> None:
        if not 0 <= int(w) < self.size:
            raise ElementNotInGroup(f"index {w} outside 0..{self.size - 1}")

    def fixed_space(self, w: int) -> Subspace:
        """Ker(w - 1), exact; cached on the group, so the cache dies with it."""
        space = self._fixed_spaces.get(w)
        if space is None:
            space = self._fixed_spaces[w] = kernel(
                self.matrices[w].minus_identity())
        return space

    def coxeter_regularity_check(self, w: int | None = None) -> bool:
        """True iff w (default: the catalog c) has a zeta_h-eigenvector
        avoiding every reflecting hyperplane.  Arithmetic is lifted to the
        conductor lcm(m, h)."""
        if w is None:
            w = self.coxeter
        big_m = lcm(self.conductor, self.h)
        mat = self.matrices[w].embed(big_m)
        zeta_h = CycNum.zeta(big_m, big_m // self.h)
        eigenspace = kernel(mat.minus_scalar(zeta_h))
        if eigenspace.dim == 0:
            return False
        # a regular eigenvector exists iff no hyperplane contains the
        # whole eigenspace (the field is infinite)
        for r in self.reflections:
            hyper = self.fixed_space(r)
            lifted = Subspace(
                hyper.n, big_m,
                [[e.embed(big_m) for e in v] for v in hyper.basis])
            if lifted.contains_subspace(eigenspace):
                return False
        return True

    def __repr__(self):
        return f"ReflectionGroup({self.spec.label}, |W|={self.size})"


def _check_order_cap(spec: GroupSpec, order_cap: int) -> int:
    """The order of the spec's group, if it is within the cap."""
    order = order_of(spec)
    if order > order_cap:
        raise OrderCapExceeded(
            f"{spec.label}: order {order} exceeds cap {order_cap}")
    return order


@lru_cache(maxsize=None)
def _cached_group(spec: GroupSpec) -> ReflectionGroup:
    return ReflectionGroup(spec, order_cap=order_of(spec))


def build_group(spec: GroupSpec, order_cap: int = DEFAULT_ORDER_CAP) -> ReflectionGroup:
    """Build (and cache) the catalog group for a spec.  The cap only decides
    whether the group may be built, so the cache is keyed on the spec alone
    and every call form and cap returns the same object."""
    _check_order_cap(spec, order_cap)
    return _cached_group(spec)
