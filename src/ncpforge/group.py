"""Catalog-built reflection groups, stored as permutations.

A group is built without multiplying two exact matrices.  The catalog
gives each generator as an integer matrix on the n * phi(m) power-basis
coefficients of Z[zeta_m]^n, and the orbit V of the standard basis
vectors e_1..e_n under these matrices is computed once, in plain
integers.  `coords[i, j]` are the coefficients of coordinate j of V[i],
and that is the only stored form of V.  Each generator becomes an
integer permutation of V.  Since V holds a
basis, an element is determined by the permutation it induces on V, and
even by its basis images g(e_j), which are vectors of V.  That
permutation is the only stored form of an element: `mult.perms` holds one
row per element, and each element is numbered by the rank of its code,
the mixed-radix number sum_j perm[j] |V|^j of its basis images, so the
indexing is identical across runs.  Breadth-first closure runs over whole
frontiers of permutations at once; since every generator is a reflection
of order 2, each frontier is deduplicated against the one before it
alone.

A product a*b is the row of a composed with the basis images of b; its
code is found in the sorted `codes` array.  `mult` does this for index
arrays of any shape, a fixed chunk of products at a time, so it reads
like an |W| x |W| table that is never built; `product` (of single
elements) and `inverse` (of an index array, from the preimages of the
basis) are lookups through `mult`, and reject indices outside 0..|W|-1.

Two traversals serve every search over W: `powers` lists the basis
images of the powers of one element (read by the fixator and the
regularity check), and the module-level `components` labels connected
components (conjugacy classes, Hurwitz orbits, strong conjugacy).  A
generated subgroup, such as a parabolic closure, is closed from its
generators' rows by `_closure`, not searched for in W.  Element order,
fixed-space dimension and reflection length are class functions, so the
build finds them from one representative per class: orders and
dimensions by one walk over the powers of all representatives at once,
lengths by a breadth-first search over classes.  A sum of vectors of V,
such as a trace or the images of a flat's spanning vectors under the
elements, is an integer gather from `coords` and one sum, and so is the
zeta_h-regularity check: the projector sum_k zeta_h^-k w^k onto the
eigenspace, applied to the basis and moved by one reflection per orbit of
conjugation by w, all at once, in the integer power basis of
Z[zeta_lcm(m, h)].  The build does no
arithmetic in Q(zeta_m): it cross-checks that one reflection r per class
fixes a hyperplane by the 2x2 minors of r - 1, products in Z[zeta_m]
reduced by the zeta_m table, and an element's exact matrix is assembled
from its columns only when a caller asks for it.  The Coxeter element c
is the product of the generators in order, composed from their basis
images and found by one lookup; it is checked to have order h, no fixed
vector, reflection length n and a zeta_h-eigenvector off every
reflecting hyperplane.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import lcm, prod

import numpy as np

from .catalog import (
    GroupSpec,
    conductor_of,
    degrees_of,
    generators_of,
    order_of,
)
from .cyclo import euler_phi, zeta_powers
from .errors import (
    CoxeterValidationFailed,
    ElementNotInGroup,
    OrderCapExceeded,
)

DEFAULT_ORDER_CAP = 50_000
_CODE_LIMIT = np.iinfo(np.int64).max
# products per chunk of `ProductView.__getitem__`; its temporaries take
# this many rows of n basis images and codes
_CHUNK = 1 << 14


def components(size: int, edges) -> np.ndarray:
    """Connected components of the undirected graph on nodes 0..size-1
    whose edges are given as a list of (src, dst) index-array pairs: each
    node ends labelled with the least node of its component.  Labels fall
    to the least label across every edge, both ways, then jump to their
    label's label, until nothing changes."""
    label = np.arange(size)
    while True:
        new = label.copy()
        for src, dst in edges:
            np.minimum.at(new, src, new[dst])
            np.minimum.at(new, dst, new[src])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


class ProductView:
    """The multiplication table of a group without the table.

    `mult[a, b]` is the index of the product a*b for index arrays a and b
    that broadcast together (so `np.ix_` works).  Each product composes
    the row of a with the basis images of b and looks the resulting code
    up in the sorted codes, at most `_CHUNK` products at a time."""

    def __init__(self, perms: np.ndarray, codes: np.ndarray,
                 radix: np.ndarray):
        self.perms = perms
        self.codes = codes
        self.radix = radix

    @property
    def nbytes(self) -> int:
        """Bytes of the element store behind the products."""
        return self.perms.nbytes + self.codes.nbytes

    def __getitem__(self, key) -> np.ndarray:
        a, b = map(np.asarray, key)
        shape = np.broadcast_shapes(a.shape, b.shape)
        if prod(shape) <= _CHUNK:
            return self._products(a, b)
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(shape, dtype=np.int32)
        flat = out.reshape(-1)
        for start in range(0, out.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            flat[part] = self._products(a.flat[part], b.flat[part])
        return out

    def _products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.locate(self.perms[a[..., None],
                                      self.perms[b, :len(self.radix)]])

    def locate(self, images) -> np.ndarray:
        """Element indices (int32) from basis images, an array whose last
        axis runs over e_1..e_n; images of no element raise."""
        code = np.asarray(images, dtype=np.int64) @ self.radix
        idx = np.minimum(np.searchsorted(self.codes, code),
                         len(self.codes) - 1)
        if not np.all(self.codes[idx] == code):
            raise ElementNotInGroup("basis images of no group element")
        return idx.astype(np.int32)


class ElementMatrices(Sequence):
    """The exact matrix of each element, assembled on access: column j of
    element w is the vector of V at perms[w, j]."""

    def __init__(self, conductor: int, coords: np.ndarray, perms: np.ndarray):
        self._conductor = conductor
        self._coords = coords
        self._perms = perms

    def __len__(self) -> int:
        return len(self._perms)

    def __getitem__(self, w) -> Matrix:
        from fractions import Fraction

        from .cyclo import CycNum, Matrix

        n, m = self._coords.shape[1], self._conductor
        columns = self._coords[self._perms[w, :n]].tolist()
        return Matrix(n, m, [[CycNum(m, tuple(map(Fraction, x))) for x in row]
                             for row in zip(*columns)])


class ReflectionGroup:
    """Fully enumerated well-generated irreducible reflection group."""

    def __init__(self, spec: GroupSpec, order_cap: int = DEFAULT_ORDER_CAP):
        expected_order = _check_order_cap(spec, order_cap)
        self.spec = spec
        self.conductor = conductor_of(spec)
        self.degrees = degrees_of(spec)
        self.n = spec.n
        self.h = self.degrees[-1]

        gens = generators_of(spec)
        vectors, gen_perms = self._vector_orbit(gens, self.n * expected_order)
        if len(vectors) ** self.n > _CODE_LIMIT:
            raise OrderCapExceeded(
                f"{spec.label}: codes of {len(vectors)}^{self.n} basis "
                f"images do not fit in 64 bits")
        # a regularity sum runs over k < ord w <= |W| and a < phi(m) and
        # adds a difference of two coordinates times a table entry; a
        # fixator test sums at most |W| coordinates.  Read it before the
        # int64 conversion, which raises OverflowError on a larger one
        largest = max(max(map(max, vectors)), -min(map(min, vectors)))
        exponents, zeta = _projector(self.conductor, self.h)
        entry = int(np.abs(zeta).max(axis=1)[exponents].max())
        # h x phi(m) exponents and the zeta_M table, 38 MB on I2(3000):
        # not held through the closure
        del exponents, zeta
        phi = euler_phi(self.conductor)
        if largest * entry * expected_order * phi * 2 > _CODE_LIMIT:
            raise OrderCapExceeded(
                f"{spec.label}: a coordinate {largest} times a table entry "
                f"{entry} times |W| = {expected_order} times 2 phi(m) = "
                f"{2 * phi} does not fit in 64 bits")
        # each of the 2 phi - 1 convolution coefficients of a 2x2 minor of
        # w - 1 is a difference of two sums of phi products of entries up
        # to largest + 1, and their reduction sums them times table entries
        entry = int(np.abs(_reduction_table(self.conductor)).max())
        if 2 * (2 * phi - 1) * phi * (largest + 1) ** 2 * entry > _CODE_LIMIT:
            raise OrderCapExceeded(
                f"{spec.label}: 2x2 minors of entries up to {largest + 1} "
                f"over Z[zeta_{self.conductor}] do not fit in 64 bits")
        self.coords = np.array(vectors, dtype=np.int64).reshape(
            len(vectors), self.n, -1)
        radix = len(vectors) ** np.arange(self.n, dtype=np.int64)
        perms, codes = self._closure(gen_perms, radix, expected_order * 2)
        if len(perms) != expected_order:
            raise CoxeterValidationFailed(
                f"{spec.label}: closure has {len(perms)} elements, "
                f"product of degrees is {expected_order}")
        self.size = len(perms)
        self.mult = ProductView(perms, codes, radix)
        self.matrices = ElementMatrices(self.conductor, self.coords, perms)

        self.identity = int(self.mult.locate(np.arange(self.n)))
        self.generators = self.mult.locate(gen_perms[:, :self.n]).tolist()
        self.class_id, self.class_reps = self._conjugacy_classes()

        self.fixed_dim, self.class_order = self._fixed_dims()
        self._fixed_spaces = {}
        # the identity fixes all n dimensions, so it is not among these
        self.reflections = np.flatnonzero(self.fixed_dim == self.n - 1)
        if len(self.reflections) != sum(d - 1 for d in self.degrees):
            raise CoxeterValidationFailed(
                f"{spec.label}: found {len(self.reflections)} reflections, "
                f"expected {sum(d - 1 for d in self.degrees)}")
        # r - 1 has rank 1 iff Fix(r) is a hyperplane, and Fix(g r g^-1) =
        # g Fix(r), so one test per class of reflections checks them all
        reps = self.class_reps[self.fixed_dim[self.class_reps] == self.n - 1]
        bad = reps[~self._rank_one(reps)]
        if bad.size:
            raise CoxeterValidationFailed(
                f"{spec.label}: element {int(bad[0])} has character fixed "
                f"dimension {self.n - 1} but w - 1 is not of rank 1")

        self.length = self._reflection_lengths()
        if (self.length < 0).any():
            raise CoxeterValidationFailed(
                f"{spec.label}: reflections do not generate the group")

        # c = s_1 ... s_n sends e_j to s_1(...(s_n(e_j)))
        images = np.arange(self.n)
        for perm in gen_perms[::-1]:
            images = perm[images]
        self.coxeter = int(self.mult.locate(images))
        self._validate_coxeter()

    # -- construction ----------------------------------------------------

    def _vector_orbit(self, gens: list[np.ndarray], cap: int
                      ) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The orbit V of e_1..e_n under the generators (basis vectors
        first), each vector as its n * phi(m) integer coordinates, and each
        generator as a permutation of V: gen_perms[s, i] is the index of
        gens[s](V[i]).  It runs in Python ints over each generator's
        nonzero columns, so no coordinate wraps before the int64 guard."""
        phi = euler_phi(self.conductor)
        width = self.n * phi
        columns = []
        for g in gens:
            cols = [[] for _ in range(width)]
            rows, at = np.nonzero(g)
            for row, col, c in zip(rows.tolist(), at.tolist(),
                                   g[rows, at].tolist()):
                cols[col].append((row, c))
            columns.append(cols)
        vectors = [tuple(int(k == j * phi) for k in range(width))
                   for j in range(self.n)]
        index = {v: i for i, v in enumerate(vectors)}
        gen_perms: list[list[int]] = [[] for _ in gens]
        for v in vectors:  # also visits the vectors appended below
            for cols, perm in zip(columns, gen_perms):
                out = [0] * width
                for k, x in enumerate(v):
                    if x:
                        for row, c in cols[k]:
                            out[row] += c * x
                image = tuple(out)
                i = index.get(image)
                if i is None:
                    i = index[image] = len(vectors)
                    vectors.append(image)
                    if len(vectors) > cap:
                        raise OrderCapExceeded(
                            f"{self.spec.label}: basis-vector orbit blew "
                            f"past {cap} vectors")
                perm.append(i)
        dtype = np.min_scalar_type(len(vectors) - 1)
        return vectors, np.array(gen_perms, dtype=dtype)

    @staticmethod
    def _closure(gen_perms: np.ndarray, radix: np.ndarray, hard_cap: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first closure over permutations of V from the identity,
        one whole frontier per step.  Returns the elements (one permutation
        per row) and their codes, sorted by code.

        Every catalog generator is a reflection of order 2, of determinant
        -1, so level k holds elements of determinant (-1)^k and a product
        of level k lies in level k-1 or k+1 only; each new level is
        deduplicated against the level before it alone.  Should a
        generator break that premise, elements recur and the closure
        overshoots: the hard cap or the check for a repeated code refuses
        it, so a wrong group is never returned.

        A level's products are deduplicated by one stable sort of their
        codes, which keeps the first product of each run of equal codes,
        as `np.unique` would, and one search of those codes in the
        previous level's, which are sorted already."""
        n = len(radix)
        frontier = np.arange(gen_perms.shape[1], dtype=gen_perms.dtype)[None]
        # the level before the identity is empty; -1 stands below every code
        previous = np.array([-1])
        codes = frontier[:, :n].astype(np.int64) @ radix
        levels, level_codes = [frontier], [codes]
        total = 1
        while len(frontier):
            # product s * k + i is generator s composed with frontier[i]
            products = gen_perms[:, frontier[:, :n]].reshape(-1, n)
            code = products.astype(np.int64) @ radix
            order = np.argsort(code, kind="stable")
            code = code[order]
            # the first of each run of equal codes, in product order
            head = np.ones(len(code), dtype=bool)
            head[1:] = code[1:] != code[:-1]
            found, first = code[head], order[head]
            # a code is new unless the search lands on an equal one
            new = previous.take(np.searchsorted(previous, found),
                                mode="clip") != found
            gen, row = np.divmod(first[new], len(frontier))
            frontier = gen_perms[gen[:, None], frontier[row]]
            previous, codes = codes, found[new]
            total += len(frontier)
            if total > hard_cap:
                raise OrderCapExceeded("closure blew past the expected order")
            levels.append(frontier)
            level_codes.append(codes)
        codes = np.concatenate(level_codes)
        order = np.argsort(codes)
        codes = codes[order]
        if (codes[1:] == codes[:-1]).any():
            raise CoxeterValidationFailed(
                "closure reached an element twice: a generator is not a "
                "reflection of order 2")
        return np.concatenate(levels)[order], codes

    def _fixed_dims(self) -> tuple[np.ndarray, np.ndarray]:
        """dim Ker(w - 1) = (1/ord w) sum_{k < ord w} tr(w^k) for every
        element, the multiplicity of the trivial character on <w>, and the
        order of each conjugacy class's elements; both are constant on
        classes, so one representative per class.  tr g = sum_j
        coordinate j of V[g(e_j)], a sum of power-basis coefficients that
        is rational iff all past the first are zero.  The powers of all
        representatives are walked together, each one leaving the walk
        when its basis images return to the start, after ord w steps."""
        diagonal = np.arange(self.n)
        reps = self.class_reps
        totals = np.empty((len(reps), self.coords.shape[-1]), dtype=np.int64)
        orders = np.empty(len(reps), dtype=np.int64)
        # row r of the walk: class live[r], its representative walking[r],
        # the basis images of its current power and its trace sum so far
        live, walking = np.arange(len(reps)), reps[:, None]
        images = np.broadcast_to(diagonal, (len(reps), self.n))
        acc = np.zeros_like(totals)
        order = 0
        while live.size:
            for j in range(self.n):
                acc += self.coords[images[:, j], j]
            order += 1
            images = self.mult.perms[walking, images]
            back = (images == diagonal).all(axis=1)
            if back.any():
                totals[live[back]], orders[live[back]] = acc[back], order
                more = ~back
                live, walking = live[more], walking[more]
                images, acc = images[more], acc[more]
        dims, rest = np.divmod(totals[:, 0], orders)
        bad = (totals[:, 1:].any(axis=1) | (rest != 0)
               | (dims < 0) | (dims > self.n))
        if bad.any():
            raise CoxeterValidationFailed(
                f"{self.spec.label}: character average of element "
                f"{int(reps[np.argmax(bad)])} is not a dimension in "
                f"0..{self.n}")
        return dims.astype(np.int32)[self.class_id], orders

    def _rank_one(self, ws: np.ndarray) -> np.ndarray:
        """For each element w of the index array ws, whether w - 1 has rank
        exactly 1 over Q(zeta_m), that is whether Fix(w) is a hyperplane:
        w - 1 is not zero and all its 2x2 minors vanish, in exact integers.
        Entry (i, j) is coordinate i of w(e_j) less delta_ij, phi(m)
        power-basis coefficients; a product of two entries is their
        convolution, 2 phi - 1 coefficients of powers of zeta_m, reduced by
        one `_reduction_table`.  All C(n, 2)^2 minors of all elements are
        formed at once."""
        n, phi = self.n, self.coords.shape[-1]
        # a[w, i, j] = coordinate i of w(e_j) - delta_ij
        a = self.coords[self.mult.perms[ws, :n]].swapaxes(1, 2)
        a[:, np.arange(n), np.arange(n), 0] -= 1
        # minor (p, q) takes rows first[p] < second[p], columns first[q] <
        # second[q]: a[i1, j1] a[i2, j2] - a[i1, j2] a[i2, j1]
        first, second = np.triu_indices(n, 1)
        i1, i2 = first[:, None], second[:, None]
        x, y = a[:, i1, first], a[:, i2, second]
        u, v = a[:, i1, second], a[:, i2, first]
        conv = np.zeros(x.shape[:-1] + (2 * phi - 1,), dtype=np.int64)
        for k in range(phi):
            conv[..., k:k + phi] += x[..., k, None] * y - u[..., k, None] * v
        minors = conv @ _reduction_table(self.conductor)
        return a.any(axis=(1, 2, 3)) & ~minors.any(axis=(1, 2, 3))

    def _conjugacy_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Classes as the components of the graph joining each element w
        to g w g^-1 for every generator g.  Returns each element's class
        number and each class's least element, the classes numbered in the
        order of their least elements; `np.bincount(class_id)` gives the
        class sizes."""
        elements = np.arange(self.size)
        label = components(self.size, [
            (elements, self._conjugates(g, elements))
            for g in self.generators])
        reps, class_id = np.unique(label, return_inverse=True)
        return class_id.astype(np.int32), reps.astype(np.int32)

    def _conjugates(self, g: int, x: np.ndarray) -> np.ndarray:
        """g x g^-1 for each element of the index array x: one gather of
        the basis images, g after x after those of g^-1, and one lookup.
        Only the n images of each x are gathered, not its whole row."""
        perms = self.mult.perms
        return self.mult.locate(
            perms[g][perms[x[:, None], perms[self.inverse(g), :self.n]]])

    def _reflection_lengths(self) -> np.ndarray:
        """Reflection length of every element, -1 where the reflections do
        not reach.  R is closed under conjugation, so the length is a class
        function: level d+1 is the set of classes hit by r w for r in R and
        w the representative of a class of level d, less the lower
        levels."""
        dist = np.full(len(self.class_reps), -1, dtype=np.int32)
        level = self.class_id[[self.identity]]
        dist[level] = 0
        d = 0
        while level.size:
            d += 1
            hit = self.class_id[self.mult[self.reflections[:, None],
                                          self.class_reps[level]]].ravel()
            dist[hit[dist[hit] < 0]] = d
            level = np.flatnonzero(dist == d)
        return dist[self.class_id]

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

    def product(self, *elements: int) -> int:
        """Index of the product of the elements, left to right."""
        for w in elements:
            self._check_member(w)
        if not elements:
            return self.identity
        acc = int(elements[0])
        for w in elements[1:]:
            acc = int(self.mult[acc, w])
        return acc

    def inverse(self, w):
        """Inverses of the elements of an index array (an int32 for an int):
        w^-1 sends e_j to the x where perms[w, x] = j."""
        self._check_member(w)
        images = self.mult.perms[np.ravel(w)]
        rows, cols = np.nonzero(images < self.n)
        preimages = np.empty((len(images), self.n), dtype=images.dtype)
        preimages[rows, images[rows, cols]] = cols
        return self.mult.locate(preimages).reshape(np.shape(w))[()]

    def powers(self, w: int) -> list[list[int]]:
        """The basis images (positions in V) of w^0, w^1, ..., w^(o-1),
        with o the order of w."""
        self._check_member(w)
        row = self.mult.perms[w].tolist()
        start = list(range(self.n))
        out, images = [], start
        while True:
            out.append(images)
            images = [row[x] for x in images]
            if images == start:
                return out

    def element_order(self, w: int) -> int:
        self._check_member(w)
        return int(self.class_order[self.class_id[w]])

    def reflection_length(self, w: int) -> int:
        self._check_member(w)
        return int(self.length[w])

    def _check_member(self, w) -> None:
        if not np.all((0 <= w) & (w < self.size)):
            raise ElementNotInGroup(f"index {w} outside 0..{self.size - 1}")

    def fixed_space(self, w: int) -> Subspace:
        """Ker(w - 1), exact; cached on the group, so the cache dies with it.
        The build never asks for it: it tests hyperplanes by `_rank_one`."""
        from .cyclo import kernel

        self._check_member(w)
        space = self._fixed_spaces.get(w)
        if space is None:
            space = self._fixed_spaces[w] = kernel(
                self.matrices[w].minus_identity())
        return space

    def coxeter_regularity_check(self, w: int | None = None) -> bool:
        """True iff w (default: the catalog c) has a zeta_h-eigenvector
        avoiding every reflecting hyperplane, in exact integer sums.

        With o the order of w, zeta_h is an eigenvalue only if h divides
        o, and then P = sum_{k<o} zeta_h^-k w^k maps onto the eigenspace E.
        A regular eigenvector exists iff E != 0 and no hyperplane H_r =
        Ker(r - 1) contains E (the field is infinite), that is iff some
        P e_j != 0 and, for every reflection r, some (r - 1) P e_j != 0.
        Since w E = E and w H_r = H_{w r w^-1}, E lies in H_r iff it lies
        in the hyperplane of every conjugate of r by a power of w, so one
        reflection per orbit of conjugation by w is tested.  Both sums are
        rows of `coords`, summed over the powers k of w with equal k mod h;
        coefficient a of power k stands for zeta_m^a zeta_h^-k, so it is
        added at that exponent of zeta_M, M = lcm(m, h), one coefficient a
        at a time, and the sums are multiplied once by the table of zeta_M
        powers (`_projector`)."""
        if w is None:
            w = self.coxeter
        powers = np.array(self.powers(w))
        if len(powers) % self.h:
            return False
        refl = self.reflections
        conjugates = self._conjugates(w, refl)
        pos = np.minimum(np.searchsorted(refl, conjugates), len(refl) - 1)
        if not np.array_equal(refl[pos], conjugates):
            raise CoxeterValidationFailed(
                f"{self.spec.label}: a conjugate of a reflection by {w} is "
                f"not a reflection")
        # each orbit is labelled by its least reflection
        orbit = components(len(refl), [(np.arange(len(refl)), pos)])
        tested = refl[orbit == np.arange(len(refl))]
        exponents, zeta = _projector(self.conductor, self.h)
        moves = self.mult.perms[tested][:, powers]
        folds = (-1, self.h, self.n, self.n)
        eigen = np.zeros((len(zeta),) + folds[2:], dtype=np.int64)
        off = np.zeros((len(zeta), len(tested)) + folds[2:], dtype=np.int64)
        # one power-basis coefficient a at a time; for fixed a the
        # exponents of the h folded powers are distinct, so a plain
        # indexed add scatters them
        for a in range(self.coords.shape[-1]):
            column = self.coords[..., a]
            images = column[powers]
            eigen[exponents[:, a]] += images.reshape(folds).sum(axis=0)
            off[exponents[:, a]] += ((column[moves] - images)
                                     .reshape((len(tested),) + folds)
                                     .sum(axis=1).swapaxes(0, 1))
        eigen = np.tensordot(zeta, eigen, axes=(0, 0))
        off = np.tensordot(zeta, off, axes=(0, 0))
        return bool(eigen.any() and off.any(axis=(0, 2, 3)).all())

    def __repr__(self):
        return f"ReflectionGroup({self.spec.label}, |W|={self.size})"


def _check_order_cap(spec: GroupSpec, order_cap: int) -> int:
    """The order of the spec's group, if it is within the cap.  Every
    catalog group of rank n has order at least n!, so a rank too large for
    the cap is refused as soon as 2 * 3 * ... * k passes the cap, before
    any degree is listed."""
    bound = 1
    for k in range(2, spec.n + 1):
        bound *= k
        if bound > order_cap:
            raise OrderCapExceeded(
                f"{spec.label}: order at least {k}! = {bound} exceeds cap "
                f"{order_cap}")
    order = order_of(spec)
    if order > order_cap:
        raise OrderCapExceeded(
            f"{spec.label}: order {order} exceeds cap {order_cap}")
    return order


def _reduction_table(m: int) -> np.ndarray:
    """Row k < 2 phi(m) - 1 holds the power-basis coefficients of zeta_m^k,
    row k mod m of `zeta_powers(m)`: the powers that a product of two
    power-basis vectors of Z[zeta_m] reaches."""
    rows = zeta_powers(m)
    return np.array([rows[k % m] for k in range(2 * len(rows[0]) - 1)],
                    dtype=np.int64)


def _projector(m: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """zeta_m^a zeta_h^-k = zeta_M^e with M = lcm(m, h): the exponents
    e[k, a] = a M/m - k M/h mod M for k < h and a < phi(m), and the integer
    table of zeta_M powers, whose row e holds the coefficients of zeta_M^e
    in the power basis of Z[zeta_M]."""
    big_m = lcm(m, h)
    exponents = (np.arange(euler_phi(m)) * (big_m // m)
                 - np.arange(h)[:, None] * (big_m // h)) % big_m
    return exponents, np.array(zeta_powers(big_m), dtype=np.int64)


@lru_cache(maxsize=None)
def _cached_group(spec: GroupSpec) -> ReflectionGroup:
    return ReflectionGroup(spec, order_cap=order_of(spec))


def build_group(spec: GroupSpec, order_cap: int = DEFAULT_ORDER_CAP) -> ReflectionGroup:
    """Build (and cache) the catalog group for a spec.  The cap only decides
    whether the group may be built, so the cache is keyed on the spec alone
    and every call form and cap returns the same object."""
    _check_order_cap(spec, order_cap)
    return _cached_group(spec)
