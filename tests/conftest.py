import pytest

import ncpforge.catalog as catalog
from ncpforge.catalog import GroupSpec
from ncpforge.cyclo import Subspace
from ncpforge import group as group_module
from ncpforge.group import build_group
from ncpforge.ncp import build_ncp


def element_of_permutation(group, perm):
    """The element of A(n) given by a one-line permutation of 1..n+1.  It
    sends the simple root e_j - e_{j+1} to e_{perm(j)} - e_{perm(j+1)},
    whose simple-root coordinates are +-1 on the roots between the two
    positions; that vector is looked up in `group.coords` (A(n) lives over
    Q, so each coordinate is a single integer)."""
    vectors = group.coords.tolist()
    images = []
    for a, b in zip(perm, perm[1:]):
        sign = 1 if a < b else -1
        root = [[sign if min(a, b) <= k < max(a, b) else 0]
                for k in range(1, group.n + 1)]
        images.append(vectors.index(root))
    return int(group.mult.locate(images))


def fixed_spaces_meet_in(group, u, q, v):
    """Fix(u) /\\ Fix(q) = Fix(v), without computing the intersection:
    Fix(v) lies in both, and dim Fix(u) + dim Fix(q) - dim(Fix(u) + Fix(q))
    = dim Fix(v)."""
    fu, fq, fv = (group.fixed_space(w) for w in (u, q, v))
    total = Subspace(group.n, group.conductor, fu.basis + fq.basis)
    return (fu.contains_subspace(fv) and fq.contains_subspace(fv)
            and fu.dim + fq.dim - total.dim == fv.dim)


@pytest.fixture(scope="session")
def a3():
    return build_group(GroupSpec("A", 3))


@pytest.fixture(scope="session")
def a3_ncp(a3):
    return build_ncp(a3)


@pytest.fixture(scope="session")
def b3():
    return build_group(GroupSpec("B", 3))


@pytest.fixture(scope="session")
def b3_ncp(b3):
    return build_ncp(b3)


@pytest.fixture(scope="session")
def g333():
    return build_group(GroupSpec("G", 3, 3))


@pytest.fixture(scope="session")
def g333_ncp(g333):
    return build_ncp(g333)


@pytest.fixture
def no_huge_degrees(monkeypatch):
    """Fail the test if the degrees of a rank above 1000 are listed: for a
    rank like 10^9 that tuple alone would exhaust memory."""
    real = catalog.degrees_of

    def small_only(spec):
        if spec.n > 1000:
            pytest.fail(f"degrees of {spec.label} listed")
        return real(spec)

    monkeypatch.setattr(catalog, "degrees_of", small_only)
    monkeypatch.setattr(group_module, "degrees_of", small_only)
