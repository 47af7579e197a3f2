import pytest
from hypothesis import strategies as st

from starbench import (
    PROPERTY_CLASSIFIERS,
    RingScan,
    build_ring,
    build_scalar_algebra,
    parse_ring_expr,
)

_CACHE = {}


def cached_ring(text):
    """Rings are immutable once built, so share them across the session."""
    if text not in _CACHE:
        _CACHE[text] = build_ring(parse_ring_expr(text))
    return _CACHE[text]


def every_report(ring, scan=None):
    """Every classifier's report on the ring, by property name, over one
    shared scan."""
    scan = scan or RingScan(ring)
    return {name: check(ring, scan) for name, check in PROPERTY_CLASSIFIERS.items()}


_MATRICES = st.lists(st.integers(0, 3), min_size=4, max_size=4)


@st.composite
def m2_subrings(draw):
    """The descriptor of a one- or two-generator subring of M(2, Z(m)),
    2 <= m <= 4, with some generator nonzero mod m. Zero generators, and
    M(2, Z(1)) whatever its generators, give the one-element ring, which
    would take a large share of the draws; the tests that draw from here
    name it in an explicit example instead."""
    m = draw(st.integers(2, 4))
    gens = draw(
        st.lists(_MATRICES, min_size=1, max_size=2).filter(
            lambda gens: any(e % m for g in gens for e in g)
        )
    )
    literals = ", ".join("[[%d,%d],[%d,%d]]" % tuple(e % m for e in g) for g in gens)
    return "sub(M(2, Z(%d)); %s)" % (m, literals)


@pytest.fixture(scope="session")
def ring_of():
    return cached_ring


@pytest.fixture(scope="session")
def z6():
    return cached_ring("Z(6)")


@pytest.fixture(scope="session")
def m2z3():
    return cached_ring("M(2,Z(3))")


@pytest.fixture(scope="session")
def m2z2():
    return cached_ring("M(2,Z(2))")


@pytest.fixture(scope="session")
def prod23():
    return cached_ring("prod(Z(2),Z(3))")


@pytest.fixture(scope="session")
def sub93():
    """{0, 3, 6} inside Z(9): no unity, every product zero."""
    return cached_ring("sub(Z(9); 3)")


@pytest.fixture(scope="session")
def algebra_of():
    def build(ring_text, scalar_text, action="natural"):
        return build_scalar_algebra(
            cached_ring(ring_text), cached_ring(scalar_text), action=action
        )

    return build
