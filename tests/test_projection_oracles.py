"""Subrings drawn by hypothesis, and Z(2)^k: the subring closure and the
projection pass against the oracles.

A subring of M(2, Z(m)), m <= 4, generated by one or two matrices, is
closed by spans (``rings._close_subring``) and must equal the fixpoint of
``oracles.o_subring``. On it, served from tables or call-based, and on the
Boolean rings Z(2)^k, k <= 4, where every element is a central projection,
the projection pass must give the oracles' order, centre and eR, and
``rp_all``/``lp_all``/``cover_all`` must give theirs: ``o_rp``/``o_lp``
assert that RP and LP are unique, and ``o_leq`` checks both sides of the
order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench import RingScan, build_ring, parse_ring_expr
from starbench.config import Limits

import oracles
from conftest import cached_ring

CALL_BASED = Limits(table_threshold=0)


@st.composite
def subrings(draw):
    """(parent, generator indices, subring text) for one or two 2 x 2
    matrices over Z(m), m in 2..4."""
    m = draw(st.integers(2, 4))
    entry = st.integers(0, m - 1)
    mats = draw(st.lists(st.tuples(entry, entry, entry, entry), min_size=1, max_size=2))
    parent = cached_ring("M(2, Z(%d))" % m)
    gens = [parent.encode(((a, b), (c, d))) for a, b, c, d in mats]
    text = "sub(M(2, Z(%d)); %s)" % (m, ", ".join("[[%d,%d],[%d,%d]]" % g for g in mats))
    return parent, gens, text


def carrier(ring, parent):
    """The subring's elements as the parent's indices."""
    return [parent.encode(ring.decode(i)) for i in range(ring.order)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(subrings())
def test_subring_closure_is_the_fixpoint(case):
    parent, gens, text = case
    ring = cached_ring(text)
    assert carrier(ring, parent) == sorted(oracles.o_subring(parent, gens))


def test_adjoints_join_the_closure():
    # e12 squares to 0, so without adjoints its closure is {0, e12, 2 e12};
    # with e21 = e12* it is all of M(2, Z(3))
    parent = cached_ring("M(2, Z(3))")
    e12 = parent.encode(((0, 1), (0, 0)))
    assert len(oracles.o_additive_closure(parent, [e12])) == 3
    assert parent.mul(e12, e12) == 0
    ring = cached_ring("sub(M(2, Z(3)); [[0,1],[0,0]])")
    assert ring.order == 81 == len(oracles.o_subring(parent, [e12]))
    assert carrier(ring, parent) == list(range(81))


@pytest.mark.parametrize(
    "text",
    [
        "sub(Z(8); 2)",
        "sub(Z(12); 2, 3)",
        "sub(M(2, Z(2)); [[1,1],[0,0]])",
        "sub(M(2, Z(4)); [[1,1],[1,1]], [[2,0],[0,0]])",
        "sub(M(2, Z(6)); [[1,3],[0,2]])",
        "sub(prod(Z(6), M(2, Z(2))); (2, [[1,0],[1,0]]))",
    ],
)
def test_named_subrings_are_the_fixpoint(text):
    d = parse_ring_expr(text)
    parent = build_ring(d.parent)
    gens = [parent.encode(g) for g in d.generators]
    assert carrier(cached_ring(text), parent) == sorted(oracles.o_subring(parent, gens))


@pytest.mark.parametrize(
    "text, order, step",
    [("sub(M(2, Z(10)); [[1,0],[0,0]], [[0,1],[0,0]])", 10000, 1), ("sub(Z(10000); 2)", 5000, 2)],
)
def test_subrings_at_the_element_cap(text, order, step):
    # the transpose makes the first the whole of M(2, Z(10)); each is
    # closed by a few spans, not one step per member
    d = parse_ring_expr(text)
    parent = build_ring(d.parent)
    ring = build_ring(d)
    assert ring.order == order
    assert carrier(ring, parent) == list(range(0, parent.order, step))


def or_none(value):
    return -1 if value is None else value


def as_mask(elements):
    return sum(1 << y for y in elements)


def assert_projection_pass_matches_oracles(ring):
    scan = RingScan(ring)
    poset = scan.poset
    es = poset.indices.tolist()
    assert es == oracles.o_projections(ring)
    assert poset.leq.tolist() == [[oracles.o_leq(ring, e, f) for f in es] for e in es]
    centrals = [e for e, c in zip(es, poset.central_flags.tolist()) if c]
    assert centrals == oracles.o_central_projections(ring)
    assert scan.eR_by_mask == {
        as_mask(oracles.o_right_ideal_of_projection(ring, e)): e for e in es
    }
    assert len(scan.eR_by_mask) == len(es)
    n = ring.order
    assert scan.rp_all.tolist() == [or_none(oracles.o_rp(ring, x)) for x in range(n)]
    assert scan.lp_all.tolist() == [or_none(oracles.o_lp(ring, x)) for x in range(n)]
    assert scan.cover_all.tolist() == [
        or_none(oracles.o_central_cover(ring, x)) for x in range(n)
    ]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(subrings(), st.booleans())
def test_projection_pass_on_subrings(case, call_based):
    text = case[2]
    ring = build_ring(parse_ring_expr(text), CALL_BASED) if call_based else cached_ring(text)
    assert_projection_pass_matches_oracles(ring)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projection_pass_on_boolean_rings(k):
    text = "Z(2)"
    for _ in range(k - 1):
        text = "prod(%s, Z(2))" % text
    assert_projection_pass_matches_oracles(cached_ring(text))
