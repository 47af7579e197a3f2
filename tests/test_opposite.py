"""The opposite ring R^op: R's +, negation and involution, with the product
reversed (x.y = yx), built by ``StarRing.from_tables``, which audits it.

In a *-ring, x -> x* is an isomorphism of R onto R^op (Berberian, *Baer
*-Rings*, 1972), so R^op is a second ring, given by other tables, with R's
verdicts, and its right side is R's left side: rp on R^op is lp on R, and
p.q.-Baer* fails first at the same element with the sides swapped. R^op is
given by tables, so its scans take the generic passes over its rows, not a
matrix ring's row vectors: an independent check of those, on the medium
corpus and on drawn subrings of M(2, Z(m)). Over a
commutative K, the pair ring of R^op is the opposite of R's, and so is its
quotient: the theorem's gates must refuse or admit both, and the kernel,
the quotient and the embedding must have the same sizes.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings

from starbench import (
    RingScan,
    StarRing,
    build_ring,
    build_scalar_algebra,
    parse_ring_expr,
    verify_unitification,
)
from starbench.corpus import medium_corpus
from starbench.errors import HypothesisNotMet

import oracles
from conftest import cached_ring, every_report, m2_subrings

# the unitify --verify runs of the benchmark: six pass and two are refused
# at the gate
PASSING = [
    ("Z(6)", "Z(6)", "rickart"),
    ("Z(6)", "Z(6)", "pqbaer"),
    ("M(2, Z(3))", "Z(6)", "rickart"),
    ("M(2, Z(3))", "Z(3)", "pqbaer"),
    ("M(2, Z(5))", "Z(5)", "pqbaer"),
    ("M(2, Z(6))", "Z(6)", "pqbaer"),
]
REFUSED = [
    ("M(2, Z(5))", "Z(5)", "rickart"),
    ("M(2, Z(6))", "Z(6)", "rickart"),
]


@functools.lru_cache(maxsize=None)
def opposite(text):
    return opposite_of(cached_ring(text))


def opposite_of(ring):
    add, mul = oracles.tables(ring)
    return StarRing.from_tables(
        add,
        np.ascontiguousarray(mul.T),
        ring.neg_vector(),
        ring.star_vector(),
        [ring.decode(i) for i in range(ring.order)],
        label="op(%s)" % ring.label,
    )


def unitify_outcome(ring, k, mode):
    """The gate that refuses ``ring`` over K, or the verdict and the
    kernel order, quotient order and injectivity of the construction."""
    try:
        rep = verify_unitification(build_scalar_algebra(ring, cached_ring(k)), mode)
    except HypothesisNotMet as exc:
        return "refused", exc.hypothesis
    return rep.verdict, rep.kernel_order, rep.quotient_order, rep.injective


def test_the_opposite_reverses_the_product():
    ring, op = cached_ring("M(2, Z(3))"), opposite("M(2, Z(3))")
    x, y = ring.encode(((0, 1), (0, 0))), ring.encode(((0, 0), (1, 0)))
    assert op.mul(x, y) == ring.mul(y, x) != ring.mul(x, y)


@pytest.mark.parametrize("text,k,mode", PASSING + REFUSED)
def test_unitify_agrees_on_the_opposite_ring(text, k, mode):
    here = unitify_outcome(cached_ring(text), k, mode)
    assert here[0] == ("refused" if (text, k, mode) in REFUSED else True)
    assert unitify_outcome(opposite(text), k, mode) == here


# The medium corpus, and subrings where r(aR) = eR holds at some a but not
# at a*, so that only one clause of p.q.-Baer* fails at the first a.
RINGS = medium_corpus() + [
    "sub(M(2, Z(2)); [[1,1],[0,0]])",
    "sub(M(2, Z(6)); [[1,3],[0,2]])",
    "sub(M(2, Z(3)); [[1,1],[0,0]])",
]


@functools.lru_cache(maxsize=None)
def reports_and_scan(text, op):
    ring = opposite(text) if op else cached_ring(text)
    scan = RingScan(ring)
    return every_report(ring, scan), scan


def mirrored_side(ring, scan, witness):
    """The side R^op's p.q.-Baer* reports at R's first failing a: R^op's
    right clause at a is R's left one, and the right side is reported
    first, so the side swaps unless both clauses fail at a."""
    a = ring.encode(witness["a"])
    right_fails = [m not in scan.eR_by_mask for m in scan.r_of_aR]
    if right_fails[a] and right_fails[ring.star(a)]:
        return "right"
    return {"right": "left", "left": "right"}[witness["side"]]


def assert_the_opposite_mirrors(ring, here, scan, there, op_scan):
    """R^op, with its reports ``there`` and scan, has R's verdicts, R's rp
    and lp swapped, R's central covers, and p.q.-Baer*'s first failure at
    R's with the side mirrored."""
    assert {p: r.verdict for p, r in there.items()} == {p: r.verdict for p, r in here.items()}
    assert np.array_equal(op_scan.rp_all, scan.lp_all)
    assert np.array_equal(op_scan.lp_all, scan.rp_all)
    assert np.array_equal(op_scan.cover_all, scan.cover_all)
    pq, op_pq = here["pq-baer-star"].witness, there["pq-baer-star"].witness
    if pq is not None:
        assert op_pq == {"a": pq["a"], "side": mirrored_side(ring, scan, pq)}


def assert_the_witnesses_replay(op, there):
    """Each false verdict of R^op with a witness (all but rp-not-cover,
    whose false verdict names nothing) shows the definition failing in
    R^op."""
    for prop, rep in there.items():
        if not rep.verdict and prop != "rp-not-cover":
            assert oracles.o_witness_holds(op, prop, rep.witness), prop


@pytest.mark.parametrize("text", RINGS)
def test_the_opposite_ring_has_the_verdicts_and_mirrored_projections(text):
    here, scan = reports_and_scan(text, False)
    there, op_scan = reports_and_scan(text, True)
    assert_the_opposite_mirrors(cached_ring(text), here, scan, there, op_scan)


@pytest.mark.parametrize("text", RINGS)
def test_the_opposite_rings_witnesses_replay_on_the_oracles(text):
    assert_the_witnesses_replay(opposite(text), reports_and_scan(text, True)[0])


@settings(max_examples=20, deadline=None)
@given(text=m2_subrings())
@example(text="sub(M(2, Z(1)); [[0,0],[0,0]])")
def test_drawn_subrings_and_their_opposites_agree(text):
    """One- and two-generator subrings of M(2, Z(m)), 2 <= m <= 4, and the
    one-element ring as an explicit example: R^op mirrors R as on the
    corpus above, and its scans take the generic passes, not
    the parent matrix ring's row vectors."""
    ring = build_ring(parse_ring_expr(text))
    op = opposite_of(ring)
    scan, op_scan = RingScan(ring), RingScan(op)
    here, there = every_report(ring, scan), every_report(op, op_scan)
    assert_the_opposite_mirrors(ring, here, scan, there, op_scan)
    assert_the_witnesses_replay(op, there)
