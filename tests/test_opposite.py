"""The opposite ring R^op: R's +, negation and involution, with the product
reversed (x.y = yx), built by ``StarRing.from_tables``, which audits it.

In a *-ring, x -> x* is an isomorphism of R onto R^op (Berberian, *Baer
*-Rings*, 1972), so R^op is a second ring, given by other tables, with R's
verdicts, and its right side is R's left side: rp on R^op is lp on R, and
p.q.-Baer* fails first at the same element with the sides swapped. R^op is
given by tables, so its scans take the generic passes over its rows, not a
matrix ring's row vectors: an independent check of those. Over a
commutative K, the pair ring of R^op is the opposite of R's, and so is its
quotient: the theorem's gates must refuse or admit both, and the kernel,
the quotient and the embedding must have the same sizes.
"""

import functools

import numpy as np
import pytest

from starbench import RingScan, StarRing, build_scalar_algebra, classify_all, verify_unitification
from starbench.corpus import medium_corpus
from starbench.errors import HypothesisNotMet

import oracles
from conftest import cached_ring

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
    ring = cached_ring(text)
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
    return classify_all(ring, scan), scan


def mirrored_side(text, witness):
    """The side R^op's p.q.-Baer* reports at R's first failing a: R^op's
    right clause at a is R's left one, and the right side is reported
    first, so the side swaps unless both clauses fail at a."""
    ring = cached_ring(text)
    a = ring.encode(witness["a"])
    scan = reports_and_scan(text, False)[1]
    right_fails = [m not in scan.eR_by_mask for m in scan.r_of_aR]
    if right_fails[a] and right_fails[ring.star(a)]:
        return "right"
    return {"right": "left", "left": "right"}[witness["side"]]


@pytest.mark.parametrize("text", RINGS)
def test_the_opposite_ring_has_the_verdicts_and_mirrored_projections(text):
    here, scan = reports_and_scan(text, False)
    there, op_scan = reports_and_scan(text, True)
    assert {p: r.verdict for p, r in there.items()} == {p: r.verdict for p, r in here.items()}
    assert np.array_equal(op_scan.rp_all, scan.lp_all)
    assert np.array_equal(op_scan.lp_all, scan.rp_all)
    assert np.array_equal(op_scan.cover_all, scan.cover_all)
    pq, op_pq = here["pq-baer-star"].witness, there["pq-baer-star"].witness
    if pq is not None:
        assert op_pq == {"a": pq["a"], "side": mirrored_side(text, pq)}


@pytest.mark.parametrize("text", RINGS)
def test_the_opposite_rings_witnesses_replay_on_the_oracles(text):
    """Each false verdict of R^op with a witness (all but rp-not-cover,
    whose false verdict names nothing) shows the definition failing in
    R^op."""
    op = opposite(text)
    for prop, rep in reports_and_scan(text, True)[0].items():
        if not rep.verdict and prop != "rp-not-cover":
            assert oracles.o_witness_holds(op, prop, rep.witness), prop
