"""The opposite ring R^op: R's +, negation and involution, with the product
reversed (x.y = yx), built by ``StarRing.from_tables``, which audits it.

In a *-ring, x -> x* is an isomorphism of R onto R^op (Berberian, *Baer
*-Rings*, 1972), so R^op is a second ring, given by other tables, with R's
verdicts, and its right side is R's left side. Over a commutative K, the
pair ring of R^op is the opposite of R's, and so is its quotient: the
theorem's gates must refuse or admit both, and the kernel, the quotient and
the embedding must have the same sizes.
"""

import functools

import numpy as np
import pytest

from starbench import StarRing, build_scalar_algebra, verify_unitification
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
