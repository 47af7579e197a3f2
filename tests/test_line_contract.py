"""The one line contract every ring keeps: each row, block of rows, column
and block of rows of ``mul_lines`` equals the grid of
``add_pairs``/``mul_pairs`` it is made of.

Backends serve pair ops and, where it pays, blocks of lines; ``_Backend``
derives every single line from those. So each kind of backend is checked
here, call-based unless it is made of tables: cyclic, matrix, a product
with a product factor, the pair ring, a subring and a quotient (both
sections), a ring given by its tables and the tabled twin of a quotient.
Each block has more entries than ``SCAN_BLOCK``, the most any scan asks
for at once, and holds its elements out of order.
"""

import numpy as np
import pytest

from starbench import build_quotient, build_ring, build_scalar_algebra, parse_ring_expr
from starbench.rings import SCAN_BLOCK, StarRing, _lines_per_block
from starbench.unitify import build_R1

import oracles
from test_call_based import CALL_BASED


def call_based(text):
    return build_ring(parse_ring_expr(text), CALL_BASED)


def quotient(rt, kt):
    return build_quotient(build_scalar_algebra(call_based(rt), call_based(kt))).ring


def given_by_tables(text):
    ring = call_based(text)
    return StarRing.from_tables(*oracles.tables(ring), ring.neg_vector(), ring.star_vector())


RINGS = {
    "cyclic": lambda: call_based("Z(300)"),
    "matrix": lambda: call_based("M(2, Z(5))"),
    "nested-product": lambda: call_based("prod(prod(Z(4), Z(5)), M(2, Z(2)))"),
    "pair-ring": lambda: build_R1(
        build_scalar_algebra(call_based("M(2, Z(3))"), call_based("Z(6)"))
    ),
    "subring": lambda: call_based("sub(M(2, Z(6)); [[1,1],[0,0]])"),
    "quotient": lambda: quotient("M(2, Z(5))", "Z(5)"),
    "from-tables": lambda: given_by_tables("M(2, Z(5))"),
    "tabled-twin": lambda: quotient("M(2, Z(5))", "Z(5)").tabled(),
}


@pytest.mark.parametrize("kind", RINGS)
def test_every_line_is_its_grid_of_pairs(kind):
    ring = RINGS[kind]()
    assert ring.has_tables() == (kind in ("from-tables", "tabled-twin"))
    n = ring.order
    every = np.arange(n)
    idx = np.random.default_rng(29).permutation(n)[: _lines_per_block(n) + 1]
    assert len(idx) * n > SCAN_BLOCK
    sums = ring.add_pairs(idx[:, None], every)
    products = ring.mul_pairs(idx[:, None], every)
    transposed = ring.mul_pairs(every, idx[:, None])  # transposed[t, s] = s.idx[t]
    assert np.array_equal(ring.add_rows(idx), sums)
    assert np.array_equal(ring.mul_rows(idx), products)
    assert np.array_equal(ring.mul_lines(every)(idx), products)
    for t, i in enumerate(idx.tolist()):
        assert np.array_equal(ring.add_row(i), sums[t])
        assert np.array_equal(ring.mul_row(i), products[t])
        assert np.array_equal(ring.mul_col(i), transposed[t])
