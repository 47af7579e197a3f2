"""Matrix-ring operations against an independent reference.

The matrix backend computes sums and products from row-block tables, and a
tabled matrix ring assembles its dense tables from those same rows, so the
two cannot catch an encoding bug in each other. Here every index is decoded
by hand (the k*k entries row-major as digits base m, first entry most
significant), the matrices are added or multiplied as integer arrays mod m,
and the result is encoded the same way.
"""

import numpy as np
import pytest

from starbench import build_ring, parse_ring_expr
from starbench.config import DEFAULT_LIMITS, Limits

CALL_BASED = Limits(table_threshold=0)


class Reference:
    """M(k, Z(m)) by integer matrix arithmetic."""

    def __init__(self, k, m):
        self.m = m
        self.order = m ** (k * k)
        self.place = m ** np.arange(k * k - 1, -1, -1)
        digits = np.arange(self.order)[:, None] // self.place % m
        self.mats = digits.reshape(self.order, k, k)

    def encode(self, mats):
        flat = mats.reshape(*mats.shape[:-2], -1)
        return (flat * self.place).sum(axis=-1)

    def add(self, u, v):
        return self.encode((self.mats[u] + self.mats[v]) % self.m)

    def mul(self, u, v):
        return self.encode(np.matmul(self.mats[u], self.mats[v]) % self.m)


def _ring(k, m, limits):
    ring = build_ring(parse_ring_expr("M(%d, Z(%d))" % (k, m)), limits)
    assert ring.has_tables() == (limits is DEFAULT_LIMITS)
    return ring


@pytest.mark.parametrize("limits", [DEFAULT_LIMITS, CALL_BASED], ids=["tabled", "call-based"])
@pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_every_operation_matches_matrix_arithmetic(k, m, limits):
    ring = _ring(k, m, limits)
    ref = Reference(k, m)
    n = ring.order
    assert n == ref.order
    for i in range(n):
        assert ring.decode(i) == tuple(map(tuple, ref.mats[i].tolist()))
    u, v = np.divmod(np.arange(n * n), n)
    add = ref.add(u, v)
    mul = ref.mul(u, v)
    assert np.array_equal(ring.add_pairs(u, v), add)
    assert np.array_equal(ring.mul_pairs(u, v), mul)
    add = add.reshape(n, n)
    mul = mul.reshape(n, n)
    for i in range(n):
        assert np.array_equal(ring.add_row(i), add[i])
        assert np.array_equal(ring.mul_row(i), mul[i])
        assert np.array_equal(ring.mul_col(i), mul[:, i])


def test_call_based_m2z7_sample_matches_matrix_arithmetic():
    ring = _ring(2, 7, CALL_BASED)
    ref = Reference(2, 7)
    n = ring.order
    every = np.arange(n)
    rng = np.random.default_rng(7)
    for i in rng.choice(n, size=40, replace=False).tolist():
        at = np.full(n, i)
        assert np.array_equal(ring.add_row(i), ref.add(at, every))
        assert np.array_equal(ring.mul_row(i), ref.mul(at, every))
        assert np.array_equal(ring.mul_col(i), ref.mul(every, at))
    u = rng.integers(0, n, size=20_000)
    v = rng.integers(0, n, size=20_000)
    assert np.array_equal(ring.add_pairs(u, v), ref.add(u, v))
    assert np.array_equal(ring.mul_pairs(u, v), ref.mul(u, v))
