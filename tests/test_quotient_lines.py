"""Quotient lines computed a block at a time from R's products.

A quotient's rows and columns come from the pair ring's ``mul_lines``:
a block of cosets' lines is read off one broadcast product of R, two
gathers from the action and one product of K, never through the pair
ring's ``mul_pairs``, and a single line is a one-row block. These tests
pin those lines and blocks, of the quotient and of the pair ring, to the
definition (``mul_pairs`` pair by pair), check the scan bitsets they fill
against the oracles across several blocks, with the column side mirrored
from the rows on a lawful quotient and read column by column on one over
a ring given by its tables, and guard that no quotient scan goes back
through ``mul_pairs``.
"""

import gc
import weakref

import numpy as np
import pytest

from starbench import (
    RingScan,
    StarRing,
    build_quotient,
    build_ring,
    build_scalar_algebra,
    parse_ring_expr,
    rp_in_quotient,
)
from starbench import rings, unitify
from starbench.bitsets import indices_of
from starbench.config import Limits
from starbench.errors import AxiomViolation
from starbench.rings import _SectionBackend
from starbench.unitify import _PairBackend

import oracles
from conftest import cached_ring

# every quotient configuration of test_unitify.py
QUOTIENTS = [
    ("Z(6)", "Z(6)"),
    ("M(2,Z(3))", "Z(6)"),
    ("M(2,Z(3))", "Z(3)"),
    ("sub(Z(9); 3)", "Z(9)"),
    ("sub(Z(4); 2)", "Z(2)"),
    ("Z(5)", "Z(5)"),
    ("M(2,Z(2))", "Z(2)"),
    ("prod(Z(2),Z(3))", "Z(6)"),
    ("sub(Z(6); 2)", "Z(3)"),
    ("M(2,Z(6))", "Z(6)"),
]


def call_based_algebra(rt, kt):
    R = build_ring(parse_ring_expr(rt), Limits(table_threshold=0))
    assert not R.has_tables()
    return build_scalar_algebra(R, cached_ring(kt))


def tabled_algebra(rt, kt):
    """R given by its tables (not lawful), with the natural action of K."""
    lawful = cached_ring(rt)
    R = StarRing.from_tables(
        lawful.add_table(), lawful.mul_table(), lawful.neg_vector(), lawful.star_vector()
    )
    assert not R.lawful
    K = cached_ring(kt)
    return build_scalar_algebra(R, K, action=build_scalar_algebra(lawful, K).action)


def algebras():
    for rt, kt in QUOTIENTS:
        yield pytest.param(
            lambda rt=rt, kt=kt: build_scalar_algebra(cached_ring(rt), cached_ring(kt)),
            id="%s-%s" % (rt, kt),
        )
    yield pytest.param(lambda: call_based_algebra("M(2,Z(3))", "Z(6)"), id="M(2,Z(3))-Z(6)-call-based")
    yield pytest.param(lambda: tabled_algebra("M(2,Z(2))", "Z(4)"), id="M(2,Z(2))-Z(4)-from-tables")


def products(ring, us, vs):
    """The (len(us), len(vs)) block of u.v, from mul_pairs pair by pair."""
    pairs = ring.mul_pairs(np.repeat(us, len(vs)), np.tile(vs, len(us)))
    return pairs.reshape(len(us), len(vs))


def short_blocks(monkeypatch, n):
    """The scan blocks of n lines, in order, with SCAN_BLOCK shrunk to the
    fewest lines k >= 2 that do not divide n: short blocks, the last one
    partial wherever n > 2."""
    k = next(k for k in range(2, n + 2) if n % k)
    monkeypatch.setattr(rings, "SCAN_BLOCK", k * n)
    step = rings._lines_per_block(n)
    return [np.arange(start, min(start + step, n)) for start in range(0, n, step)]


@pytest.mark.parametrize("make", algebras())
def test_lines_are_the_definitional_products(make, monkeypatch):
    quot = build_quotient(make())
    q, r1 = quot.ring, quot.r1
    n = q.order
    idx = np.arange(n)
    for i in range(n):
        assert np.array_equal(q.mul_row(i), q.mul_pairs(np.full(n, i), idx)), i
        assert np.array_equal(q.mul_col(i), q.mul_pairs(idx, np.full(n, i))), i
    # blocks of rows: the quotient's, and the pair ring's at the
    # representatives, the rows the quotient's are read from
    blocks = short_blocks(monkeypatch, n)
    assert n <= 2 or len(blocks[-1]) < len(blocks[0])
    pairs = np.arange(r1.order)
    for block in blocks:
        assert np.array_equal(q.mul_rows(block), products(q, block, idx)), block
        reps = quot.reps[block]
        assert np.array_equal(r1.mul_rows(reps), products(r1, reps, pairs)), reps


def test_representatives_with_nonzero_scalars_are_exercised():
    # the non-injective sub(Z(9); 3) over Z(9): every coset but the zero
    # coset has a representative (0, lam) with lam != 0
    quot = build_quotient(build_scalar_algebra(cached_ring("sub(Z(9); 3)"), cached_ring("Z(9)")))
    assert (quot.reps % quot.kn != 0).sum() == quot.ring.order - 1


def test_subring_lines_leave_the_carrier_with_the_same_witness(z6):
    # {0, 2, 3} in Z(6) is not closed under *: 2.{0, 2, 3} = {0, 4, 0}
    local_of = np.full(6, -1)
    local_of[[0, 2, 3]] = [0, 1, 2]
    section = _SectionBackend(z6, np.array([0, 2, 3]), local_of)
    idx = np.arange(3)
    for line, pairs in (
        (section.mul_row, lambda i: section.mul_pairs(np.full(3, i), idx)),
        (section.mul_col, lambda j: section.mul_pairs(idx, np.full(3, j))),
    ):
        with pytest.raises(AxiomViolation) as by_line:
            line(1)
        with pytest.raises(AxiomViolation) as by_pairs:
            pairs(1)
        assert by_line.value.axiom == by_pairs.value.axiom == "closure"
        assert by_line.value.witness == by_pairs.value.witness == (0, 4, 0)


@pytest.mark.parametrize(
    "make,lawful",
    [
        pytest.param(
            lambda rt=rt, kt=kt: build_scalar_algebra(cached_ring(rt), cached_ring(kt)),
            True,
            id="%s-%s" % (rt, kt),
        )
        for rt, kt in (("M(2,Z(3))", "Z(6)"), ("M(2,Z(2))", "Z(2)"))
    ]
    + [
        pytest.param(
            lambda: tabled_algebra("M(2,Z(2))", "Z(4)"), False, id="M(2,Z(2))-Z(4)-from-tables"
        )
    ],
)
def test_scan_bitsets_across_several_blocks(make, lawful, monkeypatch):
    q = build_quotient(make()).ring
    assert q.lawful == lawful
    n = q.order
    # the reference reads one table of the definitional products
    table = q.mul_pairs(np.repeat(np.arange(n), n), np.tile(np.arange(n), n)).reshape(n, n)

    class Definitional:
        order = n

        def mul(self, x, y):
            return int(table[x, y])

    d = Definitional()
    # three lines a block: 27 blocks on 81 cosets, 6 on 16 (the last short)
    monkeypatch.setattr(rings, "SCAN_BLOCK", 3 * n)
    cols = []
    read_col = q.mul_col
    monkeypatch.setattr(q, "mul_col", lambda j: cols.append(j) or read_col(j))
    scan = RingScan(q)
    for a in range(n):
        assert set(indices_of(scan.rann[a])) == oracles.o_rann(d, [a])
        assert set(indices_of(scan.lann[a])) == oracles.o_lann(d, [a])
        assert set(indices_of(scan.row_sets[a])) == {d.mul(a, r) for r in range(n)}
        assert set(indices_of(scan.col_sets[a])) == {d.mul(r, a) for r in range(n)}
    # lawful: the column side is the row side mirrored, with no column read
    assert len(cols) == (0 if lawful else n)


def test_quotient_scans_never_call_the_pair_product(monkeypatch):
    quot = build_quotient(build_scalar_algebra(cached_ring("M(2,Z(3))"), cached_ring("Z(6)")))
    calls = []
    pair_product = _PairBackend.mul_pairs

    def counting(self, u, v):
        calls.append(len(u))
        return pair_product(self, u, v)

    monkeypatch.setattr(_PairBackend, "mul_pairs", counting)
    scan = RingScan(quot.ring)
    scan.rann, scan.row_sets, scan.lann, scan.col_sets
    assert calls == []


def test_properness_is_decided_once_per_quotient(monkeypatch):
    # M(2, Z(3)) over Z(6) has 54 cosets that are not self-adjoint
    quot = build_quotient(build_scalar_algebra(cached_ring("M(2,Z(3))"), cached_ring("Z(6)")))
    q = quot.ring
    assert sum(q.star(c) != c for c in range(q.order)) == 54
    decided = []
    classify = unitify.is_proper_involution

    def counting(ring, scan=None):
        decided.append(ring)
        return classify(ring, scan)

    monkeypatch.setattr(unitify, "is_proper_involution", counting)
    qscan, rscan = RingScan(q), RingScan(quot.algebra.ring)
    for c in range(q.order):
        rp_in_quotient(quot, c, qscan, rscan)
    assert decided == [q]


def test_a_dropped_quotient_is_freed_without_the_cycle_collector():
    # the section caches its lines; were they to refer back to it, every
    # quotient would keep its pair ring and R's tables alive until the
    # cyclic collector ran, which raised peak memory across many verbs
    R = build_ring(parse_ring_expr("M(2,Z(3))"))
    quot = build_quotient(build_scalar_algebra(R, cached_ring("Z(6)")))
    scan = RingScan(quot.ring)
    scan.rann, scan.row_sets, scan.lann, scan.col_sets
    freed = [weakref.ref(x) for x in (R, quot.r1, quot.ring)]
    gc.disable()
    try:
        del R, quot, scan
        assert [ref() for ref in freed] == [None, None, None]
    finally:
        gc.enable()
