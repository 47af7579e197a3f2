"""Quotient lines computed a block at a time from R's products.

A quotient's rows come from the pair ring's ``mul_lines``: a block of
cosets' rows is read off one broadcast product of R, two gathers from the
action and one product of K, never through the pair ring's ``mul_pairs``,
and a single row is a one-row block; the scans read its columns as the
rows of the adjoints. These tests
pin those lines and blocks, of the quotient and of the pair ring, to the
definition (``mul_pairs`` pair by pair), check the scan bitsets they fill
against the oracles across several blocks, on quotients over descriptor
rings and over a ring given by its tables, and guard that no quotient scan goes back
through ``mul_pairs``. The coset representatives themselves are pinned to
the least member of each coset, computed member by member, and their
search to no pair-ring sum over every pair.
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
)
from starbench import rings, unitify
from starbench.bitsets import indices_of
from starbench.config import Limits
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
    """R given by its tables, which from_tables audits, with the natural
    action of K."""
    named = cached_ring(rt)
    R = StarRing.from_tables(*oracles.tables(named), named.neg_vector(), named.star_vector())
    K = cached_ring(kt)
    return build_scalar_algebra(R, K, action=build_scalar_algebra(named, K).action)


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


def high_order_kernel():
    # sub(Z(4); 2) = {0, 2} over Z(64): N = {0, 2} x (even lam), |N| = 64,
    # with (0, 2) of additive order 32 among its members
    return build_scalar_algebra(cached_ring("sub(Z(4); 2)"), cached_ring("Z(64)"))


@pytest.mark.parametrize(
    "make", list(algebras()) + [pytest.param(high_order_kernel, id="sub(Z(4);2)-Z(64)")]
)
def test_representatives_are_the_least_members_of_their_cosets(make):
    quot = build_quotient(make())
    r1 = quot.r1
    pairs = np.arange(r1.order)
    least = pairs.copy()
    for h in np.flatnonzero(quot.kernel.flags):  # x + h for every member h
        least = np.minimum(least, r1.add_pairs(pairs, np.full(r1.order, h)))
    assert np.array_equal(quot.reps[quot.coset_of_pair], least)
    assert np.array_equal(quot.reps, np.unique(least))


def test_cosets_take_no_sum_of_every_pair(monkeypatch):
    # each pair's coset is read off how it acts on R's generators, from R's
    # products and the action: no sum of every pair at once is taken
    # before the quotient ring exists, as a doubling or a walk along N
    # would take them
    algebra = high_order_kernel()
    n1 = algebra.ring.order * algebra.scalars.order
    sums, built = [], []
    pair_sum, section = _PairBackend.add_pairs, unitify._SectionBackend

    def counted(self, u, v):
        if not built and np.size(u) == n1:
            sums.append(1)
        return pair_sum(self, u, v)

    def quotient_section(*args):
        built.append(1)
        return section(*args)

    monkeypatch.setattr(_PairBackend, "add_pairs", counted)
    monkeypatch.setattr(unitify, "_SectionBackend", quotient_section)
    quot = build_quotient(algebra)
    assert (built, quot.kernel.size, quot.r1.order) == ([1], 64, n1)
    assert sums == []


def test_representatives_with_nonzero_scalars_are_exercised():
    # the non-injective sub(Z(9); 3) over Z(9): every coset but the zero
    # coset has a representative (0, lam) with lam != 0
    quot = build_quotient(build_scalar_algebra(cached_ring("sub(Z(9); 3)"), cached_ring("Z(9)")))
    assert (quot.reps % quot.kn != 0).sum() == quot.ring.order - 1


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda rt=rt, kt=kt: build_scalar_algebra(cached_ring(rt), cached_ring(kt)),
            id="%s-%s" % (rt, kt),
        )
        for rt, kt in (("M(2,Z(3))", "Z(6)"), ("M(2,Z(2))", "Z(2)"))
    ]
    + [pytest.param(lambda: tabled_algebra("M(2,Z(2))", "Z(4)"), id="M(2,Z(2))-Z(4)-from-tables")],
)
def test_scan_bitsets_across_several_blocks(make, monkeypatch):
    q = build_quotient(make()).ring
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
    blocks = []
    rows = q.mul_rows

    def counted_rows(idx):
        blocks.append(np.asarray(idx).tolist())
        return rows(idx)

    monkeypatch.setattr(q, "mul_rows", counted_rows)
    scan = RingScan(q)
    for a in range(n):
        assert set(indices_of(scan.rann[a])) == oracles.o_rann(d, [a])
        assert set(indices_of(scan.lann[a])) == oracles.o_lann(d, [a])
        assert set(indices_of(scan.row_sets[a])) == {d.mul(a, r) for r in range(n)}
        assert set(indices_of(scan.col_sets[a])) == {d.mul(r, a) for r in range(n)}
    # three row passes, three rows a block, each row read once a pass:
    # rann's, then lann's and col_sets' over the adjoints, then row_sets'
    every = [list(range(s, min(s + 3, n))) for s in range(0, n, 3)]
    star = q.star_vector()
    assert blocks == every + [star[b].tolist() for b in every] + every


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
    for central in (False, True, False):
        assert not unitify._formula_disagreements(quot, qscan, rscan, central).any()
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
