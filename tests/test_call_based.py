"""Call-based rings against their tabled twins, and the fused scan passes.

Dense tables serve a ring given by its tables, and a descriptor ring whose
order squared is at most ``table_threshold``; pair rings and quotients are
always call-based. A ring built with ``table_threshold=0`` serves every
row, column and pair from its backend; the same descriptor under the
default limits is served from dense tables. Both must agree on every
operation and every classifier report, and the one-pass ``RingScan`` bitsets and its memoized set
annihilators ``r_of``/``l_of`` must agree with the definitional
annihilator and principal-ideal functions.
"""

import numpy as np
import pytest

from starbench import (
    RingScan,
    StarRing,
    build_R1,
    build_quotient,
    build_ring,
    build_scalar_algebra,
    classify_all,
    parse_ring_expr,
)
from starbench.annihilators import (
    lann_single,
    left_annihilator,
    principal_left_ideal,
    principal_right_ideal,
    rann_single,
    right_annihilator,
)
from starbench.bitsets import full_mask, indices_of
from starbench.classifiers import ideal_annihilator_crosscheck
from starbench.config import DEFAULT_LIMITS, Limits
from starbench.corpus import small_corpus
from starbench.projections import _lines_per_block

from conftest import cached_ring

CALL_BASED = Limits(table_threshold=0)


def call_based_ring(text):
    ring = build_ring(parse_ring_expr(text), CALL_BASED)
    assert not ring.has_tables()
    return ring


@pytest.mark.parametrize("text", small_corpus())
def test_descriptor_rings_get_tables_up_to_the_threshold(text):
    n = cached_ring(text).order
    for threshold in (0, n * n - 1, n * n, DEFAULT_LIMITS.table_threshold):
        ring = build_ring(parse_ring_expr(text), Limits(table_threshold=threshold))
        assert ring.has_tables() == (n * n <= threshold), threshold


def test_rings_given_by_tables_keep_them():
    z6 = cached_ring("Z(6)")
    for limits in (DEFAULT_LIMITS, CALL_BASED):
        ring = StarRing.from_tables(
            z6.add_table(), z6.mul_table(), z6.neg_vector(), z6.star_vector(), limits=limits
        )
        assert ring.has_tables()


@pytest.mark.parametrize("ring_text,scalar_text", [("sub(Z(9); 3)", "Z(9)"), ("M(2, Z(3))", "Z(6)")])
def test_pair_rings_and_quotients_are_call_based(ring_text, scalar_text):
    algebra = build_scalar_algebra(cached_ring(ring_text), cached_ring(scalar_text))
    assert not build_R1(algebra).has_tables()
    assert not build_quotient(algebra).ring.has_tables()


@pytest.mark.parametrize("text", small_corpus())
def test_backend_rows_match_tables(text):
    tabled = cached_ring(text)
    calls = call_based_ring(text)
    assert tabled.has_tables()
    n = tabled.order
    for i in range(n):
        assert np.array_equal(calls.add_row(i), tabled.add_row(i))
        assert np.array_equal(calls.mul_row(i), tabled.mul_row(i))
        assert np.array_equal(calls.mul_col(i), tabled.mul_col(i))
    u, v = np.divmod(np.arange(n * n, dtype=np.int64), n)
    assert np.array_equal(calls.add_pairs(u, v), tabled.add_pairs(u, v))
    assert np.array_equal(calls.mul_pairs(u, v), tabled.mul_pairs(u, v))


@pytest.mark.parametrize("text", small_corpus())
def test_classifier_reports_match_tables(text):
    def reports(ring):
        return {name: (rep.verdict, rep.witness) for name, rep in classify_all(ring).items()}

    assert reports(call_based_ring(text)) == reports(build_ring(parse_ring_expr(text)))


def _assert_scan_matches_single_element_functions(ring):
    scan = RingScan(ring)
    sides = (scan.rann, scan.lann, scan.row_sets, scan.col_sets)
    assert [len(side) for side in sides] == [ring.order] * 4
    for s in range(ring.order):
        assert scan.rann[s] == rann_single(ring, s)
        assert scan.lann[s] == lann_single(ring, s)
        assert scan.row_sets[s] == principal_right_ideal(ring, s)
        assert scan.col_sets[s] == principal_left_ideal(ring, s)


@pytest.mark.parametrize("text", small_corpus())
def test_fused_scan_matches_single_element_functions(text):
    _assert_scan_matches_single_element_functions(cached_ring(text))


def test_fused_scan_matches_on_call_based_m2z3():
    _assert_scan_matches_single_element_functions(call_based_ring("M(2, Z(3))"))


def _pair_ring_m2z3_over_z6():
    return build_R1(build_scalar_algebra(cached_ring("M(2, Z(3))"), cached_ring("Z(6)")))


# The small corpus fits each pass in one block; these orders (625, 625 and
# 486) need several, the last of them partial.
@pytest.mark.parametrize(
    "build",
    [
        lambda: cached_ring("M(2, Z(5))"),
        lambda: call_based_ring("M(2, Z(5))"),
        _pair_ring_m2z3_over_z6,
    ],
    ids=["m2z5-tabled", "m2z5-call-based", "pair-ring-m2z3-over-z6"],
)
def test_fused_scan_matches_across_blocks(build):
    ring = build()
    lines = _lines_per_block(ring.order)
    assert ring.order > lines and ring.order % lines != 0
    _assert_scan_matches_single_element_functions(ring)


def _assert_set_annihilators_match_definition(ring):
    scan = RingScan(ring)
    masks = {0, full_mask(ring.order), *scan.row_sets, *scan.col_sets}
    for m in sorted(masks):
        assert scan.r_of(m) == right_annihilator(ring, indices_of(m)).mask
        assert scan.l_of(m) == left_annihilator(ring, indices_of(m)).mask


@pytest.mark.parametrize("text", small_corpus())
def test_set_annihilators_match_definition(text):
    _assert_set_annihilators_match_definition(cached_ring(text))


def test_set_annihilators_match_on_call_based_m2z3():
    _assert_set_annihilators_match_definition(call_based_ring("M(2, Z(3))"))


# The two rings without unity added at the end are where r({a}) and r(aR)
# are each needed: dropping either term changes r((a)) on them, and on no
# ring of the small corpus.
@pytest.mark.parametrize(
    "text",
    small_corpus() + ["sub(Z(8); 2)", "sub(M(2, Z(4)); [[1,1],[1,1]], [[2,0],[0,0]])"],
)
def test_ideal_annihilators_match_literal_ideals(text):
    assert ideal_annihilator_crosscheck(cached_ring(text))


def test_ideal_annihilators_match_on_call_based_m2z3():
    assert ideal_annihilator_crosscheck(call_based_ring("M(2, Z(3))"))


def test_each_side_is_one_pass(m2z3):
    calls = {"row": 0, "col": 0}

    class Counting:
        order = m2z3.order

        def mul_row(self, i):
            calls["row"] += 1
            return m2z3.mul_row(i)

        def mul_col(self, j):
            calls["col"] += 1
            return m2z3.mul_col(j)

    scan = RingScan(Counting())
    scan.rann, scan.row_sets, scan.lann, scan.col_sets
    assert calls == {"row": m2z3.order, "col": m2z3.order}
