"""Call-based rings against their tabled twins, row blocks, and the scan
passes.

Dense tables serve a ring given by its tables, and a descriptor ring whose
order squared is at most ``table_threshold``; pair rings and quotients are
always call-based. A ring built with ``table_threshold=0`` serves every
row, column and pair from its backend; the same descriptor under the
default limits is served from dense tables. Both must agree on every
operation and every classifier report. Every backend's blocks of rows
(``add_rows``/``mul_rows``) must equal its rows stacked, and the tables
assembled from them the tables assembled row by row. The ``RingScan``
bitsets, its memoized set annihilators ``r_of``/``l_of`` and its r(aR)/
l(Ra) for every a, r(aR) read off the additive generators on lawful rings,
must agree with the oracles; on a lawful ring p.q.-Baer* and lp read the
left side off the right one at the adjoint, and must agree with the same
ring given by its tables.
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
from starbench.bitsets import full_mask, indices_of
from starbench.classifiers import (
    PROPERTY_CLASSIFIERS,
    _matching_projection,
    ideal_annihilator_crosscheck,
    is_pq_baer_star,
)
from starbench.config import DEFAULT_LIMITS, Limits
from starbench.corpus import medium_corpus, small_corpus
from starbench.rings import _Backend, _lines_per_block

import oracles
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


class _Tabled:
    """The scalar operations the oracles call, read off one table each of
    the ring's sums and products (from ``add_pairs``/``mul_pairs``): on
    call-based rings a scalar call costs tens of microseconds."""

    def __init__(self, ring):
        n = ring.order
        u, v = np.divmod(np.arange(n * n, dtype=np.int64), n)
        self.order = n
        self._add = ring.add_pairs(u, v).reshape(n, n).tolist()
        self._mul = ring.mul_pairs(u, v).reshape(n, n).tolist()
        self._neg = ring.neg_vector().tolist()

    def add(self, x, y):
        return self._add[x][y]

    def mul(self, x, y):
        return self._mul[x][y]

    def neg(self, x):
        return self._neg[x]


def _assert_scan_matches_single_element_functions(ring):
    scan = RingScan(ring)
    sides = (scan.rann, scan.lann, scan.row_sets, scan.col_sets)
    assert [len(side) for side in sides] == [ring.order] * 4
    view = _Tabled(ring)
    for s in range(ring.order):
        assert set(indices_of(scan.rann[s])) == oracles.o_rann(view, [s])
        assert set(indices_of(scan.lann[s])) == oracles.o_lann(view, [s])
        assert set(indices_of(scan.row_sets[s])) == oracles.o_right_multiples(view, s)
        assert set(indices_of(scan.col_sets[s])) == oracles.o_left_multiples(view, s)


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
    view = _Tabled(ring)
    masks = {0, full_mask(ring.order), *scan.row_sets, *scan.col_sets}
    for m in sorted(masks):
        assert set(indices_of(scan.r_of(m))) == oracles.o_rann(view, indices_of(m))
        assert set(indices_of(scan.l_of(m))) == oracles.o_lann(view, indices_of(m))


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


def tables_copy(ring, star=None):
    """``ring`` given by its tables (with another involution if ``star``
    is given): not lawful, so its scans read its columns."""
    if star is None:
        star = ring.star_vector()
    return StarRing.from_tables(ring.add_table(), ring.mul_table(), ring.neg_vector(), star)


class _Counting:
    """A ring that records which rows and how many columns a scan asks for."""

    def __init__(self, ring):
        self.ring = ring
        self.rows = []
        self.cols = 0

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def mul_rows(self, idx):
        self.rows += np.asarray(idx).tolist()
        return self.ring.mul_rows(idx)

    def mul_col(self, j):
        self.cols += 1
        return self.ring.mul_col(j)


def test_lawful_scans_read_each_row_once_and_no_column(m2z3):
    """On a lawful ring every classifier reads the scan's rows once, in its
    zero-set pass, and no column: a projection's column is its row
    mirrored, r(aR) comes off the generators, so the value sets are never
    built, and p.q.-Baer*'s left clause at a is its right clause at a*, so
    no left side (lann, l(Ra), the ideals Rf) is built either."""
    counting = _Counting(m2z3)
    scan = RingScan(counting)
    for classify in PROPERTY_CLASSIFIERS.values():
        classify(m2z3, scan)
    assert sorted(counting.rows) == list(range(m2z3.order))
    assert counting.cols == 0
    for cache in ("row_sets", "col_sets", "lann", "l_of_Ra", "Rf_by_mask"):
        assert cache not in scan.__dict__, cache


def test_each_side_is_one_pass_without_the_laws(m2z3):
    """A ring given by its tables packs its zero and value sets in one pass
    per side: every row once, every column once."""
    ring = tables_copy(m2z3)
    n = ring.order
    counting = _Counting(ring)
    scan = RingScan(counting)
    view = _Tabled(ring)
    assert [set(indices_of(m)) for m in scan.rann] == [oracles.o_rann(view, [s]) for s in range(n)]
    assert [set(indices_of(m)) for m in scan.row_sets] == [
        oracles.o_right_multiples(view, s) for s in range(n)
    ]
    assert [set(indices_of(m)) for m in scan.lann] == [oracles.o_lann(view, [s]) for s in range(n)]
    assert [set(indices_of(m)) for m in scan.col_sets] == [
        oracles.o_left_multiples(view, s) for s in range(n)
    ]
    assert sorted(counting.rows) == list(range(n))
    assert counting.cols == n


# The small corpus's lawful rings, two larger matrix rings, and two subrings
# where r(aR) = eR holds at some a but not at a*, so that the two clauses
# of p.q.-Baer* differ element by element.
PQ_BAER_RINGS = small_corpus() + [
    "M(2, Z(5))",
    "M(2, Z(6))",
    "sub(M(2, Z(2)); [[1,1],[0,0]])",
    "sub(M(2, Z(6)); [[1,3],[0,2]])",
]


@pytest.mark.parametrize("text", PQ_BAER_RINGS)
def test_pq_baer_left_clause_is_the_right_clause_at_the_adjoint(text):
    """A lawful ring reads p.q.-Baer*'s left clause off r(a*R); its copy
    given by tables reads l(Ra) and the ideals Rf. Both name the same
    verdict and witness, side included, and the left clause fails at
    exactly the a whose a* fails the right clause."""
    ring = cached_ring(text)
    copy = tables_copy(ring)
    assert ring.lawful and not copy.lawful
    lawful, scan = is_pq_baer_star(ring), RingScan(copy)
    two_sided = is_pq_baer_star(copy, scan)
    assert lawful.verdict == two_sided.verdict
    if two_sided.witness is None:
        assert lawful.witness is None
    else:  # the copy decodes an element to its index
        a, side = two_sided.witness["a"], two_sided.witness["side"]
        assert lawful.witness == {"a": ring.decode(a), "side": side}
    right = [_matching_projection(scan.eR_by_mask, m) is None for m in scan.r_of_aR]
    left = [_matching_projection(scan.Rf_by_mask, m) is None for m in scan.l_of_Ra]
    assert left == [right[s] for s in ring.star_vector().tolist()]


@pytest.mark.parametrize("text", PQ_BAER_RINGS)
def test_lawful_lp_all_is_the_two_sided_table(text):
    """lp_all on a lawful ring is rp_all read at x*; its copy given by
    tables builds it from lann and the left fixed points."""
    ring = cached_ring(text)
    assert np.array_equal(RingScan(ring).lp_all, RingScan(tables_copy(ring)).lp_all)


class _Relabeled(_Backend):
    """A lawful ring with element i renamed perm[i], zero kept at 0: an
    isomorphic *-ring, so lawful too."""

    lawful = True

    def __init__(self, ring, perm):
        self.ring, self.order = ring, ring.order
        self.perm, self.inv = perm, np.argsort(perm)

    def add_pairs(self, u, v):
        return self.perm[self.ring.add_pairs(self.inv[u], self.inv[v])]

    def mul_pairs(self, u, v):
        return self.perm[self.ring.mul_pairs(self.inv[u], self.inv[v])]

    def neg_vec(self):
        return self.perm[self.ring.neg_vector()[self.inv]]

    def star_vec(self):
        return self.perm[self.ring.star_vector()[self.inv]]

    def decode(self, i):
        return self.ring.decode(int(self.inv[i]))

    def encode(self, lit):
        return int(self.perm[self.ring.encode(lit)])


def test_pq_baer_witness_names_the_left_side_first_when_it_fails_first():
    """No descriptor ring found fails p.q.-Baer* first on the left side. In
    sub(M(2, Z(2)); [[1,1],[0,0]]) the right clause fails at a = [[0,0],
    [1,1]] (index 1) and holds at a* = [[0,1],[0,1]] (index 2); swapping
    the two labels makes the left clause at a* the first failure."""
    ring = cached_ring("sub(M(2, Z(2)); [[1,1],[0,0]])")
    swapped = StarRing(_Relabeled(ring, np.array([0, 2, 1, 3, 4, 5, 6, 7])))
    assert swapped.lawful
    witness = {"a": ((0, 1), (0, 1)), "side": "left"}
    assert is_pq_baer_star(swapped).witness == witness
    two_sided = is_pq_baer_star(tables_copy(swapped)).witness
    assert {"a": swapped.decode(two_sided["a"]), "side": two_sided["side"]} == witness
    assert is_pq_baer_star(ring).witness == {"a": ((0, 0), (1, 1)), "side": "right"}


def _pair_algebra():
    return build_scalar_algebra(cached_ring("M(2, Z(3))"), cached_ring("Z(6)"))


# One ring of every backend; M(2, Z(5)) (625) and the pair ring (486) have
# more rows than one block of the scan passes holds.
BACKENDS = {
    "cyclic": lambda: call_based_ring("Z(12)"),
    "matrix-tabled": lambda: cached_ring("M(2, Z(5))"),
    "matrix-call-based": lambda: call_based_ring("M(2, Z(5))"),
    "product": lambda: call_based_ring("prod(Z(2), Z(3))"),
    "subring": lambda: call_based_ring("sub(M(2, Z(4)); [[1,1],[1,1]], [[2,0],[0,0]])"),
    "pair-ring": lambda: build_R1(_pair_algebra()),
    "quotient": lambda: build_quotient(_pair_algebra()).ring,
    "from-tables": lambda: tables_copy(cached_ring("Z(6)")),
}


def _index_blocks(n):
    lines = _lines_per_block(n)
    return {
        "empty": [],
        "single": [n - 1],
        "unsorted": [n - 1, 0, n // 2, 1 % n],
        "repeated": [n // 2, 0, n // 2, n // 2],
        # the last lines + 1 rows: more than one scan block where n > lines
        "across-blocks": list(range(max(0, n - lines - 1), n)),
    }


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_row_blocks_match_stacked_rows(kind):
    ring = BACKENDS[kind]()
    backend, n = ring._backend, ring.order
    for name, idx in _index_blocks(n).items():
        for block, line in (
            (backend.add_rows, backend.add_row),
            (backend.mul_rows, backend.mul_row),
            (ring.mul_rows, ring.mul_row),
        ):
            got = block(np.array(idx, dtype=np.int64))
            stacked = np.array([line(i) for i in idx]).reshape(len(idx), n)
            assert got.shape == (len(idx), n), name
            assert np.array_equal(got, stacked), name
    if kind in ("matrix-call-based", "pair-ring"):
        assert len(_index_blocks(n)["across-blocks"]) > _lines_per_block(n)


# r(aR) and l(Ra) for every a against the literal sets. Up to 100
# elements the reference is the oracle's additive closure of aR; past that,
# closing every aR costs too many steps, and the value set, which is aR
# itself, stands in for it.
SCANNED = {
    **BACKENDS,
    "zero-ring": lambda: cached_ring("Z(1)"),
    "m2z3-from-tables": lambda: tables_copy(cached_ring("M(2, Z(3))")),
}


@pytest.mark.parametrize("kind", sorted(SCANNED))
def test_ideal_annihilators_match_the_literal_sets(kind):
    ring = SCANNED[kind]()
    n = ring.order
    scan, view = RingScan(ring), _Tabled(ring)
    if n <= 100:
        right, left = oracles.o_principal_right_ideal, oracles.o_principal_left_ideal
    else:
        right, left = oracles.o_right_multiples, oracles.o_left_multiples
    for a in range(n):
        assert set(indices_of(scan.r_of_aR[a])) == oracles.o_rann(view, sorted(right(view, a)))
        assert set(indices_of(scan.l_of_Ra[a])) == oracles.o_lann(view, sorted(left(view, a)))
    # lawful rings take the generator route for r(aR), with no aR built
    assert ("row_sets" in scan.__dict__) == (not ring.lawful)
    if kind == "zero-ring":
        assert ring.generators == () and scan.r_of_aR == scan.l_of_Ra == [1]


@pytest.mark.parametrize("text", small_corpus())
def test_assembled_tables_match_rows(text):
    tabled = cached_ring(text)
    made_from = tabled._backend.codec  # the backend the tables were assembled from
    n = tabled.order
    add = np.array([made_from.add_row(i) for i in range(n)])
    mul = np.array([made_from.mul_row(i) for i in range(n)])
    for ring in (tabled, call_based_ring(text)):  # persistent and transient
        # every index of an order up to 2^15 fits int16
        assert ring.add_table().dtype == ring.mul_table().dtype == np.int16
        assert np.array_equal(ring.add_table(), add)
        assert np.array_equal(ring.mul_table(), mul)


def test_table_bytes_are_two_per_entry():
    """M(2, Z(6)) has 1296 elements: each int16 table takes 1296^2 * 2
    bytes, half of what int32 took."""
    ring = cached_ring("M(2, Z(6))")
    assert ring.has_tables()
    assert ring.add_table().nbytes == ring.mul_table().nbytes == 1296**2 * 2


# tables for every medium-corpus ring, M(2, Z(7)) (2401 elements) included
TABLED = Limits(table_threshold=2401**2)


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "call-based"])
@pytest.mark.parametrize("text", medium_corpus())
def test_adjoint_reading_matches_the_left_side(text, tabled):
    """A lawful ring's lp_all and p.q.-Baer*'s left clause are read off the
    right side at the adjoint; the left side, read column by column, gives
    the same: lp_all from lann and the left fixed points, and the left
    misses from l(Ra) and the ideals Rf."""
    ring = build_ring(parse_ring_expr(text), TABLED if tabled else CALL_BASED)
    assert ring.lawful and ring.has_tables() == tabled
    scan = RingScan(ring)
    assert np.array_equal(scan.lp_all, scan._projection_table(scan.lann, scan._fixed_left))
    right = [_matching_projection(scan.eR_by_mask, m) is None for m in scan.r_of_aR]
    left = [_matching_projection(scan.Rf_by_mask, m) is None for m in scan.l_of_Ra]
    assert left == [right[s] for s in ring.star_vector().tolist()]


def test_rings_without_the_laws_read_their_columns(m2z2):
    """The identity on M(2, Z(2)) is an involution that is not
    anti-multiplicative, so the left annihilators are not the right ones
    read at the adjoint (under the identity, lann would equal rann); the
    scan reads them column by column."""
    n = m2z2.order
    ring = tables_copy(m2z2, star=np.arange(n))
    assert not ring.lawful
    scan = RingScan(ring)
    assert scan.rann != scan.lann
    for s in range(n):
        assert set(indices_of(scan.lann[s])) == oracles.o_lann(ring, [s])
        assert set(indices_of(scan.col_sets[s])) == {ring.mul(r, s) for r in range(n)}
