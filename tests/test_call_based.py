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
bitsets, its memoized set annihilators ``r_of``/``l_of`` and its r(aR)
for every a, read off the additive generators, must agree with the
oracles. p.q.-Baer* and lp read the left side off the right one at the
adjoint, and must agree with the left side read column by column here and,
up to 100 elements, with the oracles: every false p.q.-Baer* verdict's
witness is replayed against the definitions.
"""

import functools
import operator

import numpy as np
import pytest

from starbench import (
    RingScan,
    StarRing,
    build_R1,
    build_quotient,
    build_ring,
    build_scalar_algebra,
    parse_ring_expr,
)
from starbench.bitsets import contains, flags_of, full_mask, indices_of, mask_from_bool
from starbench.classifiers import (
    PROPERTY_CLASSIFIERS,
    ideal_annihilator_crosscheck,
    is_pq_baer_star,
)
from starbench.config import DEFAULT_LIMITS, Limits
from starbench.corpus import medium_corpus, small_corpus
from starbench.projections import _zero_and_value_sets
from starbench.rings import _Backend, _MatrixBackend, _lines_per_block

import oracles
from conftest import cached_ring, every_report

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
            *oracles.tables(z6), z6.neg_vector(), z6.star_vector(), limits=limits
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
        return {name: (rep.verdict, rep.witness) for name, rep in every_report(ring).items()}

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
        self._star = ring.star_vector().tolist()

    def add(self, x, y):
        return self._add[x][y]

    def mul(self, x, y):
        return self._mul[x][y]

    def neg(self, x):
        return self._neg[x]

    def star(self, x):
        return self._star[x]


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


def lann_of(scan, mask):
    """The bitset of l(S), S given by ``mask``: the scan's lann met over
    the members of S."""
    members = (scan.lann[s] for s in indices_of(mask))
    return functools.reduce(operator.and_, members, full_mask(scan.ring.order))


def _assert_set_annihilators_match_definition(ring):
    scan = RingScan(ring)
    view = _Tabled(ring)
    masks = {0, full_mask(ring.order), *scan.row_sets, *scan.col_sets}
    for m in sorted(masks):
        assert set(indices_of(scan.r_of(m))) == oracles.o_rann(view, indices_of(m))
        assert set(indices_of(lann_of(scan, m))) == oracles.o_lann(view, indices_of(m))


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


def tables_copy(ring):
    """``ring`` given by its tables, which from_tables audits."""
    return StarRing.from_tables(*oracles.tables(ring), ring.neg_vector(), ring.star_vector())


class _Counting:
    """A ring that records which rows a scan asks for, and the columns it
    reads, one at a time, from ``mul_col``."""

    def __init__(self, ring):
        self.ring = ring
        self.rows = []
        self.cols = []

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def mul_rows(self, idx):
        self.rows += np.asarray(idx).tolist()
        return self.ring.mul_rows(idx)

    def mul_col(self, j):
        self.cols.append(j)
        return self.ring.mul_col(j)


# A matrix ring, whose rann and r(aR) are read off its row vectors, and a
# call-based ring that is none, whose are read off its rows.
COUNTED = {
    "m2z3": lambda: cached_ring("M(2,Z(3))"),
    "call-based-product": lambda: call_based_ring("prod(M(2, Z(2)), Z(3))"),
}


def rann_row_reads(ring):
    """The rows that rann's pass reads: none on a matrix ring, every row
    once on any other."""
    matrix = isinstance(ring._origin, _MatrixBackend)
    return [] if matrix else list(range(ring.order))


@pytest.mark.parametrize("name", COUNTED)
def test_scans_read_each_row_once_and_no_column(name):
    """rann reads each element's row once, in its zero-set pass, or none on
    a matrix ring, and r(aR) no further row; the projection pass reads each
    projection's row once more, and nothing reads a column: a projection's
    right fixers are its left ones mirrored, r(aR) comes off the
    generators, so the value sets are never built, and p.q.-Baer*'s left
    clause at a is its right clause at a*, so no left side is built
    either."""
    ring = COUNTED[name]()
    counting = _Counting(ring)
    scan = RingScan(counting)
    scan.rann
    scan.r_of_aR
    assert counting.rows == rann_row_reads(ring)
    counting.rows = []
    scan.poset
    assert counting.rows == scan.poset.indices.tolist()
    counting.rows = []
    for classify in PROPERTY_CLASSIFIERS.values():
        classify(ring, scan)
    assert counting.rows == []
    assert counting.cols == []
    for cache in ("row_sets", "col_sets", "lann"):
        assert cache not in scan.__dict__, cache


@pytest.mark.parametrize("name", COUNTED)
def test_value_sets_take_one_pass_per_side(name):
    """row_sets takes a row pass of its own, beside rann's (none on a
    matrix ring), and lann and col_sets come from one more, over the rows
    of the adjoints in index order: every row once, and no column."""
    ring = COUNTED[name]()
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
    assert counting.rows == rann_row_reads(ring) + list(range(n)) + ring.star_vector().tolist()
    assert counting.cols == []


# Matrix rings whose right annihilators are read off their row vectors,
# tabled and call-based; the oracles check those up to 100 elements.
MATRIX_RINGS = ["M(1, Z(6))"] + ["M(2, Z(%d))" % m for m in range(2, 8)] + ["M(3, Z(2))"]


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "call-based"])
@pytest.mark.parametrize("text", MATRIX_RINGS)
def test_matrix_annihilators_are_read_off_row_vectors(text, tabled):
    """rann equals the zero sets of the rows, and r(aR) the meet of rann
    over a.G, G the additive generators."""
    n = cached_ring(text).order
    ring = build_ring(parse_ring_expr(text), Limits(table_threshold=n * n if tabled else 0))
    assert ring.has_tables() == tabled
    scan = RingScan(ring)
    assert scan.rann == _zero_and_value_sets(ring.mul_rows, n, values=False)[0]
    gens = np.array(ring.generators, dtype=np.int64)
    a_g = ring.mul_pairs(np.arange(n)[:, None], gens).tolist()
    whole = full_mask(n)
    assert scan.r_of_aR == [
        functools.reduce(operator.and_, (scan.rann[x] for x in row), whole) for row in a_g
    ]
    if n <= 100:
        view = _Tabled(ring)
        for a in range(n):
            assert set(indices_of(scan.rann[a])) == oracles.o_rann(view, [a])
            right_ideal = sorted(oracles.o_principal_right_ideal(view, a))
            assert set(indices_of(scan.r_of_aR[a])) == oracles.o_rann(view, right_ideal)


def left_misses(ring, scan):
    """For every a, whether l(Ra) is no ideal Rf of a projection f, read
    column by column: l(Ra) as the scan's lann met over the values of a's
    column, and each Rf as the values of f's column."""
    n = ring.order
    rf = {}
    for f in scan.poset.indices.tolist():
        rf.setdefault(mask_from_bool(flags_of(ring.mul_col(f), n)), []).append(f)
    misses = []
    for a in range(n):
        l_of_ra = lann_of(scan, mask_from_bool(flags_of(ring.mul_col(a), n)))
        misses.append(not any(contains(l_of_ra, f) for f in rf.get(l_of_ra, ())))
    return misses


def lp_by_columns(ring, scan):
    """For every x, its one left-projection candidate, read column by
    column: a projection f with fx = x and lann[x] inside lann[f]; -1 when
    there is none and -2 when there are several."""
    idx = np.arange(ring.order)
    out = np.full(ring.order, -1, dtype=np.int64)
    for f in scan.poset.indices.tolist():
        for x in np.flatnonzero(ring.mul_row(f) == idx).tolist():
            if scan.lann[x] & scan.lann[f] == scan.lann[x]:
                out[x] = f if out[x] == -1 else -2
    return out


# The small corpus's rings, two larger matrix rings, and two subrings
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
    """p.q.-Baer*'s left clause is read off r(a*R); the left side read
    column by column fails at exactly the a whose a* fails the right
    clause, and the verdict names the first a that fails either side."""
    ring = cached_ring(text)
    scan = RingScan(ring)
    report = is_pq_baer_star(ring, scan)
    right = [m not in scan.eR_by_mask for m in scan.r_of_aR]
    left = left_misses(ring, scan)
    assert left == [right[s] for s in ring.star_vector().tolist()]
    first = next(
        ((a, side) for a in range(ring.order)
         for side, miss in (("right", right[a]), ("left", left[a])) if miss),
        None,
    )
    assert report.verdict == (first is None)
    if first is not None:
        assert report.witness == {"a": ring.decode(first[0]), "side": first[1]}


@pytest.mark.parametrize("text", PQ_BAER_RINGS)
def test_lp_all_is_the_left_side_read_by_columns(text):
    """lp_all, rp_all read at x*, is the table the left annihilators and
    the left fixed points give."""
    ring = cached_ring(text)
    scan = RingScan(ring)
    assert np.array_equal(scan.lp_all, lp_by_columns(ring, scan))


def pq_baer_clause_fails(view, a, side, ideals):
    """Whether the p.q.-Baer* clause at a fails by the definition: r(aR)
    (l(Ra)) is none of the ideals eR (Rf) in ``ideals``."""
    if side == "right":
        found = oracles.o_rann(view, sorted(oracles.o_right_multiples(view, a)))
    else:
        found = oracles.o_lann(view, sorted(oracles.o_left_multiples(view, a)))
    return frozenset(found) not in ideals[side]


def swapped_subring():
    """sub(M(2, Z(2)); [[1,1],[0,0]]) with the labels 1 and 2 swapped: its
    first p.q.-Baer* failure is on the left side (see below)."""
    ring = cached_ring("sub(M(2, Z(2)); [[1,1],[0,0]])")
    return StarRing(_Relabeled(ring, np.array([0, 2, 1, 3, 4, 5, 6, 7])))


# rings of at most 100 elements, where the oracles take milliseconds, and
# the one ring whose first failure is on the left side
REPLAYED = {t: functools.partial(cached_ring, t) for t in PQ_BAER_RINGS if cached_ring(t).order <= 100}
REPLAYED["swapped-subring"] = swapped_subring


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_pq_baer_witness_and_lp_replay_against_the_oracles(name):
    """A false p.q.-Baer* verdict names an (a, side) whose clause fails by
    the definition, and every a' < a passes both; a true one has no a that
    fails. lp_all[x] is the oracle's LP(x), -1 where there is none."""
    ring = REPLAYED[name]()
    view = _Tabled(ring)
    projections = oracles.o_projections(view)
    ideals = {
        "right": {frozenset(oracles.o_right_ideal_of_projection(view, e)) for e in projections},
        "left": {frozenset(oracles.o_left_ideal_of_projection(view, f)) for f in projections},
    }
    report = is_pq_baer_star(ring)
    if report.verdict:
        passing = range(ring.order)
    else:
        a, side = ring.encode(report.witness["a"]), report.witness["side"]
        assert pq_baer_clause_fails(view, a, side, ideals)
        if side == "left":
            assert not pq_baer_clause_fails(view, a, "right", ideals)
        passing = range(a)
    for b in passing:
        for side in ("right", "left"):
            assert not pq_baer_clause_fails(view, b, side, ideals), (b, side)
    expected = [oracles.o_lp(view, x) for x in range(ring.order)]
    assert RingScan(ring).lp_all.tolist() == [-1 if e is None else e for e in expected]


class _Relabeled(_Backend):
    """A ring with element i renamed perm[i], zero kept at 0: an isomorphic
    *-ring."""

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
    swapped = swapped_subring()
    scan = RingScan(swapped)
    assert is_pq_baer_star(swapped, scan).witness == {"a": ((0, 1), (0, 1)), "side": "left"}
    right = [m not in scan.eR_by_mask for m in scan.r_of_aR]
    assert left_misses(swapped, scan)[1] and not right[1]  # read by columns
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


# r(aR) for every a, and l(Ra) read off it at the adjoint, against the
# literal sets. Up to 100
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
    star = ring.star_vector()
    for a in range(n):
        assert set(indices_of(scan.r_of_aR[a])) == oracles.o_rann(view, sorted(right(view, a)))
        # l(Ra) = {y : y* in r(a*R)}, the adjoint reading of the left side
        adjoint = {int(star[y]) for y in indices_of(scan.r_of_aR[int(star[a])])}
        assert adjoint == oracles.o_lann(view, sorted(left(view, a)))
    # r(aR) takes the generator route, with no aR built
    assert "row_sets" not in scan.__dict__
    if kind == "zero-ring":
        assert ring.generators == () and scan.r_of_aR == [1]


@pytest.mark.parametrize("text", small_corpus())
def test_assembled_tables_match_rows(text):
    tabled = cached_ring(text)
    made_from = tabled._backend.codec  # the backend the tables were assembled from
    n = tabled.order
    add = np.array([made_from.add_row(i) for i in range(n)])
    mul = np.array([made_from.mul_row(i) for i in range(n)])
    own = tabled._backend
    # every index of an order up to 2^15 fits int16
    assert own.add_table.dtype == own.mul_table.dtype == np.int16
    assert np.array_equal(own.add_table, add) and np.array_equal(own.mul_table, mul)
    for ring in (tabled, call_based_ring(text)):  # the rows each ring serves
        served = oracles.tables(ring)
        assert np.array_equal(served[0], add) and np.array_equal(served[1], mul)


def test_table_bytes_are_two_per_entry():
    """M(2, Z(6)) has 1296 elements: each int16 table takes 1296^2 * 2
    bytes, half of what int32 took."""
    ring = cached_ring("M(2, Z(6))")
    assert ring.has_tables()
    assert ring._backend.add_table.nbytes == ring._backend.mul_table.nbytes == 1296**2 * 2


# tables for every medium-corpus ring, M(2, Z(7)) (2401 elements) included
TABLED = Limits(table_threshold=2401**2)


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "call-based"])
@pytest.mark.parametrize("text", medium_corpus())
def test_adjoint_reading_matches_the_left_side(text, tabled):
    """lp_all and p.q.-Baer*'s left clause are read off the right side at
    the adjoint; the left side, read column by column, gives the same:
    lp_all from lann and the left fixed points, and the left misses from
    l(Ra) and the ideals Rf."""
    ring = build_ring(parse_ring_expr(text), TABLED if tabled else CALL_BASED)
    assert ring.has_tables() == tabled
    scan = RingScan(ring)
    assert np.array_equal(scan.lp_all, lp_by_columns(ring, scan))
    right = [m not in scan.eR_by_mask for m in scan.r_of_aR]
    assert left_misses(ring, scan) == [right[s] for s in ring.star_vector().tolist()]
