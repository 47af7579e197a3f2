import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench import (
    DEFAULT_LIMITS,
    Limits,
    StarRing,
    build_quotient,
    build_R1,
    build_ring,
    build_scalar_algebra,
    medium_corpus,
    parse_ring_expr,
    small_corpus,
    validate_star_ring,
)
from starbench.errors import AxiomViolation, LiteralError, OrderCapExceeded
from starbench import rings as rings_module
from starbench.rings import _CyclicBackend, _MatrixBackend, index_dtype

import oracles
from conftest import cached_ring
from test_axiom_certificate import reference_audit


CALL_BASED = Limits(table_threshold=0)
# tables for every medium-corpus ring, M(2, Z(7)) (order 2401) included
TABLED = Limits(table_threshold=2401**2)


def ring(text):
    return cached_ring(text)


class TestCyclic:
    def test_z3(self):
        r = ring("Z(3)")
        assert r.order == 3
        assert r.unity == 1
        assert all(r.star(x) == x for x in range(3))

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_sums_are_read_off_the_residues_written_twice(self, m):
        b = _CyclicBackend(m)
        i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        expected = (i + j) % m
        assert np.array_equal(b.add_rows(np.arange(m)[::-1]), expected[::-1])
        assert np.array_equal(b.add_pairs(i, j), expected)
        for k in range(m):
            row = b.add_row(k)
            assert np.array_equal(row, expected[k])
            row[:] = -1  # a fresh array, not a view of the residues
        assert np.array_equal(b.add_rows(np.arange(m)), expected)

    def test_z6_tables(self, z6):
        assert z6.order == 6
        assert z6.characteristic == 6
        assert z6.add(4, 5) == 3
        assert z6.mul(4, 5) == 2
        assert z6.neg(2) == 4

    def test_z1_is_the_zero_ring(self):
        r = ring("Z(1)")
        assert r.order == 1
        assert r.unity == 0
        assert r.characteristic == 1

    def test_additive_orders(self, z6):
        assert [oracles.o_additive_order(z6, i) for i in range(6)] == [1, 6, 3, 2, 3, 6]


class TestMatrix:
    def test_m2z3_shape(self, m2z3):
        assert m2z3.order == 81
        assert m2z3.characteristic == 3
        assert m2z3.decode(m2z3.unity) == ((1, 0), (0, 1))

    def test_star_is_transpose(self, m2z3):
        e12 = m2z3.encode(((0, 1), (0, 0)))
        e21 = m2z3.encode(((0, 0), (1, 0)))
        assert m2z3.star(e12) == e21
        for x in range(81):
            ((a, b), (c, d)) = m2z3.decode(x)
            assert m2z3.decode(m2z3.star(x)) == ((a, c), (b, d))

    @pytest.mark.parametrize(
        "text,expected",
        [("M(1,Z(5))", 5), ("M(2,Z(2))", 16), ("M(3,Z(2))", 512), ("M(2,Z(3))", 81)],
    )
    def test_order_is_modulus_to_n_squared(self, text, expected):
        assert ring(text).order == expected

    def test_matrix_multiplication_matches_hand_arithmetic(self, m2z3):
        a = m2z3.encode(((1, 2), (0, 1)))
        b = m2z3.encode(((2, 1), (1, 0)))
        # ((1*2+2*1, 1*1+2*0), (0*2+1*1, 0*1+1*0)) mod 3
        assert m2z3.decode(m2z3.mul(a, b)) == ((1, 1), (1, 0))


class TestProduct:
    def test_shape(self, prod23):
        assert prod23.order == 6
        assert prod23.characteristic == 6
        assert prod23.decode(prod23.unity) == (1, 1)

    def test_index_layout(self, prod23):
        # left_index * |right| + right_index
        assert prod23.encode((1, 2)) == 5
        assert prod23.decode(3) == (1, 0)

    def test_componentwise_operations(self, prod23):
        x = prod23.encode((1, 2))
        y = prod23.encode((1, 1))
        assert prod23.decode(prod23.add(x, y)) == (0, 0)
        assert prod23.decode(prod23.mul(x, y)) == (1, 2)
        assert prod23.decode(prod23.star(x)) == (1, 2)


class TestSubringClosure:
    def test_zero_multiplication_ring(self, sub93):
        assert sub93.order == 3
        assert [sub93.decode(i) for i in range(3)] == [0, 3, 6]
        assert sub93.unity is None
        assert all(
            sub93.mul(x, y) == 0 for x in range(3) for y in range(3)
        )
        assert sub93.characteristic == 3

    def test_closure_can_acquire_its_own_unity(self):
        r = ring("sub(Z(6); 2)")
        assert [r.decode(i) for i in range(r.order)] == [0, 2, 4]
        # 4*4 = 16 = 4 and 4*2 = 8 = 2 mod 6, so 4 acts as identity
        assert r.decode(r.unity) == 4

    def test_two_element_closure(self):
        r = ring("sub(Z(4); 2)")
        assert [r.decode(i) for i in range(r.order)] == [0, 2]
        assert r.unity is None
        assert r.mul(1, 1) == 0

    def test_closure_is_a_fixpoint(self):
        inner = ring("sub(Z(12); 2, 3)")
        again = build_ring(
            parse_ring_expr("sub(Z(12); " + ", ".join(str(inner.decode(i)) for i in range(inner.order)) + ")")
        )
        assert again.order == inner.order
        assert [again.decode(i) for i in range(again.order)] == [
            inner.decode(i) for i in range(inner.order)
        ]

    def test_zero_is_index_zero(self):
        r = ring("sub(Z(9); 3)")
        assert r.decode(0) == 0
        assert r.add(0, 1) == 1

    def test_encode_rejects_outsiders(self, sub93):
        with pytest.raises(LiteralError):
            sub93.encode(4)


AUDITED = ["Z(1)", "Z(6)", "Z(8)", "M(2,Z(2))", "M(2,Z(3))", "prod(Z(2),Z(3))", "sub(Z(9); 3)", "sub(Z(6); 2)"]
# Every medium-corpus ring. These rings are *-rings by construction, which
# the scalar algebra and the unitification take as the premise of their
# generator certificates.
AUDITED += [
    t for t in medium_corpus()
    if t.replace(" ", "") not in {a.replace(" ", "") for a in AUDITED}
]


def tables_of(r):
    add, mul = oracles.tables(r)
    neg = np.array([r.neg(i) for i in range(r.order)])
    star = np.array([r.star(i) for i in range(r.order)])
    return add, mul, neg, star


def mul_not_associative(add, mul, neg, star):
    mul[2, 3], mul[3, 2] = 1, 1


def add_not_commutative(add, mul, neg, star):
    add[1, 2] = 0


def star_not_anti_multiplicative(add, mul, neg, star):
    # on Z(5), x -> -x is additive but (xy)* = -xy != (-x)(-y) = xy
    star[1], star[4] = 4, 1
    star[2], star[3] = 3, 2


def identity_star(add, mul, neg, star):
    # an involution, but (xy)* = xy != y*x* = yx where x and y do not commute
    star[:] = np.arange(len(star))


def sum_not_commutative(add, mul, neg, star):
    # + is no group law: 2 + 3 = 0 but 3 + 2 = 5
    add[2, 3] = 0


def zero_not_its_own_negative(add, mul, neg, star):
    neg[0] = 4


def zero_not_self_adjoint(add, mul, neg, star):
    # an involution, but (0 + 0)* = 4 != 0* + 0* = 4 + 4 = 0
    star[0], star[4] = 4, 0


def star_not_involutive(add, mul, neg, star):
    star[1] = 2  # star(star(1)) = star(2) = 2 != 1


class TestValidation:
    @pytest.mark.parametrize("text", AUDITED)
    def test_built_rings_pass_the_full_audit(self, text):
        # tabled, then call-based
        tabled = ring(text) if ring(text).has_tables() else build_ring(parse_ring_expr(text), TABLED)
        call_based = build_ring(parse_ring_expr(text), CALL_BASED)
        assert tabled.has_tables() and not call_based.has_tables()
        for r in (tabled, call_based):
            rep = validate_star_ring(r)
            assert rep["ok"] is True
            assert "star-anti-multiplicative" in rep["checks"]
            assert rep["order"] == ring(text).order

    @pytest.mark.parametrize(
        "text,corrupt,axiom",
        [
            ("Z(6)", mul_not_associative, "mul-associative"),
            ("Z(6)", add_not_commutative, "add-commutative"),
            ("Z(5)", star_not_anti_multiplicative, "star-anti-multiplicative"),
            ("M(2,Z(2))", identity_star, "star-anti-multiplicative"),
        ],
    )
    def test_from_tables_raises_what_the_audit_names(self, text, corrupt, axiom):
        tables = tables_of(ring(text))
        corrupt(*tables)
        with pytest.raises(AxiomViolation) as audited:
            validate_star_ring(oracles.unaudited_ring(*tables))
        with pytest.raises(AxiomViolation) as door:
            StarRing.from_tables(*tables)
        assert door.value.payload() == audited.value.payload()
        assert door.value.axiom == axiom

    @pytest.mark.parametrize("text", small_corpus())
    def test_from_tables_copies_of_the_small_corpus_build(self, text):
        r = ring(text)
        copy = StarRing.from_tables(*tables_of(r), [r.decode(i) for i in range(r.order)])
        assert all(map(np.array_equal, oracles.tables(copy), oracles.tables(r)))
        assert (copy.unity, copy.characteristic, copy.generators) == (
            r.unity, r.characteristic, r.generators,
        )

    def test_quotients_over_table_copies_are_the_same_ring(self):
        R, K = ring("sub(Z(9); 3)"), ring("Z(9)")
        action = build_scalar_algebra(R, K).action
        expected = build_quotient(build_scalar_algebra(R, K, action=action))
        for R_, K_ in (
            (StarRing.from_tables(*tables_of(R)), K),
            (R, StarRing.from_tables(*tables_of(K))),
        ):
            alg = build_scalar_algebra(R_, K_, action=action)
            products = oracles.tables(build_R1(alg))[1]
            assert np.array_equal(products, oracles.tables(expected.r1)[1])
            q = build_quotient(alg)
            assert np.array_equal(q.reps, expected.reps)
            assert np.array_equal(oracles.tables(q.ring)[1], oracles.tables(expected.ring)[1])

    def test_from_tables_reproduces_the_ring(self, z6):
        raw = StarRing.from_tables(*tables_of(z6), label="copy of Z(6)")
        assert raw.order == 6
        assert raw.unity == 1
        assert validate_star_ring(raw)["ok"] is True

    @pytest.mark.parametrize(
        "text,corrupt,axiom,witness",
        [
            ("Z(8)", sum_not_commutative, "add-commutative", (2, 3)),
            ("Z(8)", zero_not_its_own_negative, "add-inverse", (0,)),
            ("Z(8)", zero_not_self_adjoint, "star-additive", (0, 0)),
            ("Z(6)", star_not_involutive, "star-involutive", (1,)),
        ],
    )
    def test_from_tables_names_the_first_violation(self, text, corrupt, axiom, witness):
        # the audit is the only check on the tables, so each names the
        # reference's first violation and its witness
        tables = tables_of(ring(text))
        corrupt(*tables)
        with pytest.raises(AxiomViolation) as exc:
            StarRing.from_tables(*tables)
        assert (exc.value.axiom, exc.value.witness) == (axiom, witness)
        assert reference_audit(oracles.unaudited_ring(*tables)) == (axiom, witness)


class TestCapsAndDeterminism:
    def test_order_cap_fails_fast(self):
        t0 = __import__("time").perf_counter()
        with pytest.raises(OrderCapExceeded) as exc:
            build_ring(parse_ring_expr("M(2,Z(101))"))
        assert __import__("time").perf_counter() - t0 < 1.0
        payload = exc.value.payload()
        assert payload["order"] == 101**4
        assert payload["cap"] == DEFAULT_LIMITS.element_cap

    def test_audit_cap_falls_on_call_based_rings_past_it(self, monkeypatch):
        # the audit builds no table, but refuses a call-based ring with
        # order^2 above the cap before any check, as it always has
        monkeypatch.setattr(rings_module, "VALIDATION_TABLE_CAP", 100)
        assert validate_star_ring(build_ring(parse_ring_expr("Z(10)"), CALL_BASED))["ok"]
        with pytest.raises(OrderCapExceeded) as exc:
            validate_star_ring(build_ring(parse_ring_expr("Z(11)"), CALL_BASED))
        assert (exc.value.order, exc.value.cap) == (121, 100)
        assert "transient table" in str(exc.value)
        # a tabled ring has its tables, and is audited whatever its order
        assert validate_star_ring(ring("Z(11)"))["ok"]

    def test_cap_is_adjustable(self):
        r = build_ring(
            parse_ring_expr("M(2,Z(7))"), DEFAULT_LIMITS.with_element_cap(20000)
        )
        assert r.order == 2401

    def test_same_descriptor_same_tables(self):
        a = build_ring(parse_ring_expr("M(2,Z(2))"))
        b = build_ring(parse_ring_expr("M(2,Z(2))"))
        assert all(map(np.array_equal, oracles.tables(a), oracles.tables(b)))
        assert np.array_equal(a.star_vector(), b.star_vector())

    def test_handed_out_tables_are_read_only(self, z6):
        with pytest.raises(ValueError):
            z6._backend.add_table[0, 0] = 1
        with pytest.raises(ValueError):
            z6.star_vector()[0] = 1


class TestCodec:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=80))
    def test_matrix_codec_round_trip(self, i):
        r = cached_ring("M(2,Z(3))")
        assert r.encode(r.decode(i)) == i

    @pytest.mark.parametrize(
        "text", ["Z(6)", "prod(Z(2),Z(3))", "sub(Z(9); 3)", "M(2,Z(2))"]
    )
    def test_codec_is_a_bijection(self, text):
        r = ring(text)
        literals = [r.decode(i) for i in range(r.order)]
        assert len(set(map(str, literals))) == r.order
        assert [r.encode(l) for l in literals] == list(range(r.order))


def _searched_unity(backend, monkeypatch):
    """find_unity with no candidate named: the search over idempotents."""
    with monkeypatch.context() as m:
        m.setattr(backend, "unity_candidate", lambda: None)
        return backend.find_unity()


def _algebra(rt, kt):
    return build_scalar_algebra(ring(rt), ring(kt))


UNITY_CASES = {
    "pair Z(6) over Z(6)": lambda: build_R1(_algebra("Z(6)", "Z(6)")),
    "pair sub(Z(9); 3) over Z(9)": lambda: build_R1(_algebra("sub(Z(9); 3)", "Z(9)")),
    "pair M(2,Z(3)) over Z(3)": lambda: build_R1(_algebra("M(2,Z(3))", "Z(3)")),
    "quotient Z(6) over Z(6)": lambda: build_quotient(_algebra("Z(6)", "Z(6)")).ring,
    "quotient sub(Z(9); 3) over Z(9)": lambda: build_quotient(
        _algebra("sub(Z(9); 3)", "Z(9)")
    ).ring,
    "quotient M(2,Z(3)) over Z(6)": lambda: build_quotient(_algebra("M(2,Z(3))", "Z(6)")).ring,
    "product Z(2) x Z(3)": lambda: build_ring(parse_ring_expr("prod(Z(2),Z(3))"), CALL_BASED),
    "product M(2,Z(2)) x Z(4)": lambda: build_ring(
        parse_ring_expr("prod(M(2,Z(2)),Z(4))"), CALL_BASED
    ),
    "product Z(2) x sub(Z(4); 2)": lambda: build_ring(
        parse_ring_expr("prod(Z(2),sub(Z(4); 2))"), CALL_BASED
    ),
    "cyclic Z(1)": lambda: build_ring(parse_ring_expr("Z(1)"), CALL_BASED),
    "matrix M(2,Z(3))": lambda: build_ring(parse_ring_expr("M(2,Z(3))"), CALL_BASED),
    "subring sub(Z(6); 1)": lambda: build_ring(parse_ring_expr("sub(Z(6); 1)"), CALL_BASED),
    "subring sub(Z(6); 2)": lambda: build_ring(parse_ring_expr("sub(Z(6); 2)"), CALL_BASED),
    "subring sub(Z(6); 3)": lambda: build_ring(parse_ring_expr("sub(Z(6); 3)"), CALL_BASED),
}

# the unity's literal; None where the ring has none
UNITY_LITERALS = {
    "pair Z(6) over Z(6)": (0, 1),
    "pair sub(Z(9); 3) over Z(9)": (0, 1),
    "pair M(2,Z(3)) over Z(3)": (((0, 0), (0, 0)), 1),
    "quotient Z(6) over Z(6)": (0, 1),
    "quotient sub(Z(9); 3) over Z(9)": (0, 1),
    "quotient M(2,Z(3)) over Z(6)": (((0, 0), (0, 0)), 1),
    "product Z(2) x Z(3)": (1, 1),
    "product M(2,Z(2)) x Z(4)": (((1, 0), (0, 1)), 1),
    "product Z(2) x sub(Z(4); 2)": None,
    "cyclic Z(1)": 0,
    "matrix M(2,Z(3))": ((1, 0), (0, 1)),
    "subring sub(Z(6); 1)": 1,
    # the parent's unity 1 lies outside these two: they are searched
    "subring sub(Z(6); 2)": 4,
    "subring sub(Z(6); 3)": 3,
}


class TestUnity:
    @pytest.mark.parametrize("case", sorted(UNITY_CASES))
    def test_named_unity_is_the_searched_one(self, case, monkeypatch):
        r = UNITY_CASES[case]()
        backend = r._backend
        assert not r.has_tables()
        found = backend.find_unity()
        assert found == _searched_unity(backend, monkeypatch) == r.unity
        literal = UNITY_LITERALS[case]
        assert (None if found is None else r.decode(found)) == literal
        # the construction names the unity wherever the parent's lies inside
        named = backend.unity_candidate()
        if case in ("subring sub(Z(6); 2)", "subring sub(Z(6); 3)"):
            assert named is None
        else:
            assert named == found

    def test_a_failed_candidate_falls_back_on_the_search(self, monkeypatch):
        backend = build_ring(parse_ring_expr("sub(Z(6); 2)"), CALL_BASED)._backend
        monkeypatch.setattr(backend, "unity_candidate", lambda: 1)  # 2, not a unity
        assert backend.decode(backend.find_unity()) == 4


class TestMatrixBackend:
    """M(3, Z(2)): k = 3 row blocks, so add_rows takes two outer sums."""

    @pytest.fixture(scope="class")
    def m3z2(self):
        return _MatrixBackend(3, 2)

    @staticmethod
    def _enc(mats):
        """Indices of matrices over Z(2): entries row-major, base 2."""
        return (mats.reshape(len(mats), 9) % 2) @ 2 ** np.arange(8, -1, -1)

    @pytest.mark.parametrize(
        "idx", [[], [0], [511, 0, 256, 3, 3], list(range(512))], ids=["empty", "one", "mixed", "all"]
    )
    def test_blocks_and_pairs_are_matrix_arithmetic(self, m3z2, idx):
        mats, n = m3z2.mats, m3z2.order
        idx = np.array(idx, dtype=np.int64)
        u, v = np.repeat(idx, n), np.tile(np.arange(n), len(idx))
        add = self._enc(mats[u] + mats[v]).reshape(len(idx), n)
        mul = self._enc(mats[u] @ mats[v]).reshape(len(idx), n)
        mul_left = self._enc(mats[v] @ mats[u]).reshape(len(idx), n)
        for got, want in (
            (m3z2.add_rows(idx), add),
            (m3z2.mul_rows(idx), mul),
            (m3z2.add_pairs(u, v).reshape(len(idx), n), add),
            (m3z2.mul_pairs(u, v).reshape(len(idx), n), mul),
            (m3z2.mul_pairs(v, u).reshape(len(idx), n), mul_left),
        ):
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "k, m",
        [(1, 6), (2, 1)] + [(2, m) for m in range(2, 8)] + [(2, 10), (3, 2), (3, 3), (2, 13), (2, 14)],
    )
    def test_rmul_is_the_row_vector_product(self, k, m):
        """rmul[v, B] is the row block of v.B, for the row vector v (its k
        entries as digits base m, first most significant) and every matrix
        B: the reference is one matmul of every row vector with every
        matrix, encoded the same way."""
        b = _MatrixBackend(k, m)
        digits = m ** np.arange(k - 1, -1, -1)
        vecs = (np.arange(m**k)[:, None] // digits) % m
        assert b.rmul.shape == (b.r, b.order)
        for start in range(0, b.order, 4096):  # (vecs @ mats)[B, v] is v.B
            want = (((vecs @ b.mats[start : start + 4096]) % m) @ digits).T
            assert np.array_equal(b.rmul[:, start : start + 4096], want)
        assert b.rmul.dtype == index_dtype(b.order) and b.rmul.flags.c_contiguous

    @pytest.mark.parametrize("block", [None, 7], ids=["default", "seven-entry-blocks"])
    @pytest.mark.parametrize("k, m", [(1, 6), (1, 300), (2, 1), (2, 5), (3, 2), (3, 3)])
    def test_radd_is_the_row_vector_sum(self, monkeypatch, k, m, block):
        """radd[v, w] is the row block of v + w, however many blocks of
        rows it is summed in: the reference is one broadcast sum of every
        pair of row vectors. rmul does not depend on the blocks either."""
        b = _MatrixBackend(k, m)
        if block:
            monkeypatch.setattr(rings_module, "SCAN_BLOCK", block)
            blocked = _MatrixBackend(k, m)
            assert np.array_equal(blocked.rmul, b.rmul)
            b = blocked
        digits = m ** np.arange(k - 1, -1, -1)
        vecs = (np.arange(m**k)[:, None] // digits) % m
        want = ((vecs[:, None, :] + vecs[None, :, :]) % m) @ digits
        assert np.array_equal(b.radd, want)
        assert b.radd.dtype == index_dtype(b.order) and b.radd.flags.c_contiguous

    def test_tables_are_c_contiguous_int16(self, m3z2):
        for table in (m3z2.radd, m3z2.rmul):
            assert table.dtype == np.int16 and table.flags.c_contiguous

    def test_index_dtype_switches_past_two_to_the_fifteen(self):
        assert np.iinfo(np.int16).max == 2**15 - 1
        assert index_dtype(2**15) == np.int16  # indices 0 .. 2^15 - 1
        assert index_dtype(2**15 + 1) == np.int32

    @pytest.mark.parametrize("m, dtype", [(13, np.int16), (14, np.int32)])
    def test_lines_at_the_int16_boundary(self, m, dtype):
        """M(2, Z(13)) has 28,561 elements, the most of any M(2, Z(m)) with
        int16 indices; M(2, Z(14)) has 38,416, past 2^15. Its rows, columns
        and pairs reach its top index, which int16 parts would wrap in the
        multiply-add that joins them. Checked against a matmul reference on
        the rows and columns of 0, 1, n - 1 and five seeded indices."""
        b = _MatrixBackend(2, m)
        n, mats = b.order, b.mats
        assert b.radd.dtype == b.rmul.dtype == dtype
        enc = m ** np.arange(3, -1, -1)
        idx = np.concatenate([[0, 1, n - 1], np.random.default_rng(m).integers(0, n, 5)])
        x = mats[idx][:, None]
        add = ((x + mats[None]) % m).reshape(len(idx), n, 4) @ enc
        mul = ((x @ mats[None]) % m).reshape(len(idx), n, 4) @ enc
        col = ((mats[None] @ x) % m).reshape(len(idx), n, 4) @ enc
        assert add.max() == mul.max() == n - 1
        assert np.array_equal(b.add_rows(idx), add)
        assert np.array_equal(b.mul_rows(idx), mul)
        assert np.array_equal(np.array([b.mul_col(int(j)) for j in idx]), col)
        u, v = np.repeat(idx, n), np.tile(np.arange(n), len(idx))
        assert np.array_equal(b.add_pairs(u, v), add.ravel())
        assert np.array_equal(b.mul_pairs(u, v), mul.ravel())

    def test_decode_gives_plain_ints_and_round_trips(self, m3z2):
        for i in range(m3z2.order):
            lit = m3z2.decode(i)
            assert all(type(e) is int for row in lit for e in row)
            assert m3z2.encode(lit) == i
