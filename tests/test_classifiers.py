import numpy as np
import pytest

from starbench import (
    IMPLICATIONS,
    PROPERTY_CLASSIFIERS,
    RingScan,
    StarRing,
    build_ring,
    classify_all,
    classify_matrix_ring,
    find_rp_not_central_cover,
    implication_suite,
    parse_ring_expr,
)
from starbench.bitsets import bool_from_mask, mask_from_bool
from starbench.classifiers import implication_reports_for
from starbench.config import Limits
from starbench.corpus import medium_corpus, small_corpus
from starbench.errors import FamilyCapExceeded, VerificationFailed

import oracles
from conftest import cached_ring


def verdict(text, prop):
    return PROPERTY_CLASSIFIERS[prop](cached_ring(text)).verdict


class TestInvolutionAndStructure:
    def test_proper(self):
        assert verdict("M(2,Z(3))", "proper") is True
        assert verdict("Z(2)", "proper") is True
        rep = PROPERTY_CLASSIFIERS["proper"](cached_ring("sub(Z(9); 3)"))
        assert rep.verdict is False
        assert rep.witness == {"x": 3}

    def test_semi_proper(self):
        assert verdict("M(2,Z(3))", "semi-proper") is True
        assert verdict("Z(6)", "semi-proper") is True
        assert verdict("sub(Z(9); 3)", "semi-proper") is False

    @pytest.mark.parametrize("text", small_corpus())
    def test_semi_proper_witness_is_the_oracle_index(self, text):
        r = cached_ring(text)
        rep = PROPERTY_CLASSIFIERS["semi-proper"](r)
        got = None if rep.witness is None else r.encode(rep.witness["x"])
        assert got == oracles.o_semi_proper(r)

    @pytest.mark.parametrize("text", small_corpus())
    def test_abelian_witness_is_the_oracle_index(self, text):
        r = cached_ring(text)
        rep = PROPERTY_CLASSIFIERS["abelian"](r)
        got = None if rep.witness is None else r.encode(rep.witness["idempotent"])
        assert got == oracles.o_abelian(r)
        if got is not None:  # the lowest element that fails to commute with it
            y = r.encode(rep.witness["witness"])
            assert r.mul(got, y) != r.mul(y, got)
            assert all(r.mul(got, x) == r.mul(x, got) for x in range(y))

    @pytest.mark.parametrize("kind", ["zero-multiplication", "exchange-involution"])
    def test_semi_proper_witness_on_raw_tables(self, kind):
        if kind == "zero-multiplication":  # Z(5) with x*y = 0
            idx = np.arange(5)
            add, mul, neg, star = (idx[:, None] + idx) % 5, np.zeros((5, 5), int), -idx % 5, idx
        else:  # Z(2) x Z(2), index 2a + b, with (a, b)* = (b, a)
            idx = np.arange(4)
            add, mul, neg, star = idx[:, None] ^ idx, idx[:, None] & idx, idx, np.array([0, 2, 1, 3])
        r = StarRing.from_tables(add, mul, neg, star)
        rep = PROPERTY_CLASSIFIERS["semi-proper"](r)
        assert rep.witness == {"x": 1} and oracles.o_semi_proper(r) == 1

    def test_reduced(self):
        assert verdict("Z(6)", "reduced") is True
        rep = PROPERTY_CLASSIFIERS["reduced"](cached_ring("M(2,Z(3))"))
        assert rep.verdict is False
        x = cached_ring("M(2,Z(3))").encode(rep.witness["x"])
        assert cached_ring("M(2,Z(3))").mul(x, x) == 0 and x != 0
        assert verdict("sub(Z(9); 3)", "reduced") is False

    def test_abelian(self):
        assert verdict("Z(6)", "abelian") is True
        assert verdict("M(2,Z(3))", "abelian") is False
        assert verdict("sub(Z(9); 3)", "abelian") is True

    def test_unity(self):
        assert verdict("Z(6)", "unity") is True
        assert verdict("M(2,Z(3))", "unity") is True
        assert verdict("sub(Z(9); 3)", "unity") is False

    @pytest.mark.parametrize(
        "text", ["Z(6)", "Z(8)", "M(2,Z(2))", "M(2,Z(3))", "sub(Z(9); 3)", "prod(Z(2),Z(3))"]
    )
    def test_structure_verdicts_match_oracles(self, text):
        r = cached_ring(text)
        assert verdict(text, "proper") is (oracles.o_proper(r) is None)
        assert verdict(text, "semi-proper") is (oracles.o_semi_proper(r) is None)
        assert verdict(text, "reduced") is (oracles.o_reduced(r) is None)
        assert verdict(text, "abelian") is (oracles.o_abelian(r) is None)


class TestRickartFamily:
    def test_rickart_star(self):
        assert verdict("M(2,Z(3))", "rickart-star") is True
        assert verdict("sub(Z(9); 3)", "rickart-star") is False
        assert verdict("Z(4)", "rickart-star") is False

    def test_weakly_rickart_star(self):
        assert verdict("Z(6)", "weakly-rickart-star") is True
        assert verdict("sub(Z(9); 3)", "weakly-rickart-star") is False
        assert verdict("M(2,Z(5))", "weakly-rickart-star") is False

    def test_weakly_rickart_false_witness_has_no_rp(self):
        rep = PROPERTY_CLASSIFIERS["weakly-rickart-star"](cached_ring("M(2,Z(5))"))
        r = cached_ring("M(2,Z(5))")
        assert oracles.o_rp(r, r.encode(rep.witness["x"])) is None

    def test_baer_star(self):
        assert verdict("M(2,Z(3))", "baer-star") is True
        assert verdict("Z(6)", "baer-star") is True
        assert verdict("M(2,Z(2))", "baer-star") is False

    def test_quasi_baer_star(self):
        assert verdict("M(2,Z(3))", "quasi-baer-star") is True
        assert verdict("Z(4)", "quasi-baer-star") is False
        assert verdict("sub(Z(9); 3)", "quasi-baer-star") is False

    def test_pq_baer_star(self):
        assert verdict("M(2,Z(3))", "pq-baer-star") is True
        assert verdict("Z(6)", "pq-baer-star") is True
        assert verdict("sub(Z(9); 3)", "pq-baer-star") is False

    def test_weakly_pq_baer_star(self):
        assert verdict("M(2,Z(3))", "weakly-pq-baer-star") is True
        assert verdict("Z(6)", "weakly-pq-baer-star") is True
        assert verdict("sub(Z(9); 3)", "weakly-pq-baer-star") is False

    def test_each_call_honours_its_own_family_cap(self):
        # 32 distinct r({x}): within the default cap, past a cap of 16
        d = parse_ring_expr("prod(Z(2), prod(Z(2), prod(Z(2), prod(Z(2), Z(2)))))")
        assert PROPERTY_CLASSIFIERS["baer-star"](build_ring(d)).verdict is True
        with pytest.raises(FamilyCapExceeded):
            PROPERTY_CLASSIFIERS["baer-star"](build_ring(d, Limits(family_cap=16)))

    @pytest.mark.parametrize(
        "text",
        ["Z(4)", "Z(6)", "Z(8)", "M(2,Z(2))", "M(2,Z(3))", "sub(Z(9); 3)", "sub(Z(6); 2)", "prod(Z(2),Z(3))"],
    )
    def test_class_verdicts_match_oracles(self, text):
        r = cached_ring(text)
        assert verdict(text, "weakly-rickart-star") is (oracles.o_weakly_rickart(r) is None)
        assert verdict(text, "rickart-star") is oracles.o_rickart(r)
        assert verdict(text, "baer-star") is oracles.o_baer(r)
        assert verdict(text, "pq-baer-star") is oracles.o_pq_baer(r)
        assert verdict(text, "weakly-pq-baer-star") is (oracles.o_weakly_pq_baer(r) is None)

    @pytest.mark.parametrize("text", ["Z(4)", "Z(6)", "M(2,Z(2))", "sub(Z(9); 3)", "prod(Z(2),Z(2))"])
    def test_quasi_baer_matches_ideal_enumeration(self, text):
        # direct enumeration of all two-sided ideals; tiny rings only
        r = cached_ring(text)
        assert verdict(text, "quasi-baer-star") is oracles.o_quasi_baer(r)


class TestMatrixArithmetic:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 3, True), (2, 5, False), (1, 12, False), (1, 6, True), (2, 7, True),
         (2, 21, True), (2, 9, False), (3, 3, False), (4, 7, False), (1, 1, True), (2, 1, True)],
    )
    def test_examples(self, n, m, expected):
        assert classify_matrix_ring(n, m) is expected

    def test_truth_sets(self):
        assert [m for m in range(2, 13) if classify_matrix_ring(1, m)] == [2, 3, 5, 6, 7, 10, 11]
        assert [m for m in range(2, 8) if classify_matrix_ring(2, m)] == [3, 7]
        assert not any(classify_matrix_ring(3, m) for m in range(2, 30))

    @pytest.mark.parametrize("n,m", [(0, 3), (2, 0), (-1, 5)])
    def test_degenerate_inputs_rejected(self, n, m):
        with pytest.raises(ValueError):
            classify_matrix_ring(n, m)

    def test_agreement_with_brute_force(self):
        for n in (1, 2):
            for m in range(2, 7 if n == 2 else 13):
                text = "M(%d,Z(%d))" % (n, m) if n > 1 else "Z(%d)" % m
                assert classify_matrix_ring(n, m) is verdict(text, "baer-star"), (n, m)


class TestRpNotCover:
    def test_matrix_ring_has_witness(self, m2z3):
        x = find_rp_not_central_cover(m2z3)
        assert x is not None
        e = oracles.o_rp(m2z3, x)
        covers = {oracles.o_central_cover(m2z3, y) for y in range(m2z3.order)}
        assert e not in covers

    def test_commutative_rings_have_none(self, z6):
        assert find_rp_not_central_cover(z6) is None
        assert find_rp_not_central_cover(cached_ring("Z(2)")) is None

    def test_witness_is_lowest_index(self, m2z3):
        x = find_rp_not_central_cover(m2z3)
        covers = {oracles.o_central_cover(m2z3, y) for y in range(m2z3.order)}
        for earlier in range(x):
            e = oracles.o_rp(m2z3, earlier)
            assert e in covers


class TestImplications:
    def test_seven_laws_registered(self):
        assert len(IMPLICATIONS) == 7
        names = [name for name, _ in IMPLICATIONS]
        assert "finite-collapse-rickart-iff-baer" in names

    def test_laws_evaluate_on_verdict_dicts(self):
        base = {
            "proper": True, "semi-proper": True, "reduced": True, "abelian": True,
            "unity": True, "rickart-star": True, "weakly-rickart-star": True,
            "baer-star": True, "quasi-baer-star": True, "pq-baer-star": True,
            "weakly-pq-baer-star": True,
        }
        for name, law in IMPLICATIONS:
            assert law(base) is True, name
        broken = dict(base, **{"rickart-star": True, "baer-star": False})
        assert dict(IMPLICATIONS)["finite-collapse-rickart-iff-baer"](broken) is False
        broken = dict(base, **{"abelian": True, "rickart-star": True, "pq-baer-star": False})
        assert dict(IMPLICATIONS)["abelian-rickart-implies-pq-baer"](broken) is False

    def test_no_violations_on_cyclic_corpus(self):
        descriptors = [parse_ring_expr("Z(%d)" % m) for m in range(2, 31)]
        reports = implication_suite(descriptors)
        assert all(rep.verdict for rep in reports)
        assert len(reports) == 29 * len(IMPLICATIONS)

    def test_no_violations_on_matrix_corpus(self):
        descriptors = [parse_ring_expr("M(2,Z(%d))" % m) for m in range(2, 7)]
        reports = implication_suite(descriptors)
        assert all(rep.verdict for rep in reports)

    def test_zero_multiplication_ring_vacuous(self):
        reports = implication_reports_for(parse_ring_expr("sub(Z(9); 3)"))
        assert all(rep.verdict for rep in reports)


class TestReports:
    def test_classify_all_covers_every_property(self, z6):
        reports = classify_all(z6)
        assert list(reports.keys()) == list(PROPERTY_CLASSIFIERS.keys())

    def test_json_schema(self, z6):
        rep = classify_all(z6)["rickart-star"]
        assert rep.to_json() == {"ring": "Z(6)", "property": "rickart-star", "verdict": True}

    def test_json_includes_witness_on_failure(self):
        rep = PROPERTY_CLASSIFIERS["proper"](cached_ring("sub(Z(9); 3)"))
        j = rep.to_json()
        assert j["verdict"] is False
        assert j["witness"] == {"x": 3}

    def test_star_isomorphic_rings_agree(self):
        a = {k: r.verdict for k, r in classify_all(cached_ring("Z(6)")).items()}
        b = {k: r.verdict for k, r in classify_all(cached_ring("prod(Z(2),Z(3))")).items()}
        assert a == b

    def test_micros_recorded(self, m2z3):
        rep = PROPERTY_CLASSIFIERS["baer-star"](m2z3)
        assert rep.micros >= 0


class _SymmetryScan:
    """A stand-in scan on which every x is its own central cover and
    r(xR) = r(x), so is_weakly_pq_baer_star gets past the biconditional
    and runs its annihilation-symmetry cross-check on ``masks``."""

    def __init__(self, masks):
        self.r_of_aR = self.rann = masks
        self.cover_all = np.arange(len(masks))


class TestAnnihilationSymmetry:
    @pytest.mark.parametrize("text", ["Z(7)", "Z(64)", "Z(150)", "Z(200)"])
    @pytest.mark.parametrize("seed", range(4))
    def test_first_mismatch_is_the_first_in_row_major_order(self, text, seed):
        # a random symmetric bit matrix with a few entries flipped, on
        # either side of the diagonal and past the checker's first row block
        r = cached_ring(text)
        n = r.order
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, size=(n, n)).astype(bool))
        sym = upper | upper.T
        for x, y in rng.integers(n // 2, n, size=(seed, 2)):
            sym[x, y] = not sym[x, y]
        masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in sym]
        diff = np.argwhere(sym != sym.T)
        check = PROPERTY_CLASSIFIERS["weakly-pq-baer-star"]
        if not len(diff):
            assert check(r, _SymmetryScan(masks)).verdict is True
            return
        with pytest.raises(VerificationFailed) as info:
            check(r, _SymmetryScan(masks))
        x, y = (int(v) for v in diff[0])
        assert (info.value.claim, info.value.witness) == ("annihilation-symmetry", (x, y))


class _ClassScan:
    """A stand-in scan with central covers ``covers`` and r(c) = rows[c]
    for each cover c, and r(xR) = r(C(x)), so that is_weakly_pq_baer_star
    gets past the biconditional and checks the symmetry of the bit matrix
    P[x, y] = rows[C(x)] at y on the cover classes."""

    def __init__(self, rows, covers):
        self.rann = rows
        self.cover_all = np.asarray(covers, dtype=np.int64)
        self.r_of_aR = [rows[c] for c in self.cover_all.tolist()]


def _symmetry_outcome(ring, scan):
    """The check's verdict, or the witness of the mismatch it raises."""
    try:
        return PROPERTY_CLASSIFIERS["weakly-pq-baer-star"](ring, scan).verdict
    except VerificationFailed as exc:
        assert exc.claim == "annihilation-symmetry"
        return exc.witness


def _full_transpose_oracle(scan, n):
    """True when P equals its transpose, else its first mismatch in
    row-major order: the n x n comparison the class check stands in for."""
    p = np.array([bool_from_mask(mask, n) for mask in scan.r_of_aR])
    diff = np.argwhere(p != p.T)
    return True if not len(diff) else tuple(int(v) for v in diff[0])


class TestSymmetryOnCoverClasses:
    @pytest.mark.parametrize("text", ["Z(7)", "Z(64)", "Z(150)"])
    @pytest.mark.parametrize("classes", [2, 3, 4, 5])
    @pytest.mark.parametrize("broken", ["none", "constancy", "class-matrix", "both"])
    @pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
    def test_verdict_and_witness_match_the_full_matrix(self, text, classes, broken, late):
        """P is a symmetric class matrix Q blown up over random classes,
        whose covers need not lie in their own class. "constancy" flips
        one row at a non-first member of a class, which leaves Q as it is
        (condition (i) fails); "class-matrix" flips one entry of Q off the
        diagonal (condition (ii) fails). "late" puts the first half of the
        elements in one class, so that the other classes begin past the
        first row blocks."""
        r = cached_ring(text)
        n = r.order
        rng = np.random.default_rng([n, classes, len(broken), late])
        cls = np.concatenate([np.arange(classes), rng.integers(0, classes, n - classes)])
        rng.shuffle(cls)
        if late:
            cls[: n // 2] = 0
            cls[rng.choice(np.arange(n // 2, n), classes - 1, replace=False)] = np.arange(1, classes)
        covers = rng.choice(n, classes, replace=False)
        upper = np.triu(rng.integers(0, 2, size=(classes, classes)).astype(bool))
        q = upper | upper.T
        if broken in ("class-matrix", "both"):
            c, d = rng.choice(classes, 2, replace=False)
            q[c, d] = not q[c, d]
        rows = q[:, cls]  # rows[c] = r(cover c), constant on every class
        if broken in ("constancy", "both"):
            firsts = {int(np.argmax(cls == d)) for d in range(classes)}
            y = int(rng.choice([y for y in range(n) if y not in firsts]))
            c = int(rng.integers(0, classes))
            rows[c, y] = not rows[c, y]
        masks = [0] * n
        for c, row in zip(covers.tolist(), rows):
            masks[c] = mask_from_bool(row)
        scan = _ClassScan(masks, covers[cls])
        want = _full_transpose_oracle(scan, n)
        assert (want is True) is (broken == "none")
        assert _symmetry_outcome(r, scan) == want

    @pytest.mark.parametrize("text", medium_corpus())
    def test_the_ring_classes_give_the_full_matrix_verdict(self, text):
        """The ring's own covers and r(c), r(xR) = r(C(x)) forced so that
        the check runs, against the full P-versus-transpose oracle; where
        x has no cover, C(x) = 0 stands in. Then the ring's own verdict
        against the definitions."""
        ring = cached_ring(text)
        scan = RingScan(ring)
        stand_in = _ClassScan(scan.rann, np.maximum(scan.cover_all, 0))
        assert _symmetry_outcome(ring, stand_in) == _full_transpose_oracle(stand_in, ring.order)
        verdict = PROPERTY_CLASSIFIERS["weakly-pq-baer-star"](ring, scan).verdict
        if ring.order <= 81:
            assert verdict is (oracles.o_weakly_pq_baer(ring) is None)


@pytest.mark.parametrize("text", medium_corpus())
def test_annihilator_witnesses_replay_on_the_oracles(text):
    """A false Rickart*, Baer* or quasi-Baer* verdict names its failure:
    the first x whose r(x) is no eR, or a set, or the generators of an
    ideal, whose annihilator has the reported size and is no eR."""
    ring = cached_ring(text)
    scan = RingScan(ring)
    for prop in ("rickart-star", "baer-star", "quasi-baer-star"):
        rep = PROPERTY_CLASSIFIERS[prop](ring, scan)
        assert rep.verdict or oracles.o_witness_holds(ring, prop, rep.witness), prop
