import numpy as np
import pytest
from hypothesis import example, given, settings

from starbench import (
    IMPLICATIONS,
    PROPERTY_CLASSIFIERS,
    RingScan,
    StarRing,
    build_ring,
    classify_matrix_ring,
    find_rp_not_central_cover,
    parse_ring_expr,
)
from starbench.bitsets import flags_of, indices_of
from starbench.classifiers import implication_reports_for
from starbench.config import Limits
from starbench.corpus import medium_corpus, small_corpus
from starbench.errors import FamilyCapExceeded

import oracles
from conftest import cached_ring, every_report, m2_subrings


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
        reports = [rep for d in descriptors for rep in implication_reports_for(d)]
        assert all(rep.verdict for rep in reports)
        assert len(reports) == 29 * len(IMPLICATIONS)

    def test_no_violations_on_matrix_corpus(self):
        descriptors = [parse_ring_expr("M(2,Z(%d))" % m) for m in range(2, 7)]
        reports = [rep for d in descriptors for rep in implication_reports_for(d)]
        assert all(rep.verdict for rep in reports)

    def test_zero_multiplication_ring_vacuous(self):
        reports = implication_reports_for(parse_ring_expr("sub(Z(9); 3)"))
        assert all(rep.verdict for rep in reports)


class TestReports:
    def test_every_property_reports(self, z6):
        reports = every_report(z6)
        assert list(reports.keys()) == list(PROPERTY_CLASSIFIERS.keys())

    def test_json_schema(self, z6):
        rep = every_report(z6)["rickart-star"]
        assert rep.to_json() == {"ring": "Z(6)", "property": "rickart-star", "verdict": True}

    def test_json_includes_witness_on_failure(self):
        rep = PROPERTY_CLASSIFIERS["proper"](cached_ring("sub(Z(9); 3)"))
        j = rep.to_json()
        assert j["verdict"] is False
        assert j["witness"] == {"x": 3}

    def test_star_isomorphic_rings_agree(self):
        a = {k: r.verdict for k, r in every_report(cached_ring("Z(6)")).items()}
        b = {k: r.verdict for k, r in every_report(cached_ring("prod(Z(2),Z(3))")).items()}
        assert a == b

    def test_micros_recorded(self, m2z3):
        rep = PROPERTY_CLASSIFIERS["baer-star"](m2z3)
        assert rep.micros >= 0


class _DefinitionScan:
    """A stand-in scan with central covers ``covers`` (-1 for none),
    r(c) = ``rann[c]`` and r(xR) = ``r_of_aR[x]``: the three fields that
    is_weakly_pq_baer_star reads."""

    def __init__(self, rann, covers, r_of_aR):
        self.rann = rann
        self.cover_all = np.asarray(covers, dtype=np.int64)
        self.r_of_aR = r_of_aR


class TestWitnessOfTheDefinition:
    @pytest.mark.parametrize("text", ["Z(7)", "Z(64)", "Z(150)"])
    @pytest.mark.parametrize("broken", ["none", "no-cover", "biconditional", "both", "same-x"])
    @pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
    @pytest.mark.parametrize("seed", range(3))
    def test_verdict_and_witness_are_the_first_failure(self, text, broken, late, seed):
        """Covers drawn from a few classes and r(xR) = r(C(x)), then
        broken: "no-cover" takes one x's cover away, "biconditional" flips
        one bit of one r(xR), "both" does each at its own x, and "same-x"
        does both at one x, where the missing cover is the reason. The
        witness is the first broken x, in index order; "late" draws the
        broken x from the second half of the elements."""
        n = cached_ring(text).order
        rng = np.random.default_rng([n, len(broken), late, seed])
        classes = int(rng.integers(1, 6))
        rann = [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in range(n)]
        covers = rng.choice(n, classes, replace=False)[rng.integers(0, classes, n)]
        r_of_aR = [rann[c] for c in covers.tolist()]
        low = n // 2 if late else 0
        xs = rng.choice(np.arange(low, n), 2, replace=False).tolist()
        reasons = {}
        if broken in ("no-cover", "both", "same-x"):
            covers[xs[0]] = -1
            reasons[xs[0]] = "no-central-cover"
        if broken in ("biconditional", "both", "same-x"):
            x = xs[0] if broken == "same-x" else xs[1]
            r_of_aR[x] ^= 1 << int(rng.integers(0, n))
            reasons.setdefault(x, "biconditional")
        ring = cached_ring(text)
        rep = PROPERTY_CLASSIFIERS["weakly-pq-baer-star"](ring, _DefinitionScan(rann, covers, r_of_aR))
        if not reasons:
            assert (rep.verdict, rep.witness) == (True, None)
            return
        x = min(reasons)
        assert rep.verdict is False
        assert rep.witness == {"x": ring.decode(x), "reason": reasons[x]}


def assert_the_annihilation_symmetry(ring):
    """Weakly p.q.-Baer* has the oracles' verdict, up to order 81. Where it
    holds, xRy = 0 iff yRx = 0, which its definition proves: the bit matrix
    P[x, y] = [y in r(xR)], read off the scan's ``r_of_aR``, equals its
    transpose, and up to order 81 its rows are the oracle's {y : xRy = 0}."""
    scan = RingScan(ring)
    rep = PROPERTY_CLASSIFIERS["weakly-pq-baer-star"](ring, scan)
    holds = rep.verdict
    small = ring.order <= 81
    if small:
        first = oracles.o_weakly_pq_baer(ring)
        assert holds is (first is None)
        if not holds:
            assert rep.witness["x"] == ring.decode(first)
    if not holds:
        return
    p = np.array([flags_of(indices_of(mask), ring.order) for mask in scan.r_of_aR])
    assert np.array_equal(p, p.T)
    if small:
        for x, row in enumerate(p):
            assert set(np.flatnonzero(row).tolist()) == oracles.o_sandwich_killers(ring, x)


@pytest.mark.parametrize("text", list(dict.fromkeys(small_corpus() + medium_corpus())))
def test_weakly_pq_baer_star_rings_have_symmetric_annihilation(text):
    assert_the_annihilation_symmetry(cached_ring(text))


@settings(max_examples=20, deadline=None)
@given(text=m2_subrings())
@example(text="sub(M(2, Z(1)); [[0,0],[0,0]])")
def test_drawn_weakly_pq_baer_star_subrings_have_symmetric_annihilation(text):
    assert_the_annihilation_symmetry(build_ring(parse_ring_expr(text)))


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
