import dataclasses
import functools
import hashlib
import json
import random

import numpy as np
import pytest

from starbench import (
    DEFAULT_LIMITS,
    Limits,
    RingScan,
    StarRing,
    build_ring,
    build_scalar_algebra,
    parse_ring_expr,
    build_R1,
    build_quotient,
    check_R1_lemmas,
    compute_kernel_N,
    describe_unitification,
    rp,
    central_cover,
    validate_star_ring,
    verify_unitification,
)
from starbench import rings, unitify
from starbench.cli import main
from starbench.errors import (
    FormulaMismatch,
    HypothesisNotMet,
    InvolutionNotWellDefined,
    NoCentralCover,
    NoGreatestElement,
    NoRightProjection,
    OrderCapExceeded,
    StarbenchError,
    VerificationFailed,
)
from starbench.unitify import (
    _formula_disagreements,
    _formula_failure,
    _formula_table,
)

import oracles
from conftest import cached_ring


@pytest.fixture(scope="module")
def a_z6(algebra_of_module):
    return algebra_of_module("Z(6)", "Z(6)")


@pytest.fixture(scope="session")
def algebra_of_module(algebra_of):
    return algebra_of


class TestPairRing:
    def test_orders_and_unity(self, algebra_of):
        r1 = build_R1(algebra_of("M(2,Z(3))", "Z(3)"))
        assert r1.order == 243
        assert r1.decode(r1.unity) == (((0, 0), (0, 0)), 1)
        r1b = build_R1(algebra_of("Z(6)", "Z(6)"))
        assert r1b.order == 36
        assert r1b.decode(r1b.unity) == (0, 1)

    def test_multiplication_rule(self, z6, algebra_of):
        # (a, lam)(b, mu) = (ab + mu.a + lam.b, lam mu)
        alg = algebra_of("Z(6)", "Z(6)")
        r1 = build_R1(alg)
        for (a, lam, b, mu) in [(2, 3, 4, 5), (1, 0, 0, 1), (5, 5, 5, 5), (3, 2, 2, 3)]:
            lhs = r1.mul(r1.encode((a, lam)), r1.encode((b, mu)))
            first = z6.add(z6.add(z6.mul(a, b), alg.act(mu, a)), alg.act(lam, b))
            assert r1.decode(lhs) == (first, (lam * mu) % 6)

    @pytest.mark.parametrize("rt,kt", [("Z(6)", "Z(6)"), ("sub(Z(9); 3)", "Z(9)")])
    def test_rows_and_columns_follow_the_rule(self, rt, kt, algebra_of):
        # every row and column, computed from the pair op, against the
        # rule evaluated in R and K on the decoded pairs
        alg = algebra_of(rt, kt)
        R, K = alg.ring, alg.scalars
        r1 = build_R1(alg)

        def twisted(x, y):
            (a, lam), (b, mu) = r1.decode(x), r1.decode(y)
            a, lam, b, mu = R.encode(a), K.encode(lam), R.encode(b), K.encode(mu)
            first = R.add(R.add(R.mul(a, b), alg.act(mu, a)), alg.act(lam, b))
            return r1.encode((R.decode(first), K.decode(K.mul(lam, mu))))

        n = r1.order
        rows = np.stack([r1.mul_row(i) for i in range(n)])
        cols = np.stack([r1.mul_col(j) for j in range(n)])
        for i in range(n):
            for j in range(n):
                assert rows[i, j] == cols[j, i] == twisted(i, j), (i, j)

    def test_involution_is_componentwise(self, algebra_of, m2z3):
        alg = algebra_of("M(2,Z(3))", "Z(3)")
        r1 = build_R1(alg)
        pair = r1.encode((((0, 1), (0, 0)), 2))
        assert r1.decode(r1.star(pair)) == (((0, 0), (1, 0)), 2)

    @pytest.mark.parametrize("rt,kt", [("Z(6)", "Z(6)"), ("M(2,Z(3))", "Z(3)"), ("sub(Z(9); 3)", "Z(9)")])
    def test_pair_ring_is_a_star_ring(self, rt, kt, algebra_of):
        rep = validate_star_ring(build_R1(algebra_of(rt, kt)))
        assert rep["ok"] is True

    def test_order_cap(self, algebra_of):
        # 101 * 101 pairs just blow the default cap; raised before any
        # pair table is assembled
        with pytest.raises(OrderCapExceeded) as exc:
            build_R1(algebra_of("Z(101)", "Z(101)"))
        assert exc.value.payload()["order"] == 10201

    def test_cap_is_adjustable(self, algebra_of):
        alg = algebra_of("Z(6)", "Z(6)")
        with pytest.raises(OrderCapExceeded):
            build_R1(alg, DEFAULT_LIMITS.with_element_cap(20))
        assert build_R1(alg, DEFAULT_LIMITS.with_element_cap(40)).order == 36

    def test_characteristic_is_lcm(self, algebra_of):
        assert build_R1(algebra_of("M(2,Z(3))", "Z(6)")).characteristic == 6


class TestKernel:
    def test_unital_ring_kernel_members(self, z6, algebra_of):
        alg = algebra_of("Z(6)", "Z(6)")
        kn = compute_kernel_N(alg)
        assert kn.size == 6
        assert not (kn.flags & ~kn.flags[build_R1(alg).star_vector()]).any()  # N* = N
        # members are exactly (-lam.1, lam)
        expected = {z6.neg(alg.act(lam, z6.unity)) * 6 + lam for lam in range(6)}
        assert set(np.flatnonzero(kn.flags).tolist()) == expected

    def test_zero_multiplication_kernel(self, algebra_of):
        alg = algebra_of("sub(Z(9); 3)", "Z(9)")
        kn = compute_kernel_N(alg)
        # products vanish, so (a, lam) in N iff lam.x = 0 for all x, i.e.
        # lam in {0, 3, 6}; a is unconstrained
        assert set(np.flatnonzero(kn.flags).tolist()) == {
            a * 9 + lam for a in range(3) for lam in (0, 3, 6)
        }

    @pytest.mark.parametrize(
        "rt,kt,limits",
        [
            ("Z(6)", "Z(6)", None),
            ("M(2,Z(3))", "Z(6)", None),
            ("sub(Z(9); 3)", "Z(9)", None),
            ("sub(Z(4); 2)", "Z(2)", None),
            ("M(2,Z(3))", "Z(6)", Limits(table_threshold=0)),
        ],
        ids=["Z(6)-Z(6)", "M(2,Z(3))-Z(6)", "sub(Z(9); 3)-Z(9)", "sub(Z(4); 2)-Z(2)", "M(2,Z(3))-Z(6)-call-based"],
    )
    def test_matches_definition_oracle(self, rt, kt, limits, algebra_of):
        if limits is None:
            alg = algebra_of(rt, kt)
        else:
            ring = build_ring(parse_ring_expr(rt), limits)
            assert not ring.has_tables()
            alg = build_scalar_algebra(ring, cached_ring(kt))
        kn = compute_kernel_N(alg)
        expected = oracles.o_kernel_N(alg.ring, alg.scalars, alg.act)
        assert set(np.flatnonzero(kn.flags).tolist()) == {
            a * alg.scalars.order + lam for (a, lam) in expected
        }

    def test_kernel_size_is_scalar_order_for_unital_rings(self, algebra_of):
        for rt, kt in [("Z(6)", "Z(6)"), ("M(2,Z(3))", "Z(3)"), ("M(2,Z(3))", "Z(6)")]:
            alg = algebra_of(rt, kt)
            assert compute_kernel_N(alg).size == cached_ring(kt).order


class TestQuotient:
    def test_unital_quotient_collapses_to_R(self, algebra_of):
        for rt, kt in [("Z(5)", "Z(5)"), ("Z(6)", "Z(6)"), ("M(2,Z(2))", "Z(2)"),
                       ("prod(Z(2),Z(3))", "Z(6)"), ("sub(Z(6); 2)", "Z(3)")]:
            q = build_quotient(algebra_of(rt, kt))
            assert q.ring.order == cached_ring(rt).order, rt
            embedded = list(q.embed_all())
            assert sorted(embedded) == list(range(q.ring.order))

    def test_nonunital_quotient_shrinks(self, algebra_of):
        q = build_quotient(algebra_of("sub(Z(9); 3)", "Z(9)"))
        assert q.ring.order == 3
        assert q.ring.characteristic == 3
        assert q.ring.unity is not None
        assert list(q.embed_all()) == [0, 0, 0]

    def test_m2z3_over_z6(self, algebra_of):
        q = build_quotient(algebra_of("M(2,Z(3))", "Z(6)"))
        assert q.r1.order == 486
        assert q.kernel.size == 6
        assert q.ring.order == 81

    def test_cosets_match_oracle_partition(self, algebra_of):
        alg = algebra_of("Z(6)", "Z(6)")
        q = build_quotient(alg)
        cosets = oracles.o_quotient_cosets(q.r1, set(np.flatnonzero(q.kernel.flags).tolist()))
        # representatives are the least pair index of each coset
        assert sorted(int(r) for r in q.reps) == sorted(c[0] for c in cosets)
        for coset in cosets:
            assert len({int(q.coset_of_pair[p]) for p in coset}) == 1

    def test_embedding_is_a_star_homomorphism(self, algebra_of):
        for rt, kt in [("Z(6)", "Z(6)"), ("sub(Z(9); 3)", "Z(9)"), ("sub(Z(4); 2)", "Z(2)")]:
            alg = algebra_of(rt, kt)
            q = build_quotient(alg)
            r, qq, emb = alg.ring, q.ring, q.embed_all()
            for a in range(r.order):
                for b in range(r.order):
                    assert emb[r.add(a, b)] == qq.add(emb[a], emb[b])
                    assert emb[r.mul(a, b)] == qq.mul(emb[a], emb[b])
                assert emb[r.star(a)] == qq.star(emb[a])
                assert emb[r.neg(a)] == qq.neg(emb[a])

    def test_embedded_unity_is_quotient_unity(self, algebra_of):
        q = build_quotient(algebra_of("Z(6)", "Z(6)"))
        assert q.embed_all()[cached_ring("Z(6)").unity] == q.ring.unity

    def test_quotient_is_a_valid_star_ring(self, algebra_of):
        for rt, kt in [("Z(6)", "Z(6)"), ("M(2,Z(3))", "Z(6)"), ("sub(Z(9); 3)", "Z(9)")]:
            assert validate_star_ring(build_quotient(algebra_of(rt, kt)).ring)["ok"]

    def test_kernel_not_star_closed_names_its_first_such_member(self, algebra_of):
        # the subring of the [[0, 2b], [2c, d]] in M(2, Z(4)): (e, 0) with
        # e = [[0, 0], [2, 0]] is in N, as e kills every x from the left,
        # but its adjoint is not, as [[0, 2], [0, 0]] does not kill
        # [[0, 0], [0, 1]]; N holds two such members, and the first names
        # the failure
        alg = algebra_of("sub(M(2, Z(4)); [[0,0],[2,1]])", "Z(4)")
        r1 = build_R1(alg)
        members = {a * 4 + lam for a, lam in oracles.o_kernel_N(alg.ring, alg.scalars, alg.act)}
        outside = sorted(u for u in members if r1.star(u) not in members)
        assert len(outside) == 2
        with pytest.raises(InvolutionNotWellDefined) as exc:
            build_quotient(alg)
        assert exc.value.payload() == InvolutionNotWellDefined(r1.decode(outside[0])).payload()

    def test_quotient_unity_coset(self, algebra_of):
        q = build_quotient(algebra_of("M(2,Z(3))", "Z(3)"))
        assert q.ring.decode(q.ring.unity) == (((0, 0), (0, 0)), 1)


def quotient_scans(q):
    """One scan of the quotient and one of R, shared by every coset."""
    return RingScan(q.ring), RingScan(q.algebra.ring)


def formula_check(quot, central):
    """The tabled quotient, the formula table at every coset c (at c* c for
    the rp of a coset that is not self-adjoint) and the one-pass flags."""
    tq = quot.ring.tabled()
    rscan = RingScan(quot.algebra.ring)
    targets = [c if central or tq.star(c) == c else tq.mul(tq.star(c), c) for c in range(tq.order)]
    formula = _formula_table(quot, np.array(targets, dtype=np.int64), rscan, central)
    return tq, formula.tolist(), _formula_disagreements(quot, RingScan(tq), rscan, central)


class TestProjectionFormulas:
    @pytest.mark.parametrize("rt,kt", [("Z(6)", "Z(6)"), ("M(2,Z(3))", "Z(6)"), ("M(2,Z(3))", "Z(3)")])
    def test_rp_formula_agrees_with_brute_force_everywhere(self, rt, kt, algebra_of):
        q = build_quotient(algebra_of(rt, kt))
        assert q.proper  # so every coset is checked, through c* c where c* != c
        tq, formula, flags = formula_check(q, central=False)
        assert formula == [oracles.o_rp(tq, c) for c in range(tq.order)]
        assert not flags.any()

    @pytest.mark.parametrize("rt,kt", [("Z(6)", "Z(6)"), ("M(2,Z(3))", "Z(3)")])
    def test_cover_formula_agrees_with_brute_force_everywhere(self, rt, kt, algebra_of):
        q = build_quotient(algebra_of(rt, kt))
        tq, formula, flags = formula_check(q, central=True)
        assert formula == [oracles.o_central_cover(tq, c) for c in range(tq.order)]
        assert not flags.any()

    def test_rp_preserved_under_embedding(self, z6, algebra_of):
        q = build_quotient(algebra_of("Z(6)", "Z(6)"))
        qscan, rscan = quotient_scans(q)
        emb = q.embed_all()
        expected = [emb[rp(z6, a)] for a in range(6)]
        assert qscan.rp_all[emb].tolist() == expected
        assert _formula_table(q, emb, rscan, central=False).tolist() == expected
        assert not _formula_disagreements(q, qscan, rscan, central=False)[emb].any()

    def test_cover_preserved_under_embedding(self, m2z3, algebra_of):
        q = build_quotient(algebra_of("M(2,Z(3))", "Z(3)"))
        qscan, rscan = quotient_scans(q)
        emb = q.embed_all()
        expected = [emb[central_cover(m2z3, a)] for a in range(81)]
        assert qscan.cover_all[emb].tolist() == expected
        assert _formula_table(q, emb, rscan, central=True).tolist() == expected
        assert not _formula_disagreements(q, qscan, rscan, central=True)[emb].any()


class TestVerification:
    def test_z6_rickart(self, algebra_of):
        rep = verify_unitification(algebra_of("Z(6)", "Z(6)"), mode="rickart")
        assert rep.verdict is True
        assert rep.injective is True
        assert rep.quotient_satisfies is True
        assert rep.formula_agreement is True
        assert sorted(rep.flags) == ["K-not-domain", "torsion-present"]
        assert rep.kernel_order == 6 and rep.quotient_order == 6
        assert sum(row["ok"] for row in rep.preservation) == 6
        assert rep.failures == []

    def test_m2z3_over_z6_rickart(self, algebra_of):
        rep = verify_unitification(algebra_of("M(2,Z(3))", "Z(6)"), mode="rickart")
        assert rep.verdict is True
        assert sorted(rep.flags) == ["K-not-domain", "torsion-present"]
        assert rep.quotient_order == 81
        assert sum(row["ok"] for row in rep.preservation) == 81

    def test_m2z3_over_z3_pqbaer(self, algebra_of):
        rep = verify_unitification(algebra_of("M(2,Z(3))", "Z(3)"), mode="pqbaer")
        assert rep.verdict is True
        assert rep.flags == []
        assert sum(row["ok"] for row in rep.preservation) == 81

    def test_z6_pqbaer(self, algebra_of):
        rep = verify_unitification(algebra_of("Z(6)", "Z(6)"), mode="pqbaer")
        assert rep.verdict is True
        assert sum(row["ok"] for row in rep.preservation) == 6

    def test_hypothesis_gate_blocks_nonrickart_ring(self, algebra_of):
        with pytest.raises(HypothesisNotMet) as exc:
            verify_unitification(algebra_of("sub(Z(9); 3)", "Z(9)"), mode="rickart")
        assert exc.value.payload()["hypothesis"] == "ring is weakly Rickart*"

    @pytest.mark.parametrize(
        "rt,kt,witness",
        [
            ("Z(4)", "Z(4)", {"x": 2, "reason": "biconditional"}),
            ("sub(Z(8); 2)", "Z(8)", {"x": 2, "reason": "no-central-cover"}),
        ],
    )
    def test_hypothesis_gate_blocks_non_pq_baer_ring(self, rt, kt, witness, algebra_of):
        with pytest.raises(HypothesisNotMet) as exc:
            verify_unitification(algebra_of(rt, kt), mode="pqbaer")
        payload = exc.value.payload()
        assert (payload["hypothesis"], payload["witness"]) == ("ring is weakly p.q.-Baer*", witness)

    def test_bad_mode_rejected(self, algebra_of):
        with pytest.raises(ValueError):
            verify_unitification(algebra_of("Z(6)", "Z(6)"), mode="bogus")

    def test_report_json_key_order(self, algebra_of):
        rep = verify_unitification(algebra_of("Z(6)", "Z(6)"), mode="rickart")
        assert list(rep.to_json().keys()) == [
            "mode", "ring", "scalars", "hypotheses", "flags", "kernel_order",
            "quotient_order", "injective", "noninjective_witness",
            "quotient_satisfies", "preservation", "formula_agreement",
            "failures", "verdict",
        ]

    def test_preservation_row_shape(self, algebra_of):
        rep = verify_unitification(algebra_of("Z(6)", "Z(6)"), mode="rickart")
        assert rep.preservation[2] == {"a": 2, "rp_R": 4, "rp_Q": (0, 4), "ok": True}
        pq = verify_unitification(algebra_of("Z(6)", "Z(6)"), mode="pqbaer")
        assert set(pq.preservation[0].keys()) == {"a", "cover_R", "cover_Q", "ok"}


class TestDescribe:
    def test_negative_control(self, algebra_of):
        out = describe_unitification(algebra_of("sub(Z(9); 3)", "Z(9)"))
        assert out["pair_ring_order"] == 27
        assert out["kernel_order"] == 9
        assert out["quotient_order"] == 3
        assert out["injective"] is False
        assert out["noninjective_witness"] == [0, 3]
        assert out["embed_image_size"] == 1
        assert out["quotient_unity"] == (0, 1)

    def test_unital_embedding_injective(self, algebra_of):
        out = describe_unitification(algebra_of("M(2,Z(3))", "Z(6)"))
        assert out["injective"] is True
        assert out["noninjective_witness"] is None
        assert out["embed_image_size"] == 81


class TestLemmas:
    def test_m2z3_over_z3(self, algebra_of):
        out = check_R1_lemmas(algebra_of("M(2,Z(3))", "Z(3)"))
        assert out["ok"] is True
        assert out["elements_checked"] == 81
        assert out["pair_ring_order"] == 243
        assert out["proper_involution_transfers"] is True

    def test_z3_over_z3(self, algebra_of):
        assert check_R1_lemmas(algebra_of("Z(3)", "Z(3)"))["ok"] is True

    def test_torsion_gate_with_witness(self, algebra_of):
        with pytest.raises(HypothesisNotMet) as exc:
            check_R1_lemmas(algebra_of("Z(6)", "Z(6)"))
        payload = exc.value.payload()
        assert payload["hypothesis"] == "the module action is torsion-free"
        assert payload["witness"] == {"lam": 2, "a": 3}

    def test_domain_gate_needs_torsion_free_first(self, algebra_of):
        # M2(Z3) over Z6 has torsion (3.a = 0), reported before the domain gate
        with pytest.raises(HypothesisNotMet) as exc:
            check_R1_lemmas(algebra_of("M(2,Z(3))", "Z(6)"))
        assert exc.value.payload()["hypothesis"] == "the module action is torsion-free"

    # Only the zero ring reaches the domain gate: when |R| > 1, the
    # torsion-free gate before it already gives a domain, as
    # (lam mu).a = lam.(mu.a) != 0 for nonzero lam, mu and a.
    @pytest.mark.parametrize(
        "kt,witness", [("Z(4)", {"lam": 2, "mu": 2}), ("Z(1)", {"order": 1})]
    )
    def test_domain_gate_on_the_zero_ring(self, kt, witness, algebra_of):
        with pytest.raises(HypothesisNotMet) as exc:
            check_R1_lemmas(algebra_of("Z(1)", kt))
        payload = exc.value.payload()
        assert (payload["hypothesis"], payload["witness"]) == (
            "scalars form an integral domain", witness
        )

    def test_nonproper_parent_is_reported_not_fatal(self, algebra_of):
        out = check_R1_lemmas(algebra_of("sub(Z(4); 2)", "Z(2)"))
        assert out["ok"] is True
        assert out["proper_involution_transfers"] is False
        assert out["elements_checked"] == 2


class _RpScan:
    """A stand-in scan: ``rp_all``, the one field of a scan that
    check_R1_lemmas reads."""

    def __init__(self, rp_all):
        self.rp_all = rp_all


def lemmas_with_edited_rps(algebra, monkeypatch, edits):
    """check_R1_lemmas where each ring's rp_all is its real one with
    ``edits[ring.order]`` ({index: new value}) written over it."""

    def scan(ring):
        rp = np.array(RingScan(ring).rp_all, copy=True)
        for i, value in edits.get(ring.order, {}).items():
            rp[i] = value
        return _RpScan(rp)

    monkeypatch.setattr(unitify, "RingScan", scan)
    return check_R1_lemmas(algebra)


class TestLemmaFailures:
    """The three raises of check_R1_lemmas, which no known input reaches,
    reached through stand-in scans and a stand-in properness test on
    Z(3) over Z(3): R has rp_all [0, 1, 1], and the pair ring (order 9,
    pair index a * 3 + lam) has RP((x, 0)) = (rp(x), 0) at index 3 x."""

    def test_the_real_scans_pass(self, algebra_of, monkeypatch):
        out = lemmas_with_edited_rps(algebra_of("Z(3)", "Z(3)"), monkeypatch, {})
        assert (out["ok"], out["elements_checked"]) == (True, 3)

    def test_an_improper_pair_ring_is_named(self, algebra_of, monkeypatch):
        proper = unitify.is_proper_involution

        def improper_pairs(ring):
            report = proper(ring)
            return dataclasses.replace(report, verdict=False) if ring.order == 9 else report

        monkeypatch.setattr(unitify, "is_proper_involution", improper_pairs)
        with pytest.raises(VerificationFailed) as exc:
            check_R1_lemmas(algebra_of("Z(3)", "Z(3)"))
        assert exc.value.payload() == {
            "type": "VerificationFailed",
            "message": "verification failed: proper-involution-transfer "
            "(witness 'pairs(Z(3) over Z(3))')",
            "claim": "proper-involution-transfer",
            "witness": "pairs(Z(3) over Z(3))",
        }

    @pytest.mark.parametrize("pair_rp,named", [(1, (0, 1)), (-1, None)], ids=["moved", "none"])
    def test_a_wrong_pair_projection_is_named(self, pair_rp, named, algebra_of, monkeypatch):
        # RP((2, 0)) moved off (1, 0), and RP((1, 0)) too: the first x is named
        edits = {9: {3 * 2: pair_rp, 3 * 1: pair_rp}}
        with pytest.raises(VerificationFailed) as exc:
            lemmas_with_edited_rps(algebra_of("Z(3)", "Z(3)"), monkeypatch, edits)
        assert exc.value.payload() == {
            "type": "VerificationFailed",
            "message": "verification failed: rp-pair-transfer (witness (1, 1, %r))" % (named,),
            "claim": "rp-pair-transfer",
            "witness": [1, 1, named],
        }

    def test_a_pair_projection_without_one_in_R_is_named(self, algebra_of, monkeypatch):
        # RP(2) taken away in R, while the pair ring keeps RP((2, 0)) = (1, 0)
        with pytest.raises(VerificationFailed) as exc:
            lemmas_with_edited_rps(algebra_of("Z(3)", "Z(3)"), monkeypatch, {3: {2: -1}})
        assert exc.value.payload() == {
            "type": "VerificationFailed",
            "message": "verification failed: rp-pair-transfer-converse (witness (2, (1, 0)))",
            "claim": "rp-pair-transfer-converse",
            "witness": [2, (1, 0)],
        }

    @pytest.mark.parametrize("pair_rp", [-1, 1, 4])
    def test_a_pair_projection_off_R_is_no_converse_failure(self, pair_rp, algebra_of, monkeypatch):
        # with no RP(2) in R, RP((2, 0)) may be absent or have a nonzero
        # scalar, (0, 1) or (1, 1): only a projection (e, 0) contradicts
        edits = {3: {2: -1}, 9: {3 * 2: pair_rp}}
        out = lemmas_with_edited_rps(algebra_of("Z(3)", "Z(3)"), monkeypatch, edits)
        assert (out["ok"], out["elements_checked"]) == (True, 3)


class TestDeterminism:
    def test_rebuild_gives_identical_quotient(self, algebra_of):
        a = build_quotient(algebra_of("M(2,Z(3))", "Z(6)"))
        b = build_quotient(algebra_of("M(2,Z(3))", "Z(6)"))
        assert np.array_equal(a.reps, b.reps)
        assert np.array_equal(a.coset_of_pair, b.coset_of_pair)
        assert np.array_equal(oracles.tables(a.ring)[1], oracles.tables(b.ring)[1])


# --- the built quotient -------------------------------------------------------

def sampled_audit_finds_nothing(quot, seed=9173, size=512):
    """Every member combination of `size` seeded random coset pairs gives
    the quotient's sum and product of the pair, and * maps each coset
    into the coset of its representative's adjoint. True when nothing
    disagrees."""
    q, r1, coset = quot.ring, quot.r1, quot.coset_of_pair
    members = [np.flatnonzero(coset == c) for c in range(q.order)]
    rng = random.Random(seed)
    for _ in range(size):
        i, j = rng.randrange(q.order), rng.randrange(q.order)
        u = np.repeat(members[i], len(members[j]))
        v = np.tile(members[j], len(members[i]))
        if not (coset[r1.mul_pairs(u, v)] == q.mul(i, j)).all():
            return False
        if not (coset[r1.add_pairs(u, v)] == q.add(i, j)).all():
            return False
    star = r1.star_vector()
    return bool(np.array_equal(coset[star], coset[star[quot.reps]][coset]))


@pytest.fixture(scope="module")
def q_m2z6(algebra_of_module):
    return build_quotient(algebra_of_module("M(2,Z(6))", "Z(6)"))


class TestBuiltQuotient:
    """build_quotient's cosets are well defined by construction (its
    docstring): the operations on representatives hold for the members."""

    def test_member_pairs_give_the_operations(self, algebra_of, q_m2z6):
        # M(2, Z(6)) over Z(6): 1296 cosets, with members of both scalars
        assert q_m2z6.ring.order == 1296
        assert sampled_audit_finds_nothing(q_m2z6)
        for rt, kt in [("Z(6)", "Z(6)"), ("sub(Z(9); 3)", "Z(9)"), ("sub(Z(4); 2)", "Z(2)")]:
            assert sampled_audit_finds_nothing(build_quotient(algebra_of(rt, kt)))

    def test_a_moved_member_is_seen(self, q_m2z6):
        # the check itself: one pair moved to another coset breaks it
        moved = q_m2z6.coset_of_pair.copy()
        moved[int(np.flatnonzero(moved == 1)[1])] = 2
        assert not sampled_audit_finds_nothing(
            dataclasses.replace(q_m2z6, coset_of_pair=moved)
        )


# --- the quotient served from tables ---------------------------------------------

# the distinct (R, K) of the benchmark's unitify runs: each unital corpus
# ring over Z(char R), the two constructions, and the one verified pair not
# among them
TABLED_QUOTIENTS = [("Z(%d)" % m, "Z(%d)" % m) for m in range(2, 31)] + [
    ("sub(Z(6); 2)", "Z(3)"),
    ("prod(Z(2), Z(2))", "Z(2)"),
    ("prod(Z(2), Z(3))", "Z(6)"),
    ("prod(Z(3), Z(3))", "Z(3)"),
    ("M(2, Z(2))", "Z(2)"),
    ("M(2, Z(3))", "Z(3)"),
    ("M(2, Z(4))", "Z(4)"),
    ("M(2, Z(5))", "Z(5)"),
    ("M(2, Z(6))", "Z(6)"),
    ("sub(Z(9); 3)", "Z(9)"),
    ("sub(Z(4); 2)", "Z(2)"),
    ("M(2, Z(3))", "Z(6)"),
]


class TestTabledQuotient:
    @pytest.mark.parametrize("rt,kt", TABLED_QUOTIENTS)
    def test_tables_along_generators_match_the_section_ring(self, rt, kt, algebra_of):
        q = build_quotient(algebra_of(rt, kt)).ring
        assert not q.has_tables()
        t = q.tabled()
        assert t.has_tables()
        n = q.order
        idx = np.arange(n)
        own = t._backend
        assert own.add_table.dtype == own.mul_table.dtype == rings.index_dtype(n)
        assert np.array_equal(own.mul_table, q.mul_rows(idx))
        assert np.array_equal(own.add_table, q.add_pairs(idx[:, None], idx))
        assert (t.unity, t.characteristic, t.label) == (q.unity, q.characteristic, q.label)
        assert [t.decode(i) for i in range(n)] == [q.decode(i) for i in range(n)]

    @staticmethod
    def _record_walks(monkeypatch):
        walked = []
        walk = rings._tables_along_generators
        monkeypatch.setattr(
            rings, "_tables_along_generators", lambda ring: walked.append(ring.order) or walk(ring)
        )
        return walked

    def test_only_verify_tables_the_quotient(self, monkeypatch, algebra_of):
        walked = self._record_walks(monkeypatch)
        algebra = algebra_of("M(2,Z(3))", "Z(3)")
        describe_unitification(algebra)
        assert walked == []
        assert verify_unitification(algebra, mode="pqbaer").verdict
        assert walked == [81]

    def test_tables_only_up_to_the_threshold(self, monkeypatch, algebra_of):
        walked = self._record_walks(monkeypatch)
        algebra = algebra_of("M(2,Z(3))", "Z(3)")
        reports = [
            verify_unitification(algebra, "pqbaer", Limits(table_threshold=t)).to_json()
            for t in (81**2 - 1, 81**2)
        ]
        assert walked == [81] and reports[0] == reports[1]

    def test_quotients_over_rings_given_by_tables_are_tabled_alike(self, monkeypatch, algebra_of):
        walked = self._record_walks(monkeypatch)
        r = cached_ring("M(2,Z(3))")
        copy = StarRing.from_tables(
            *oracles.tables(r), r.neg_vector(), r.star_vector(),
            [r.decode(i) for i in range(r.order)], label=r.label,
        )
        algebra = build_scalar_algebra(copy, cached_ring("Z(3)"))
        report = verify_unitification(algebra, mode="pqbaer")
        assert walked == [81]
        assert report.to_json() == verify_unitification(
            algebra_of("M(2,Z(3))", "Z(3)"), mode="pqbaer"
        ).to_json()


# --- the formula check's failure path ----------------------------------------------

def corrupt_quotient_scans(monkeypatch, name, values):
    """Make every scan of a quotient read ``values`` ({coset: index}) in its
    brute-force table ``name`` (``rp_all`` or ``cover_all``); scans of
    other rings are left alone."""
    compute = RingScan.__dict__[name].func

    def corrupted(scan):
        table = compute(scan)
        if scan.ring.label.startswith("unitified("):
            for c, v in values.items():
                table[c] = v
        return table

    prop = functools.cached_property(corrupted)
    prop.__set_name__(RingScan, name)
    monkeypatch.setattr(RingScan, name, prop)


# Z(6) over Z(6): the quotient is Z(6) again, coset c decoding as (0, c).
# Its right projections and covers are [0, 1, 4, 3, 4, 1]; each case
# corrupts the brute-force answer at one or two cosets. The SHA-256 of the
# CLI's JSON output was recorded by the coset-by-coset loop that preceded
# the one-pass check.
FORMULA_FAILURES = [
    (
        "rickart", "rp_all", {5: 3},
        ["preservation", "formula:formula gives (0, 1) but exhaustive search gives (0, 3) at (0, 5)"],
        "375b98e99e0e144d9d5713a8628570c9ea5c403d6454416eaac934a853d1b04e",
    ),
    (
        "pqbaer", "cover_all", {5: 3},
        ["preservation", "formula:formula gives (0, 1) but exhaustive search gives (0, 3) at (0, 5)"],
        "e5df26df44e80d8eb444e9860d811d5704bacc2effab6eba34d16f89b61fa981",
    ),
    (  # the lower of two bad cosets names the failure
        "rickart", "rp_all", {5: 3, 2: -1},
        ["preservation", "formula:no right projection exists for (0, 2)"],
        "7ea97a266a468a857b304b4bcefd61c3315fab268fcb09d6bc66647039658732",
    ),
    (
        "pqbaer", "cover_all", {4: -1, 5: 3},
        ["preservation", "formula:no central cover exists for (0, 4)"],
        "cb6d34c3d0745ce91143188c5ed4c45b1059d673051efca7e4d9db53244437d2",
    ),
]


class TestFormulaFailure:
    @pytest.mark.parametrize("mode,name,values,failures,digest", FORMULA_FAILURES)
    def test_a_corrupted_brute_force_answer_fails_the_formula_check(
        self, monkeypatch, capsys, algebra_of, mode, name, values, failures, digest
    ):
        corrupt_quotient_scans(monkeypatch, name, values)
        rep = verify_unitification(algebra_of("Z(6)", "Z(6)"), mode=mode)
        assert rep.formula_agreement is False
        assert rep.verdict is False
        assert rep.failures == failures
        argv = ["unitify", "Z(6)", "--K", "Z(6)", "--verify", mode, "--format", "json"]
        assert main(argv) == 5
        out = capsys.readouterr().out
        assert json.loads(out)["failures"] == failures
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- the formula route on a quotient that fails it -----------------------------------

@pytest.fixture(scope="module")
def q_m2z4(algebra_of_module):
    """M(2, Z(4)) over Z(4), built without the theorem's gates: its quotient
    has cosets where the formula has no value."""
    return build_quotient(algebra_of_module("M(2,Z(4))", "Z(4)"))


def named(error):
    """The name and payload of an error (a pair already named, or None, as
    it is)."""
    if isinstance(error, StarbenchError):
        return type(error).__name__, error.payload()
    return error


def oracle_formula(quot, c, central):
    """The formula at coset c from the definitions: [p, 0] for p = rp(a)
    (C(a)) when its representative is (a, 0), else [-g, 1] for g the
    greatest (central) projection with a g = (-lam).g; or the name and
    payload of the error where there is no such p or g."""
    alg = quot.algebra
    R, K = alg.ring, alg.scalars
    a, lam = divmod(int(quot.reps[c]), quot.kn)
    if lam == 0:
        p = (oracles.o_central_cover if central else oracles.o_rp)(R, a)
        if p is None:
            return named((NoCentralCover if central else NoRightProjection)(R.decode(a)))
        return int(quot.embed_all()[p])
    cands = (oracles.o_central_projections if central else oracles.o_projections)(R)
    holds = [g for g in cands if R.mul(a, g) == alg.act(K.neg(lam), g)]
    tops = [g for g in holds if all(oracles.o_leq(R, h, g) for h in holds)]
    if not tops:
        return named(NoGreatestElement([R.decode(g) for g in holds]))
    return int(quot.coset_of_pair[R.neg(tops[0]) * quot.kn + K.unity])


def oracle_failures(quot, brute, central, proper=None):
    """The formula check at every coset c of the quotient from the
    definitions, given the brute-force answers ``brute`` (-1 for none):
    the name and payload of the error it fails with, or None where it
    passes or is not made (the rp of a coset that is not self-adjoint, in
    a quotient whose involution is not proper; ``proper`` overrides the
    oracle's verdict on that)."""
    q = quot.ring.tabled()
    if proper is None:
        proper = oracles.o_proper(q) is None

    def check(c):
        if brute[c] < 0:
            return (NoCentralCover if central else NoRightProjection)(q.decode(c))
        target = c
        if not central and q.star(c) != c:
            if not proper:
                return None
            target = q.mul(q.star(c), c)
        formula = oracle_formula(quot, target, central)
        if not isinstance(formula, int):
            return formula
        if formula != brute[c]:
            return FormulaMismatch(q.decode(c), q.decode(formula), q.decode(brute[c]))
        if central:  # r(cQ) = r(C(c))
            killers = oracles.o_rann(q, sorted(oracles.o_right_multiples(q, c)))
            if killers != oracles.o_rann(q, [brute[c]]):
                return VerificationFailed("cover-biconditional", q.decode(c))
        return None

    return [named(check(c)) for c in range(q.order)]


def brute_force_at_zero(q, central):
    """A scan of q whose brute-force answer is the zero coset everywhere,
    so that the check at a coset reaches the formula."""
    scan = RingScan(q)
    scan.__dict__["cover_all" if central else "rp_all"] = np.zeros(q.order, dtype=np.int64)
    return scan


def one_pass_failures(quot, qscan, rscan, central):
    """The name and payload of _formula_failure at every coset that
    _formula_disagreements flags, None at the others."""
    flags = _formula_disagreements(quot, qscan, rscan, central).tolist()
    return [
        named(_formula_failure(quot, c, qscan, rscan, central)) if flag else None
        for c, flag in enumerate(flags)
    ]


class TestFormulaRoute:
    @pytest.mark.parametrize("central", [False, True])
    def test_every_coset_matches_the_definition(self, q_m2z4, central):
        rscan = RingScan(q_m2z4.algebra.ring)
        cosets = np.arange(q_m2z4.ring.order)
        expected = [oracle_formula(q_m2z4, c, central) for c in cosets.tolist()]
        got = _formula_table(q_m2z4, cosets, rscan, central).tolist()
        assert got == [v if isinstance(v, int) else -1 for v in expected]

    def test_the_cosets_without_a_value(self, q_m2z4):
        q, rscan = q_m2z4.ring, RingScan(q_m2z4.algebra.ring)
        cosets = np.arange(q.order)
        formula = _formula_table(q_m2z4, cosets, rscan, central=False)
        assert np.count_nonzero(formula < 0) == 29
        assert (_formula_table(q_m2z4, cosets, rscan, central=True) >= 0).all()
        # at a self-adjoint coset, the check reads the formula at the coset
        failures = one_pass_failures(q_m2z4, brute_force_at_zero(q, False), rscan, False)
        got = {c: failures[c] for c in np.flatnonzero(formula < 0).tolist() if q.star(c) == c}
        assert sorted({v[0] for v in got.values()}) == ["NoGreatestElement", "NoRightProjection"]
        assert got[8] == (
            "NoRightProjection",
            {"type": "NoRightProjection", "message": "no right projection exists for ((0, 0), (0, 2))"},
        )
        name, payload = got[10]
        assert name == "NoGreatestElement"
        assert payload["message"] == (
            "candidate projection set has no greatest element: "
            "[((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 2), (2, 1))]"
        )

    @pytest.mark.parametrize("zeroed", [False, True], ids=["scanned", "zeroed"])
    @pytest.mark.parametrize("tabled", [False, True], ids=["call-based", "tabled"])
    @pytest.mark.parametrize("central", [False, True], ids=["rp", "cover"])
    def test_one_pass_failures_match_the_definition(self, q_m2z4, tabled, central, zeroed):
        q = q_m2z4.ring.tabled() if tabled else q_m2z4.ring
        qscan = brute_force_at_zero(q, central) if zeroed else RingScan(q)
        brute = (qscan.cover_all if central else qscan.rp_all).tolist()
        got = one_pass_failures(q_m2z4, qscan, RingScan(q_m2z4.algebra.ring), central)
        assert got == oracle_failures(q_m2z4, brute, central)
        assert any(got) and not all(got)

    @pytest.mark.parametrize("central", [False, True], ids=["rp", "cover"])
    def test_one_pass_failures_in_a_proper_quotient(self, algebra_of_module, central):
        # M(2, Z(3)) over Z(6) is proper, and 54 of its cosets are not
        # self-adjoint: the check reads their rp off the formula at c* c
        quot = build_quotient(algebra_of_module("M(2,Z(3))", "Z(6)"))
        q = quot.ring.tabled()
        qscan, rscan = brute_force_at_zero(q, central), RingScan(quot.algebra.ring)
        got = one_pass_failures(quot, qscan, rscan, central)
        assert got == oracle_failures(quot, [0] * q.order, central)
        assert {v[0] for v in got if v} == {"FormulaMismatch"}
        assert central or any(v for c, v in enumerate(got) if q.star(c) != c)

    @pytest.mark.parametrize("k", ["Z(4)", "Z(8)"])
    def test_the_rp_check_reads_c_star_c_where_the_involution_is_proper(self, algebra_of_module, k):
        # The formula at c and at c* c agree on every coset of the proper
        # quotients above. M(2, Z(4))'s quotient, taken as proper, has
        # cosets where they differ, and where c* c has no formula value.
        quot = build_quotient(algebra_of_module("M(2,Z(4))", k))
        quot.__dict__["proper"] = True
        q = quot.ring.tabled()
        rscan = RingScan(quot.algebra.ring)
        got = one_pass_failures(quot, brute_force_at_zero(q, False), rscan, False)
        assert got == oracle_failures(quot, [0] * q.order, False, proper=True)
        moved = [v[0] for c, v in enumerate(got) if v and q.star(c) != c]
        assert {"FormulaMismatch", "NoGreatestElement"} <= set(moved)

    @pytest.mark.parametrize("k", ["Z(4)", "Z(8)"])
    def test_the_formula_and_its_candidates_are_one_for_every_lam_nonzero_member(
        self, algebra_of_module, k
    ):
        # (a', l') - (a, l) in N gives (a' - a) g = (l - l').g, so a' g =
        # (-l').g exactly when a g = (-l).g: where both l and l' are
        # nonzero, the qualifying projections, and so [-g, 1], are one
        quot = build_quotient(algebra_of_module("M(2,Z(4))", k))
        greatest = np.zeros(len(quot.reps), dtype=np.int64)
        np.maximum.at(greatest, quot.coset_of_pair, np.arange(len(quot.coset_of_pair)))
        other = dataclasses.replace(quot, reps=greatest)
        both = (quot.reps % quot.kn != 0) & (greatest % quot.kn != 0)
        q, rscan = quot.ring.tabled(), RingScan(quot.algebra.ring)
        cosets = np.arange(q.order)
        for central in (False, True):
            table = _formula_table(quot, cosets, rscan, central)[both]
            assert np.array_equal(_formula_table(other, cosets, rscan, central)[both], table)
        qscan = brute_force_at_zero(q, False)  # the check reads the formula at c
        least, most = (one_pass_failures(x, qscan, rscan, False) for x in (quot, other))
        named_sets = [
            (u, v) for c, u, v in zip(cosets, least, most)
            if both[c] and u and u[0] == "NoGreatestElement"
        ]
        assert named_sets and all(u == v for u, v in named_sets)

    def test_the_first_failure_of_each_check(self, q_m2z4):
        scans = quotient_scans(q_m2z4)
        first = one_pass_failures(q_m2z4, *scans, False)[:3]
        assert first == [None, None, (
            "NoRightProjection",
            {"type": "NoRightProjection", "message": "no right projection exists for (((0, 0), (0, 0)), 2)"},
        )]
        first = one_pass_failures(q_m2z4, *scans, True)[:3]
        assert first == [None, None, (
            "VerificationFailed",
            {
                "type": "VerificationFailed",
                "message": "verification failed: cover-biconditional (witness (((0, 0), (0, 0)), 2))",
                "claim": "cover-biconditional",
                "witness": [((0, 0), (0, 0)), 2],
            },
        )]
