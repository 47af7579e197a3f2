import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench import (
    RingScan,
    build_scalar_algebra,
    central_cover,
    is_weakly_pq_baer_star,
    is_weakly_rickart_star,
    lp,
    rp,
)
from starbench.corpus import medium_corpus, small_corpus
from starbench.errors import (
    NoCentralCover,
    NoLeftProjection,
    NoRightProjection,
)

from starbench import projections
from starbench.projections import largest_eigen_projections

import oracles
from conftest import cached_ring, m2_subrings


def E(ring, rows):
    return ring.encode(rows)


def position(poset, e):
    """The position of projection e among the poset's indices."""
    return int(np.flatnonzero(poset.indices == e)[0])


class TestPoset:
    def test_z6_projections(self, z6):
        p = RingScan(z6).poset
        assert [int(e) for e in p.indices] == [0, 1, 3, 4]
        assert all(bool(c) for c in p.central_flags)

    def test_z2(self):
        p = RingScan(cached_ring("Z(2)")).poset
        assert [int(e) for e in p.indices] == [0, 1]

    def test_m2z3_central_projections_are_zero_and_identity(self, m2z3):
        p = RingScan(m2z3).poset
        centrals = [int(e) for e, c in zip(p.indices, p.central_flags) if c]
        assert centrals == [0, m2z3.unity]
        assert len(p.indices) > 2  # plenty of non-central ones

    @pytest.mark.parametrize("text", ["Z(6)", "M(2,Z(2))", "M(2,Z(3))", "prod(Z(2),Z(3))"])
    def test_matches_oracle(self, text):
        r = cached_ring(text)
        p = RingScan(r).poset
        assert [int(e) for e in p.indices] == oracles.o_projections(r)
        assert [int(e) for e, c in zip(p.indices, p.central_flags) if c] == (
            oracles.o_central_projections(r)
        )

    @pytest.mark.parametrize("text", ["Z(6)", "M(2,Z(2))", "M(2,Z(3))"])
    def test_order_agrees_with_both_sided_definition(self, text):
        r = cached_ring(text)
        p = RingScan(r).poset
        for e in p.indices:
            for f in p.indices:
                leq = p.leq[position(p, e), position(p, f)]
                assert bool(leq) == oracles.o_leq(r, int(e), int(f))

    def test_order_is_a_partial_order(self, m2z3):
        p = RingScan(m2z3).poset
        k = len(p.indices)
        for i in range(k):
            assert p.leq[i, i]
            for j in range(k):
                if p.leq[i, j] and p.leq[j, i]:
                    assert i == j
                for l in range(k):
                    if p.leq[i, j] and p.leq[j, l]:
                        assert p.leq[i, l]


class TestRightProjection:
    def test_z6_example(self, z6):
        assert rp(z6, 2) == 4

    def test_matrix_unit_example(self, m2z3):
        e12 = E(m2z3, ((0, 1), (0, 0)))
        e22 = E(m2z3, ((0, 0), (0, 1)))
        assert rp(m2z3, e12) == e22

    def test_projections_are_their_own(self, z6, m2z3):
        for r in (z6, m2z3):
            for e in oracles.o_projections(r):
                assert rp(r, e) == e

    @pytest.mark.parametrize("text", ["Z(6)", "Z(8)", "M(2,Z(2))", "M(2,Z(3))", "prod(Z(2),Z(3))", "sub(Z(6); 2)"])
    def test_matches_oracle_everywhere_defined(self, text):
        r = cached_ring(text)
        for x in range(r.order):
            expected = oracles.o_rp(r, x)
            if expected is None:
                with pytest.raises(NoRightProjection):
                    rp(r, x)
            else:
                assert rp(r, x) == expected

    def test_zero_multiplication_ring_has_none(self, sub93):
        with pytest.raises(NoRightProjection) as exc:
            rp(sub93, 1)
        assert "3" in exc.value.payload()["message"]

    def test_scan_cache_gives_same_answers(self, z6):
        scan = RingScan(z6)
        assert [rp(z6, x, scan) for x in range(6)] == [rp(z6, x) for x in range(6)]


class TestLeftProjection:
    def test_z6_example(self, z6):
        assert lp(z6, 3) == 3

    def test_matrix_unit_example(self, m2z3):
        e12 = E(m2z3, ((0, 1), (0, 0)))
        e11 = E(m2z3, ((1, 0), (0, 0)))
        assert lp(m2z3, e12) == e11

    def test_zero(self, z6):
        assert lp(z6, 0) == 0

    @pytest.mark.parametrize("text", ["Z(6)", "M(2,Z(3))", "prod(Z(2),Z(3))"])
    def test_mirror_identity(self, text):
        r = cached_ring(text)
        for x in range(r.order):
            assert lp(r, x) == r.star(rp(r, r.star(x)))

    def test_matches_oracle(self, m2z3):
        for x in range(m2z3.order):
            assert lp(m2z3, x) == oracles.o_lp(m2z3, x)

    def test_zero_multiplication_ring_has_none(self, sub93):
        with pytest.raises(NoLeftProjection):
            lp(sub93, 2)


class TestRpOfStarSquare:
    """rp(x*x) = rp(x) on a ring with a proper involution."""

    def test_matrix_unit(self, m2z3):
        e12 = E(m2z3, ((0, 1), (0, 0)))
        e21 = E(m2z3, ((0, 0), (1, 0)))
        e22 = E(m2z3, ((0, 0), (0, 1)))
        assert m2z3.star(e12) == e21 and m2z3.mul(e21, e12) == e22
        assert rp(m2z3, e22) == rp(m2z3, e12) == e22

    @pytest.mark.parametrize("text", ["Z(6)", "Z(5)", "M(2,Z(3))", "prod(Z(2),Z(3))"])
    def test_agrees_with_rp_elementwise(self, text):
        # the identity rp(x) = rp(x*x) needs a proper involution, which all
        # of these rings have (squarefree moduli, matrices over Z3)
        r = cached_ring(text)
        scan = RingScan(r)
        xs = np.arange(r.order)
        assert (scan.rp_all[r.mul_pairs(r.star_vector(), xs)] == scan.rp_all).all()
        assert (scan.rp_all >= 0).all()


class TestCentralCover:
    def test_matrix_corner_needs_identity(self, m2z3):
        e11 = E(m2z3, ((1, 0), (0, 0)))
        assert central_cover(m2z3, e11) == m2z3.unity

    def test_zero(self, z6):
        assert central_cover(z6, 0) == 0

    def test_product_component(self):
        r = cached_ring("prod(Z(3),Z(3))")
        x = r.encode((1, 0))
        assert central_cover(r, x) == x

    @pytest.mark.parametrize("text", ["Z(6)", "M(2,Z(3))", "prod(Z(2),Z(3))", "M(2,Z(2))"])
    def test_matches_oracle(self, text):
        r = cached_ring(text)
        for x in range(r.order):
            expected = oracles.o_central_cover(r, x)
            if expected is None:
                with pytest.raises(NoCentralCover):
                    central_cover(r, x)
            else:
                assert central_cover(r, x) == expected

    def test_cover_is_least_fixing_central_projection(self, m2z3):
        for x in (0, 1, 28, 40, 80):
            h = central_cover(m2z3, x)
            assert oracles.o_is_central(m2z3, h)
            assert m2z3.mul(h, x) == x
            for k in oracles.o_central_projections(m2z3):
                if m2z3.mul(k, x) == x:
                    assert oracles.o_leq(m2z3, h, k)

    def test_zero_multiplication_ring_has_none(self, sub93):
        with pytest.raises(NoCentralCover):
            central_cover(sub93, 1)


def oracle_extremum(ring, members, greatest):
    """The greatest (least) of the projections ``members`` under o_leq,
    or None."""
    for g in members:
        if all(oracles.o_leq(ring, *((h, g) if greatest else (g, h))) for h in members):
            return g
    return None


class TestExtremum:
    @pytest.mark.parametrize("text", ["M(2,Z(3))", "M(2,Z(4))", "prod(Z(2),Z(3))"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_the_order_oracle(self, text, data):
        r = cached_ring(text)
        poset = RingScan(r).poset
        positions = data.draw(
            st.sampled_from([np.arange(len(poset)), poset.central_positions()])
        )
        m = len(positions)
        rows = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), max_size=6))
        member = np.array(rows, dtype=bool).reshape(len(rows), m)
        for greatest in (True, False):
            got = poset.extremum(member, greatest, positions)
            for row, pos in zip(member, got.tolist()):
                members = [int(e) for e in poset.indices[positions[row]]]
                want = oracle_extremum(r, members, greatest)
                assert pos == (-1 if want is None else position(poset, want))

    def test_blocks_do_not_change_the_answer(self, monkeypatch):
        # every downward-closed set of M(2, Z(4))'s projections, and every
        # set of two, with one row to a block
        r = cached_ring("M(2,Z(4))")
        poset = RingScan(r).poset
        p = len(poset)
        member = np.concatenate([poset.leq.T, np.eye(p, dtype=bool) | np.roll(np.eye(p, dtype=bool), 1, axis=1)])
        whole = [poset.extremum(member, g).tolist() for g in (True, False)]
        monkeypatch.setattr(projections, "SCAN_BLOCK", 1)
        assert [poset.extremum(member, g).tolist() for g in (True, False)] == whole
        assert whole[0][:p] == list(range(p))  # f is the greatest of its down-set
        assert whole[1][:p] == [0] * p  # and 0 the least


def largest(alg, a, lam, central_only=False):
    """largest_eigen_projections at the one pair (a, lam)."""
    return int(largest_eigen_projections(alg, [a], [lam], central_only)[0])


class TestLargestEigenProjections:
    def test_z6_example(self, algebra_of):
        assert largest(algebra_of("Z(6)", "Z(6)"), a=3, lam=5) == 3

    def test_identity_matrix(self, m2z3, algebra_of):
        alg = algebra_of("M(2,Z(3))", "Z(3)")
        assert largest(alg, a=m2z3.unity, lam=1) == m2z3.unity

    def test_zero_element_torsion_free(self, algebra_of):
        alg = algebra_of("M(2,Z(3))", "Z(3)")
        assert largest_eigen_projections(alg, [0, 0], [1, 2]).tolist() == [0, 0]

    def test_zero_element_with_torsion(self, algebra_of):
        # 3 acts as zero on M2(Z3), so every projection satisfies 0.g = 3.g
        alg = algebra_of("M(2,Z(3))", "Z(6)")
        assert largest(alg, a=0, lam=3) == alg.ring.unity

    def test_central_variant_restricts_candidates(self, m2z3, algebra_of):
        alg = algebra_of("M(2,Z(3))", "Z(3)")
        e11 = E(m2z3, ((1, 0), (0, 0)))
        # e11 . g = 1 . g has greatest solution e11 among all projections,
        # but among central ones only 0 survives
        assert largest(alg, a=e11, lam=1) == e11
        assert largest(alg, a=e11, lam=1, central_only=True) == 0

    def test_no_greatest_element_is_minus_one(self, algebra_of):
        alg = algebra_of("M(2,Z(4))", "Z(4)")
        r = alg.ring
        cands = [g for g in oracles.o_projections(r) if r.mul(2, g) == alg.act(2, g)]
        assert len(cands) > 2
        assert not any(all(oracles.o_leq(r, h, g) for h in cands) for g in cands)
        assert largest(alg, a=2, lam=2) == -1

    def test_definition_directly(self, algebra_of):
        alg = algebra_of("Z(6)", "Z(6)")
        r = alg.ring
        expected = []
        for a in range(6):
            for lam in range(1, 6):
                cands = [
                    g
                    for g in oracles.o_projections(r)
                    if r.mul(a, g) == alg.act(lam, g)
                ]
                tops = [g for g in cands if all(oracles.o_leq(r, h, g) for h in cands)]
                expected.append(tops[0] if tops else -1)
        a, lam = np.divmod(np.arange(30), 5)
        assert largest_eigen_projections(alg, a, lam + 1).tolist() == expected


# Conditions (3) and (beta) ask, for each nonzero lam, for one projection
# above LP(x) (C(x)) for every x with lam.x = 0. The gates of
# verify_unitification decide them: in a weakly Rickart* ring every two
# projections e and f lie below the projection e + RP(f - fe), and in any
# ring every two central projections h and k lie below h + k - hk, so every
# finite set of them has an upper bound.
THEOREM_RINGS = list(dict.fromkeys(small_corpus() + medium_corpus()))


def assert_upper_bounds(ring, poset, e, f, g):
    """Elementwise, g is a projection with e <= g and f <= g."""
    assert np.isin(g, poset.indices).all()
    assert (ring.mul_pairs(e, g) == e).all() and (ring.mul_pairs(f, g) == f).all()


def assert_joins(ring):
    """On a weakly Rickart* ring, g = e + RP(f - fe), read from rp_all, is
    an upper bound of every pair of projections e, f; on any ring,
    h + k - hk is one of every pair of central projections h, k."""
    scan = RingScan(ring)
    poset, neg = scan.poset, ring.neg_vector()

    def pairs(ps):
        return np.repeat(ps, len(ps)), np.tile(ps, len(ps))

    if is_weakly_rickart_star(ring, scan).verdict:
        e, f = pairs(poset.indices)
        p = scan.rp_all[ring.add_pairs(f, neg[ring.mul_pairs(f, e)])]
        assert_upper_bounds(ring, poset, e, f, ring.add_pairs(e, p))
    h, k = pairs(poset.indices[poset.central_positions()])
    g = ring.add_pairs(ring.add_pairs(h, k), neg[ring.mul_pairs(h, k)])
    assert_upper_bounds(ring, poset, h, k, g)


class TestTheGatesDecideTheConditions:
    @pytest.mark.parametrize("text", THEOREM_RINGS)
    def test_corpus_rings(self, text):
        assert_joins(cached_ring(text))

    @settings(max_examples=40, deadline=None)
    @given(m2_subrings())
    def test_drawn_subrings(self, text):
        assert_joins(cached_ring(text))

    @pytest.mark.parametrize(
        "text", [t for t in small_corpus() if cached_ring(t).order <= 100]
    )
    @pytest.mark.parametrize("times", [1, 2], ids=["Z(c)", "Z(2c)"])
    def test_oracle_conditions_hold_past_the_gates(self, text, times):
        ring = cached_ring(text)
        scan = RingScan(ring)
        alg = build_scalar_algebra(ring, cached_ring("Z(%d)" % (times * ring.characteristic)))
        if is_weakly_rickart_star(ring, scan).verdict:
            assert None not in oracles.o_condition3(alg).values()
        if is_weakly_pq_baer_star(ring, scan).verdict:
            assert None not in oracles.o_condition_beta(alg).values()
