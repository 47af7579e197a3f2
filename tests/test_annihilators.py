import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench import AnnihilatorSet, RingScan, annihilator_family, build_ring, parse_ring_expr
from starbench.annihilators import _intersection_closure, principal_two_sided_ideal
from starbench.bitsets import indices_of
from starbench.config import Limits
from starbench.errors import FamilyCapExceeded
from starbench.rings import _greedy_span

import numpy as np
import oracles
from conftest import cached_ring
from test_call_based import lann_of


def mask_of(elements):
    return sum(1 << e for e in set(elements))


def span_of(ring, elements):
    """Indices of the additive subgroup that ``elements`` generate, by the
    package's one additive-span walk."""
    flags = np.zeros(ring.order, dtype=bool)
    flags[list(elements)] = True
    return np.flatnonzero(_greedy_span(ring.add_pairs, flags)[0]).tolist()


def r_of(ring, elements):
    """Indices of r(S) from the ring's scan, S given by its members."""
    return indices_of(RingScan(ring).r_of(mask_of(elements)))


def l_of(ring, elements):
    """Indices of l(S): the scan's lann met over the members of S."""
    return indices_of(lann_of(RingScan(ring), mask_of(elements)))


class TestPointAnnihilators:
    def test_z6_spec_values(self, z6):
        assert r_of(z6, [2]) == [0, 3]
        assert r_of(z6, [3]) == [0, 2, 4]
        assert r_of(z6, [1]) == [0]

    def test_zero_annihilates_everything(self, z6, m2z3):
        for r in (z6, m2z3):
            assert len(r_of(r, [0])) == r.order
            assert len(l_of(r, [0])) == r.order

    def test_zero_multiplication_ring_whole(self, sub93):
        assert l_of(sub93, range(3)) == [0, 1, 2]
        assert r_of(sub93, range(3)) == [0, 1, 2]

    def test_repeated_members_count_once(self, z6):
        assert r_of(z6, [2, 2, 3]) == r_of(z6, [2, 3]) == sorted(oracles.o_rann(z6, [2, 3]))

    def test_left_right_asymmetry(self, m2z3):
        e12 = m2z3.encode(((0, 1), (0, 0)))
        r_set = set(r_of(m2z3, [e12]))
        l_set = set(l_of(m2z3, [e12]))
        assert r_set != l_set
        assert r_set == oracles.o_rann(m2z3, [e12])
        assert l_set == oracles.o_lann(m2z3, [e12])


class TestSubsetReduction:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
    def test_r_of_set_is_intersection_of_singletons(self, xs):
        z6 = cached_ring("Z(6)")
        combined = set(r_of(z6, xs))
        expected = set(range(6))
        for x in xs:
            expected &= oracles.o_rann(z6, [x])
        assert combined == expected

    @pytest.mark.parametrize("text", ["Z(6)", "M(2,Z(2))", "prod(Z(2),Z(3))", "sub(Z(9); 3)"])
    def test_matches_oracle_on_pairs(self, text):
        r = cached_ring(text)
        for x in range(0, r.order, max(1, r.order // 5)):
            for y in range(0, r.order, max(1, r.order // 3)):
                assert set(r_of(r, [x, y])) == oracles.o_rann(r, [x, y])
                assert set(l_of(r, [x, y])) == oracles.o_lann(r, [x, y])

    def test_annihilator_of_closure_equals_annihilator_of_generators(self, z6):
        gens = [2, 3]
        closure = span_of(z6, gens)
        assert r_of(z6, closure) == r_of(z6, gens)


class TestPrincipalIdeals:
    @pytest.mark.parametrize("text", ["Z(6)", "M(2,Z(2))", "sub(Z(9); 3)", "prod(Z(2),Z(3))"])
    def test_right_ideal_matches_oracle(self, text):
        r = cached_ring(text)
        scan = RingScan(r)
        for a in range(r.order):
            assert set(indices_of(scan.row_sets[a])) == oracles.o_principal_right_ideal(r, a)
            assert set(indices_of(scan.col_sets[a])) == oracles.o_principal_left_ideal(r, a)

    @pytest.mark.parametrize("text", ["Z(6)", "M(2,Z(2))", "sub(Z(9); 3)", "prod(Z(2),Z(3))"])
    def test_two_sided_ideal_matches_oracle(self, text):
        r = cached_ring(text)
        for a in range(r.order):
            assert set(indices_of(principal_two_sided_ideal(r, a))) == (
                oracles.o_principal_two_sided_ideal(r, a)
            )

    def test_ideal_contains_generator_even_without_unity(self, sub93):
        # aR misses a itself here (all products vanish) but (a) must keep it
        assert indices_of(RingScan(sub93).row_sets[1]) == [0]
        assert 1 in indices_of(principal_two_sided_ideal(sub93, 1))


class TestFamily:
    def test_z6_subset_family_exact(self, z6):
        fam = annihilator_family(z6, "subset")
        assert sorted(tuple(indices_of(s.mask)) for s in fam) == [
            (0,),
            (0, 1, 2, 3, 4, 5),
            (0, 2, 4),
            (0, 3),
        ]

    def test_zero_multiplication_family_is_whole_ring_only(self, sub93):
        fam = annihilator_family(sub93, "subset")
        assert [tuple(indices_of(s.mask)) for s in fam] == [(0, 1, 2)]

    def test_matrix_family_members_are_projection_ideals(self, m2z3):
        projections = oracles.o_projections(m2z3)
        ideals = {
            frozenset(oracles.o_right_ideal_of_projection(m2z3, e)) for e in projections
        }
        for s in annihilator_family(m2z3, "subset"):
            assert frozenset(indices_of(s.mask)) in ideals

    def test_modes_coincide_on_commutative_unital(self, z6):
        subset = {s.mask for s in annihilator_family(z6, "subset")}
        two = {s.mask for s in annihilator_family(z6, "two-sided-ideal")}
        assert subset == two

    def test_family_is_deterministic_and_sorted(self, m2z3):
        a = annihilator_family(m2z3, "subset")
        b = annihilator_family(m2z3, "subset")
        assert [s.mask for s in a] == [s.mask for s in b]
        assert [s.mask for s in a] == sorted(s.mask for s in a)

    def test_precomputed_rann_gives_identical_family(self, z6):
        scan = RingScan(z6)
        scan.rann  # filled before the family reads it
        assert [s.mask for s in annihilator_family(z6, "subset")] == [
            s.mask for s in annihilator_family(z6, "subset", scan=scan)
        ]

    def test_unknown_mode_rejected(self, z6):
        with pytest.raises(ValueError):
            annihilator_family(z6, "bogus")

    def test_cap_trips_when_closure_grows(self):
        # seed sets chosen so meets create new masks past the cap
        seeds = [
            AnnihilatorSet(0b0111, (1,)),
            AnnihilatorSet(0b1110, (2,)),
            AnnihilatorSet(0b1011, (3,)),
        ]
        with pytest.raises(FamilyCapExceeded):
            _intersection_closure(seeds, cap=3)
        closed = _intersection_closure(seeds, cap=10)
        assert {s.mask for s in closed} >= {0b0111, 0b1110, 0b1011, 0b0110, 0b0011}

    def test_cap_counts_the_seed_sets(self):
        # Boolean ring of 32 elements: 32 distinct r({x}) and no new meets
        d = parse_ring_expr("prod(Z(2), prod(Z(2), prod(Z(2), prod(Z(2), Z(2)))))")
        with pytest.raises(FamilyCapExceeded):
            annihilator_family(build_ring(d, Limits(family_cap=16)), "subset")
        assert len(annihilator_family(build_ring(d, Limits(family_cap=32)), "subset")) == 32

    def test_intersect_merges_generators(self, z6):
        scan = RingScan(z6)
        a = AnnihilatorSet(scan.rann[2], (2,))
        b = AnnihilatorSet(scan.rann[3], (3,))
        c = a.intersect(b)
        assert c.generators == (2, 3)
        assert indices_of(c.mask) == [0]


class TestAdditiveClosure:
    @pytest.mark.parametrize("text", ["Z(6)", "Z(8)", "prod(Z(2),Z(3))", "M(2,Z(2))"])
    def test_matches_oracle(self, text):
        r = cached_ring(text)
        rng = np.random.default_rng(7)
        for _ in range(5):
            gens = [int(g) for g in rng.integers(0, r.order, size=2)]
            assert set(span_of(r, gens)) == oracles.o_additive_closure(r, gens)

    def test_closure_always_contains_zero(self, z6):
        assert 0 in span_of(z6, [])

    def test_single_generator_gives_cyclic_subgroup(self, z6):
        assert span_of(z6, [2]) == [0, 2, 4]
