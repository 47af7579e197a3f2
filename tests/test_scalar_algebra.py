import itertools

import numpy as np
import pytest

from starbench import Limits, build_ring, build_scalar_algebra, parse_ring_expr
from starbench.errors import ActionAxiomViolation, CharacteristicMismatch

import oracles
from conftest import cached_ring


class TestNaturalAction:
    def test_values_are_iterated_addition(self, z6, algebra_of):
        alg = algebra_of("Z(6)", "Z(6)")
        table = oracles.o_action_natural(z6, 6)
        for (lam, a), val in table.items():
            assert alg.act(lam, a) == val

    def test_action_reduces_mod_characteristic(self, algebra_of):
        # char(M2(Z3)) = 3, so lam acts as lam mod 3 even with K = Z(6)
        alg = algebra_of("M(2,Z(3))", "Z(6)")
        for lam in range(6):
            for a in (0, 1, 9, 28, 80):
                assert alg.act(lam, a) == alg.act(lam % 3, a)

    def test_matrix_scaling(self, m2z3, algebra_of):
        alg = algebra_of("M(2,Z(3))", "Z(3)")
        a = m2z3.encode(((1, 2), (0, 1)))
        assert m2z3.decode(alg.act(2, a)) == ((2, 1), (0, 2))

    def test_action_row_matches_pointwise(self, algebra_of):
        alg = algebra_of("Z(6)", "Z(6)")
        for lam in range(6):
            assert list(alg.action_row(lam)) == [alg.act(lam, a) for a in range(6)]


class TestHypothesisFlags:
    def test_field_scalars_are_torsion_free_domain(self, algebra_of):
        alg = algebra_of("M(2,Z(3))", "Z(3)")
        assert alg.torsion_free is True
        assert alg.k_is_domain is True

    def test_z6_scalars_on_matrices(self, algebra_of):
        # 3 annihilates every matrix over Z3, and 2*3 = 0 in Z6
        alg = algebra_of("M(2,Z(3))", "Z(6)")
        assert alg.torsion_free is False
        assert alg.k_is_domain is False
        assert alg.act(3, alg.ring.unity) == 0

    def test_z6_over_itself(self, algebra_of):
        alg = algebra_of("Z(6)", "Z(6)")
        assert alg.torsion_free is False  # 2.3 = 0
        assert alg.k_is_domain is False
        assert alg.act(2, 3) == 0

    def test_prime_cyclic_over_itself(self, algebra_of):
        alg = algebra_of("Z(5)", "Z(5)")
        assert alg.torsion_free is True
        assert alg.k_is_domain is True


class TestGates:
    def test_characteristic_must_divide_modulus(self, algebra_of):
        with pytest.raises(CharacteristicMismatch):
            algebra_of("Z(6)", "Z(4)")

    def test_characteristic_divisor_not_only_equality(self, algebra_of):
        alg = algebra_of("Z(3)", "Z(6)")  # 3 | 6
        assert alg.scalars.order == 6

    def test_noncommutative_scalars_rejected(self, algebra_of):
        with pytest.raises(ActionAxiomViolation) as exc:
            algebra_of("M(2,Z(2))", "M(2,Z(2))")
        assert exc.value.payload()["axiom"] == "scalars-commutative"

    def test_scalars_without_unity_rejected(self, algebra_of):
        with pytest.raises(ActionAxiomViolation) as exc:
            algebra_of("Z(6)", "sub(Z(9); 3)")
        assert exc.value.payload()["axiom"] == "scalars-unital"


class TestExplicitTables:
    def _mul_table_action(self, n):
        return np.array([[(l * a) % n for a in range(n)] for l in range(n)])

    def test_explicit_table_accepted(self, z6):
        alg = build_scalar_algebra(z6, z6, action=self._mul_table_action(6))
        assert alg.act(5, 4) == 2

    def test_corrupted_table_names_the_axiom(self, z6):
        bad = self._mul_table_action(6)
        bad[2, 3] = 1
        with pytest.raises(ActionAxiomViolation) as exc:
            build_scalar_algebra(z6, z6, action=bad)
        payload = exc.value.payload()
        assert payload["axiom"] == "additive-in-scalar"
        assert len(payload["witness"]) == 3

    def test_unit_must_act_as_identity(self, z6):
        bad = self._mul_table_action(6)
        bad[1] = bad[5]  # 1.a becomes 5a
        with pytest.raises(ActionAxiomViolation) as exc:
            build_scalar_algebra(z6, z6, action=bad)
        assert exc.value.payload()["axiom"] == "unit-action"

    def test_explicit_natural_table_matches_builtin_action(self, m2z3):
        z3 = cached_ring("Z(3)")
        tab = np.zeros((3, 81), dtype=int)
        for lam in range(3):
            for a in range(81):
                acc = 0
                for _ in range(lam):
                    acc = m2z3.add(acc, a)
                tab[lam, a] = acc
        alg = build_scalar_algebra(m2z3, z3, action=tab)
        nat = build_scalar_algebra(m2z3, z3, action="natural")
        for lam in range(3):
            assert list(alg.action_row(lam)) == list(nat.action_row(lam))


# --- parity with the lambda-major loops ---------------------------------------

def reference_first_violation(R, K, table):
    """(axiom, decoded witness) of the first action axiom that fails, found
    by loops over lambda, then mu or a, one R-row at a time; None when every
    axiom holds. build_scalar_algebra checks every lambda at once and must
    report exactly this."""
    nk, nr = K.order, R.order
    table64 = np.asarray(table, dtype=np.int64)
    idx_r = np.arange(nr, dtype=np.int64)
    unit_row = table64[K.unity]
    if not np.array_equal(unit_row, idx_r):
        return "unit-action", (R.decode(int(np.argmax(unit_row != idx_r))),)
    for lam in range(nk):
        krow = K.add_row(lam)
        for mu in range(nk):
            neq = table64[int(krow[mu])] != R.add_pairs(table64[lam], table64[mu])
            if neq.any():
                a = int(np.argmax(neq))
                return "additive-in-scalar", (K.decode(lam), K.decode(mu), R.decode(a))
    for lam in range(nk):
        krow = K.mul_row(lam)
        for mu in range(nk):
            neq = table64[int(krow[mu])] != table64[lam][table64[mu]]
            if neq.any():
                a = int(np.argmax(neq))
                return "multiplicative-in-scalar", (K.decode(lam), K.decode(mu), R.decode(a))
    for lam in range(nk):
        lam_row = table64[lam]
        for a in range(nr):
            lhs = lam_row[R.add_row(a)]
            rhs = R.add_pairs(np.full(nr, lam_row[a], dtype=np.int64), lam_row)
            if (lhs != rhs).any():
                b = int(np.argmax(lhs != rhs))
                return "additive-in-element", (K.decode(lam), R.decode(a), R.decode(b))
    for lam in range(nk):
        lam_row = table64[lam]
        for a in range(nr):
            arow = R.mul_row(a)
            lhs = lam_row[arow]
            for axiom, rhs in (
                ("associative-left", R.mul_row(int(lam_row[a]))),
                ("associative-right", arow[lam_row]),
            ):
                if (lhs != rhs).any():
                    b = int(np.argmax(lhs != rhs))
                    return axiom, (K.decode(lam), R.decode(a), R.decode(b))
    rstar, kstar = R.star_vector(), K.star_vector()
    for lam in range(nk):
        neq = rstar[table64[lam]] != table64[int(kstar[lam])][rstar]
        if neq.any():
            return "star-action", (K.decode(lam), R.decode(int(np.argmax(neq))))
    return None


def action_outcome(R, K, table):
    try:
        build_scalar_algebra(R, K, action=table)
    except ActionAxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


CALL_BASED = Limits(table_threshold=0)

# (ring, scalars, limits of the ring) whose natural action tables are corrupted
ACTION_PARITY = [
    ("Z(6)", "Z(6)", None),
    ("M(2,Z(2))", "Z(2)", None),
    ("prod(Z(2),Z(3))", "Z(6)", None),
    ("M(2,Z(2))", "Z(2)", CALL_BASED),
]
# Rings of characteristic 2, tabled and call-based, on which Z(2) x Z(2)
# acts through a split of the identity (see split_actions). The last has
# zero multiplication, and its involution swaps its two generators.
SPLIT_PARITY = [
    (text, limits)
    for text in ("M(2,Z(2))", "prod(Z(2),Z(2))", "sub(M(2,Z(4)); [[0,2],[0,0]])")
    for limits in (None, CALL_BASED)
]


def parity_ring(text, limits):
    return cached_ring(text) if limits is None else build_ring(parse_ring_expr(text), limits)


def natural_table(text, scalars):
    return np.array(build_scalar_algebra(cached_ring(text), cached_ring(scalars)).action)


def corrupted_actions(count, seed):
    """(R, K, table) with one entry of the natural action table changed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        text, scalars, limits = ACTION_PARITY[int(rng.integers(len(ACTION_PARITY)))]
        R, K = parity_ring(text, limits), cached_ring(scalars)
        table = natural_table(text, scalars)
        lam, a = int(rng.integers(K.order)), int(rng.integers(R.order))
        table[lam, a] = (table[lam, a] + int(rng.integers(1, R.order))) % R.order
        yield R, K, table


def split_actions(count, seed):
    """(R, K, table): K = Z(2) x Z(2) acting on R with (1, 0) as a map f
    that fixes 0 and (0, 1) as id - f. f is left or right multiplication
    by a drawn element, the identity on a drawn set and 0 off it, or the
    projection that keeps a drawn subset of R's additive generators (a
    basis in characteristic 2) and kills the rest. Scalar additivity
    always holds; every idempotent f here also passes scalar
    multiplicativity, so the element-side axioms decide."""
    rng = np.random.default_rng(seed)
    K = cached_ring("prod(Z(2),Z(2))")
    for _ in range(count):
        text, limits = SPLIT_PARITY[int(rng.integers(len(SPLIT_PARITY)))]
        R = parity_ring(text, limits)
        n = R.order
        idx = np.arange(n)
        how = int(rng.integers(4))
        if how < 2:
            c = int(rng.integers(n))
            f = R.mul_row(c) if how == 0 else R.mul_col(c)
        elif how == 2:
            f = np.where(rng.integers(2, size=n) == 1, idx, 0)
        else:
            f = np.zeros(n, dtype=np.int64)
            kept = rng.integers(2, size=len(R.generators))
            for bits in itertools.product((0, 1), repeat=len(kept)):
                x = fx = 0  # the sum of the generators in bits, and of the kept ones
                for g, b, k in zip(R.generators, bits, kept):
                    x = R.add(x, g) if b else x
                    fx = R.add(fx, g) if b and k else fx
                f[x] = fx
        # K's index of (l, r) is 2 l + r: 0, (0, 1), (1, 0), (1, 1)
        yield R, K, np.stack([np.zeros(n, dtype=np.int64), R.add_pairs(idx, R.neg_vector()[f]), f, idx])


class TestLambdaLoopParity:
    def test_clean_tables_pass_both(self):
        for text, scalars, limits in ACTION_PARITY:
            R, K = parity_ring(text, limits), cached_ring(scalars)
            table = natural_table(text, scalars)
            assert reference_first_violation(R, K, table) is None
            assert action_outcome(R, K, table) is None

    def test_corrupted_action_tables(self):
        seen = set()
        for R, K, table in corrupted_actions(300, seed=3):
            expected = reference_first_violation(R, K, table)
            assert expected is not None
            assert action_outcome(R, K, table) == expected
            seen.add(expected[0])
        # over a cyclic K the unit and scalar additivity pin the action down
        assert seen == {"unit-action", "additive-in-scalar"}

    def test_split_actions_reach_the_element_side(self):
        seen = set()
        for R, K, table in split_actions(300, seed=4):
            expected = reference_first_violation(R, K, table)
            assert action_outcome(R, K, table) == expected
            seen.add((expected and expected[0], R.has_tables()))
        # the element-side axioms fail on both the tabled and the call-based path
        for axiom in ("additive-in-element", "associative-left", "associative-right", "star-action"):
            assert {(axiom, True), (axiom, False)} <= seen, axiom
