"""The ring-law and star-law scans of validate_star_ring, against brute force.

validate_star_ring proves additive and multiplicative associativity and
distributivity by running the ring-law scans with some coordinates
restricted to an additive generating set G, and star additivity and
anti-multiplicativity by running the star-law scans on {0} and G and on
G x G; it runs a scan over every element only after a hit, to name the
first violating triple or pair. These tests check that the restricted
scans accept clean rings, that G spans (R, +), that each scan names the
first triple over the sets it is given, and that on corrupted tables and
involutions the audit reports exactly the axiom and the witness that a
reference audit over every pair and triple reports.
"""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from starbench import audit, rings, validate_star_ring
from starbench.corpus import medium_corpus
from starbench.errors import AxiomViolation

from conftest import cached_ring

CLEAN = [
    "Z(1)",
    "Z(6)",
    "Z(8)",
    "M(2,Z(2))",
    "M(2,Z(3))",
    "prod(Z(2),Z(3))",
    "sub(Z(9); 3)",
    "prod(Z(4),M(2,Z(2)))",
]

# Rings whose tables the parity test corrupts; small enough for n^3 arrays.
PARITY_RINGS = ["Z(4)", "Z(6)", "Z(8)", "M(2,Z(2))", "prod(Z(2),Z(3))", "prod(Z(2),Z(2))", "sub(Z(9); 3)"]

# the checks of validate_star_ring that run before the ring laws
FIRST_CHECKS = {"zero-identity", "add-commutative", "add-inverse"}
CUBIC_LAWS = {"add-associative", "mul-associative", "left-distributive", "right-distributive"}
STAR_LAWS = {"star-additive", "star-anti-multiplicative"}


def int32_tables(r):
    add, mul = (np.ascontiguousarray(t, dtype=np.int32) for t in oracles.tables(r))
    star = np.ascontiguousarray(r.star_vector(), dtype=np.int32)
    return add, mul, star


def own_tables(r):
    """The ring's own tables, int16 at these orders, and its star."""
    add, mul = r._backend.add_table, r._backend.mul_table
    assert add.dtype == mul.dtype == np.int16
    return add, mul, r.star_vector()


def assert_levels_name_the_generators(r):
    """Level 0 is {0}, and the i-th generator is the lowest element of
    level i, so the levels alone give the audit's G."""
    levels = r.generator_levels
    assert levels[0] == 0 and 0 not in levels[1:]
    tops = [int(np.argmax(levels == i)) for i in range(1, levels.max(initial=0) + 1)]
    assert tops == list(r.generators)


def chain(r):
    """The y set of each z = g_i in the distributivity proof: H_i, the
    span of the first i generators by the oracle's closure, ascending, or
    None where H_i is R."""
    gens = list(r.generators)
    spans = [sorted(oracles.o_additive_closure(r, gens[:i])) for i in range(1, len(gens) + 1)]
    return [h if len(h) < r.order else None for h in spans]


def first_true(bad):
    """Index tuple of the first True entry in C order, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def reference_audit(ring):
    """(axiom, witness indices) of the first check of validate_star_ring that
    fails, with every law evaluated on all pairs or triples at once; None
    when every check holds."""
    n = ring.order
    idx = np.arange(n)
    add, mul = oracles.tables(ring)
    neg = ring.neg_vector()
    star = ring.star_vector()
    x, y, z = idx[:, None, None], idx[None, :, None], idx[None, None, :]

    def law(name, bad):
        hit = first_true(bad)
        return None if hit is None else (name, hit)

    def distributive():
        left = mul[x, add[y, z]] != add[mul[x, y], mul[x, z]]
        right = mul[add[y, z], x] != add[mul[y, x], mul[z, x]]
        hit = first_true(left | right)
        if hit is None:
            return None
        return ("left-distributive" if left[hit] else "right-distributive"), hit

    def unity():
        e = ring.unity
        if e is None or ((mul[e] == idx).all() and (mul[:, e] == idx).all()):
            return None
        return "unity", (e,)

    steps = [
        lambda: law("zero-identity", add[0] != idx),
        lambda: law("add-commutative", add != add.T),
        lambda: law("add-inverse", add[idx, neg] != 0),
        lambda: law("add-associative", add[add[x, y], z] != add[x, add[y, z]]),
        lambda: law("mul-associative", mul[mul[x, y], z] != mul[x, mul[y, z]]),
        distributive,
        lambda: law("star-involutive", star[star] != idx),
        lambda: law("star-additive", star[add] != add[star[:, None], star[None, :]]),
        lambda: law("star-anti-multiplicative", star[mul] != mul[star[None, :], star[:, None]]),
        unity,
    ]
    for step in steps:
        found = step()
        if found is not None:
            return found
    return None


def audit_outcome(ring):
    try:
        validate_star_ring(ring)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


class TestCleanRings:
    @pytest.mark.parametrize("text", CLEAN)
    def test_no_violations_reported(self, text):
        add, mul, star = int32_tables(cached_ring(text))
        gens = cached_ring(text).generators
        assert audit._first_ring_law_violation(add, mul, cached_ring(text).generator_levels) is None
        assert audit._first_ring_law_violation(add, mul) is None
        assert audit._first_star_law_violation(add, mul, star, gens) is None
        assert audit._first_star_law_violation(add, mul, star) is None

    @pytest.mark.parametrize("text", CLEAN + ["M(2,Z(4))"])
    def test_no_violations_on_the_own_narrow_tables(self, text):
        # M(2,Z(4)) has 256 elements: a flat index i * n + j into its
        # tables passes the int16 range; the full scans stay on rings up
        # to 100 elements, where they take milliseconds
        r = cached_ring(text)
        add, mul, star = own_tables(r)
        assert audit._first_ring_law_violation(add, mul, r.generator_levels) is None
        assert audit._first_star_law_violation(add, mul, star, r.generators) is None
        if r.order <= 100:
            assert audit._first_ring_law_violation(add, mul) is None
            assert audit._first_star_law_violation(add, mul, star) is None

    @pytest.mark.parametrize("text", CLEAN)
    def test_generators_span_the_additive_group(self, text):
        add, _, _ = int32_tables(cached_ring(text))
        gens = list(cached_ring(text).generators)
        assert gens == sorted(set(gens)) and 0 not in gens
        reached, todo = {0}, [0]
        while todo:
            a = todo.pop()
            for g in gens:
                b = int(add[a, g])
                if b not in reached:
                    reached.add(b)
                    todo.append(b)
        assert reached == set(range(len(add)))

    @pytest.mark.parametrize("text", CLEAN + ["prod(Z(3),Z(3))", "M(2,Z(4))"])
    def test_levels_give_the_spans_of_the_first_generators(self, text):
        r = cached_ring(text)
        gens, levels = r.generators, r.generator_levels
        assert_levels_name_the_generators(r)
        for i in range(len(gens) + 1):
            span = oracles.o_additive_closure(r, list(gens[:i]))
            assert set(np.flatnonzero(levels <= i)) == span

    @pytest.mark.parametrize(
        "text,expected",
        [("Z(1)", []), ("Z(6)", [1]), ("M(2,Z(3))", [1, 3, 9, 27]), ("prod(Z(4),M(2,Z(2)))", [1, 2, 4, 8, 16])],
    )
    def test_greedy_generators(self, text, expected):
        assert list(cached_ring(text).generators) == expected

    def test_reference_accepts_clean_rings(self):
        for text in CLEAN:
            assert reference_audit(cached_ring(text)) is None, text


def corrupted_rings(count, seed):
    """Rings from tables with one mul entry, or one add entry and its mirror,
    changed, built without the audit (``oracles.unaudited_ring``).
    Keeping + commutative lets most add corruptions reach the associativity
    check."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = cached_ring(PARITY_RINGS[int(rng.integers(len(PARITY_RINGS)))])
        add, mul = oracles.tables(r)
        i, j = (int(v) for v in rng.integers(r.order, size=2))
        shift = int(rng.integers(1, r.order))
        if rng.integers(2) == 0:
            add[i, j] = add[j, i] = (add[i, j] + shift) % r.order
        else:
            mul[i, j] = (mul[i, j] + shift) % r.order
        literals = [r.decode(k) for k in range(r.order)]
        yield oracles.unaudited_ring(add, mul, r.neg_vector(), r.star_vector(), literals)


def assert_audit_matches_reference(bad):
    """Assert that the audit of `bad` reports what the reference reports,
    and return that outcome: None or (axiom, decoded witness)."""
    expected = reference_audit(bad)
    if expected is not None:
        axiom, hit = expected
        expected = (axiom, tuple(bad.decode(i) for i in hit))
    assert audit_outcome(bad) == expected
    return expected


def with_mul(text, mul):
    """The ring `text` with its multiplication replaced by `mul`, built
    without the audit."""
    r = cached_ring(text)
    literals = [r.decode(k) for k in range(r.order)]
    add = oracles.tables(r)[0]
    return oracles.unaudited_ring(add, mul, r.neg_vector(), r.star_vector(), literals)


class TestEachStepOfTheCertificate:
    """Tables built to fail exactly one step: a non-associative +, which
    fails Light's test, an associative * that is not distributive, and a
    bilinear * that is not associative, which only the G^3 step sees."""

    def test_nonassociative_addition(self):
        # Z(4) with 1+1 = 3 and 3+3 = 1: 0, negatives and commutativity
        # survive, but (1+1)+2 != 1+(1+2)
        r = cached_ring("Z(4)")
        add, mul = oracles.tables(r)
        add[1, 1] = 3
        add[3, 3] = 1
        bad = oracles.unaudited_ring(add, mul, r.neg_vector(), r.star_vector())
        mul = np.asarray(mul, dtype=np.int32)
        assert audit._first_ring_law_violation(add, mul, bad.generator_levels) is not None
        assert assert_audit_matches_reference(bad)[0] == "add-associative"

    @pytest.mark.parametrize("text", ["Z(4)", "prod(Z(2),Z(3))", "M(2,Z(2))"])
    @pytest.mark.parametrize("axiom", ["left-distributive", "right-distributive"])
    def test_associative_but_not_distributive(self, text, axiom):
        # x*y = x fails only the left law, x*y = y only the right one
        n = cached_ring(text).order
        idx = np.arange(n)
        mul = np.broadcast_to(idx[:, None] if axiom == "left-distributive" else idx, (n, n))
        assert assert_audit_matches_reference(with_mul(text, mul))[0] == axiom

    def test_bilinear_but_not_associative(self):
        # (x1, x2) * (y1, y2) = (x1 y2, x1 y1) on Z(3) x Z(3)
        x1, x2 = np.divmod(np.arange(9), 3)
        mul = (np.outer(x1, x2) % 3) * 3 + np.outer(x1, x1) % 3
        r = cached_ring("prod(Z(3),Z(3))")
        add, gens, m32 = int32_tables(r)[0], r.generators, mul.astype(np.int32)
        assert audit._first_distrib_violation(add, m32, gens) is None
        assert audit._first_assoc_violation(m32, gens, gens) is not None
        assert assert_audit_matches_reference(with_mul("prod(Z(3),Z(3))", mul))[0] == "mul-associative"


# (ring, exponent e): h(y) = y^e is multiplicative, fixes 0, is not
# additive, and h(h(y)) = h(y), so x*h(y) and h(x)*y are associative
# and y^2 on F3 x F3, whose G is (1, 3), so that H_1 is not R
ONE_SIDED = [("Z(5)", 4), ("Z(7)", 6), ("prod(Z(2),Z(3))", 2), ("prod(Z(3),Z(3))", 2)]


def one_sided_mul(text, h, axiom):
    """x*h(y), which breaks only the left law where h is not additive, or
    h(x)*y, which breaks only the right law; h maps indices to indices."""
    mul = oracles.tables(cached_ring(text))[1]
    idx = np.arange(len(mul))
    return mul[idx[:, None], h] if axiom == "left-distributive" else mul[h[:, None], idx]


def assert_distrib_scans_agree(bad):
    """The scan of the proof along the walk, with z = g_i and y in H_i for
    both laws and x in G for the left one, hits exactly when the scan over
    every triple does; returns the full scan's hit."""
    add, mul, _ = int32_tables(bad)
    gens = bad.generators
    full = audit._first_distrib_violation(add, mul)
    proof = audit._first_distrib_violation(add, mul, gens, (gens, None), chain(bad))
    assert (proof is None) == (full is None)
    return full


class TestOneSidedCorruptions:
    """Near-ring tables over the ring's own additive group that break
    exactly one distributive law: the restricted scans must see either law
    fail."""

    @pytest.mark.parametrize("text,e", ONE_SIDED)
    @pytest.mark.parametrize("axiom", ["left-distributive", "right-distributive"])
    def test_power_maps(self, text, e, axiom):
        r = cached_ring(text)
        power = np.zeros(r.order, dtype=np.int64)  # index of y^e
        for y in range(r.order):
            power[y] = functools.reduce(r.mul, [y] * e)
        bad = with_mul(text, one_sided_mul(text, power, axiom))
        side = 0 if axiom == "left-distributive" else 1
        assert assert_distrib_scans_agree(bad)[0] == side
        # * associates, so the audit's proof on G reaches distributivity
        add, mul, _ = int32_tables(bad)
        assert audit._first_ring_law_violation(add, mul, bad.generator_levels)[0] == axiom
        assert assert_audit_matches_reference(bad)[0] == axiom

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_maps_fixing_zero(self, data):
        # any h with h(0) = 0; an additive h leaves both laws standing
        text = data.draw(st.sampled_from([t for t, _ in ONE_SIDED]))
        n = cached_ring(text).order
        h = np.array([0] + data.draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1)))
        axiom = data.draw(st.sampled_from(["left-distributive", "right-distributive"]))
        bad = with_mul(text, one_sided_mul(text, h, axiom))
        full = assert_distrib_scans_agree(bad)
        assert full is None or full[0] == (0 if axiom == "left-distributive" else 1)
        assert_audit_matches_reference(bad)


def test_corrupted_tables_give_the_reference_axiom_and_witness():
    cases = cubic = 0
    for bad in corrupted_rings(400, seed=1):
        expected = assert_audit_matches_reference(bad)
        cubic += expected is not None and expected[0] in CUBIC_LAWS
        cases += 1
    # the seed must exercise the fallback scans, not just the cheap checks
    assert cases >= 200 and cubic >= cases // 2


def test_restricted_scans_hit_exactly_when_a_ring_law_fails():
    # on every corrupted ring that passes the checks before the ring laws,
    # the scans on G hit exactly when the reference names a ring law
    cases = 0
    for bad in corrupted_rings(400, seed=1):
        expected = reference_audit(bad)
        if expected is not None and expected[0] in FIRST_CHECKS:
            continue
        # also where + is no group law, and its walk reaches 0 again
        assert_levels_name_the_generators(bad)
        add, mul, _ = int32_tables(bad)
        hit = audit._first_ring_law_violation(add, mul, bad.generator_levels)
        assert (hit is not None) == (expected is not None and expected[0] in CUBIC_LAWS)
        narrow = own_tables(bad)
        assert audit._first_ring_law_violation(*narrow[:2], bad.generator_levels) == hit
        if hit is not None:
            assert audit._first_ring_law_violation(*narrow[:2]) == expected
        cases += 1
    assert cases >= 200


def test_own_narrow_tables_name_the_same_witness_on_a_large_ring():
    """Single-entry corruptions of M(2,Z(4)) (256 elements): the scans over
    every triple name the same axiom and witness on the ring's own int16
    tables as on int32 copies, and the audit names it too."""
    r = cached_ring("M(2,Z(4))")
    literals = [r.decode(k) for k in range(r.order)]
    rng = np.random.default_rng(5)
    for _ in range(3):
        add, mul = oracles.tables(r)
        i, j = (int(v) for v in rng.integers(1, r.order, size=2))
        mul[i, j] = (mul[i, j] + int(rng.integers(1, r.order))) % r.order
        bad = oracles.unaudited_ring(add, mul, r.neg_vector(), r.star_vector(), literals)
        narrow, wide = own_tables(bad), int32_tables(bad)
        assert audit._first_ring_law_violation(*narrow[:2], bad.generator_levels) is not None
        hit = audit._first_ring_law_violation(*narrow[:2])
        assert hit is not None and hit == audit._first_ring_law_violation(*wide[:2])
        assert audit_outcome(bad) == (hit[0], tuple(bad.decode(x) for x in hit[1]))


# Rings with at least two nonzero elements outside G
OFF_G_RINGS = ["Z(4)", "Z(6)", "Z(8)", "M(2,Z(2))", "prod(Z(2),Z(3))", "prod(Z(3),Z(3))"]


class TestCommutativityFromTheGenerators:
    """The audit checks g + x == x + g only for g in G; with + associative,
    the elements that commute with everything hold 0 and G and are closed
    under +, so they are R."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_noncommuting_pair_off_the_generators_is_named(self, data):
        # x + y changed for x, y outside {0} and G: the scan on G sees no
        # pair that fails to commute, so Light's test must fail, and the
        # audit names the pair the reference names
        r = cached_ring(data.draw(st.sampled_from(OFF_G_RINGS)))
        off = [v for v in range(1, r.order) if v not in r.generators]
        x, y = data.draw(st.lists(st.sampled_from(off), min_size=2, max_size=2, unique=True))
        add, mul = oracles.tables(r)
        add[x, y] = data.draw(st.sampled_from([v for v in range(r.order) if v != add[x, y]]))
        literals = [r.decode(k) for k in range(r.order)]
        bad = oracles.unaudited_ring(add, mul, r.neg_vector(), r.star_vector(), literals)
        assert audit._first_commute_violation(add, r.generators) is None
        assert assert_audit_matches_reference(bad)[0] == "add-commutative"

    @pytest.mark.parametrize("text", medium_corpus())  # holds the small corpus
    def test_clean_rings_never_scan_every_element(self, text, monkeypatch):
        def fail(*args):
            pytest.fail("the audit of a clean ring ran a scan over every element")

        commute = audit._first_commute_violation
        ring_laws = audit._first_ring_law_violation
        star_laws = audit._first_star_law_violation
        monkeypatch.setattr(audit, "_first_ring_axiom_violation", fail)
        monkeypatch.setattr(
            audit, "_first_commute_violation",
            lambda add, xs=None: fail() if xs is None else commute(add, xs),
        )
        monkeypatch.setattr(
            audit, "_first_ring_law_violation",
            lambda add, mul, levels=None: (
                fail() if levels is None else ring_laws(add, mul, levels)
            ),
        )
        monkeypatch.setattr(
            audit, "_first_star_law_violation",
            lambda add, mul, star, gens=None: (
                fail() if gens is None else star_laws(add, mul, star, gens)
            ),
        )
        r = cached_ring(text)
        report = validate_star_ring(r)
        assert report["checks"][:6] == [
            "zero-identity", "add-commutative", "add-inverse",
            "add-associative", "mul-associative", "distributive",
        ]


def corrupted_stars(count, seed):
    """Rings from tables, built without the audit, whose star is conjugated
    by a transposition t of two nonzero elements, t s t; where t commutes
    with the star s, which leaves it as it is (every ring here but
    M(2,Z(2)) has the identity star), it is composed with it, t s,
    instead. Either way the new star is an involution that fixes 0, so the
    audit gets past the ring laws and star-involutive, and differs from
    the old one."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = cached_ring(PARITY_RINGS[int(rng.integers(len(PARITY_RINGS)))])
        a, b = (int(v) for v in rng.choice(np.arange(1, r.order), size=2, replace=False))
        t = np.arange(r.order)
        t[[a, b]] = b, a
        star = r.star_vector()
        new = t[star[t]] if not np.array_equal(t[star[t]], star) else t[star]
        literals = [r.decode(k) for k in range(r.order)]
        yield oracles.unaudited_ring(*oracles.tables(r), r.neg_vector(), new, literals)


class TestCorruptedInvolutions:
    def test_audit_gives_the_reference_axiom_and_witness(self):
        found = {axiom: 0 for axiom in STAR_LAWS}
        for bad in corrupted_stars(300, seed=3):
            expected = assert_audit_matches_reference(bad)
            if expected is not None:
                found[expected[0]] += 1
        # the seed must reach both star laws, not just one
        assert min(found.values()) >= 20, found

    def test_restricted_scans_hit_exactly_when_a_star_law_fails(self):
        cases = 0
        for bad in corrupted_stars(300, seed=3):
            expected = reference_audit(bad)
            assert expected is None or expected[0] in STAR_LAWS
            add, mul, star = int32_tables(bad)
            hit = audit._first_star_law_violation(add, mul, star, bad.generators)
            assert (hit is None) == (expected is None)
            narrow = own_tables(bad)
            assert audit._first_star_law_violation(*narrow, bad.generators) == hit
            if hit is not None:
                assert audit._first_star_law_violation(*narrow) == expected
            if hit is not None:
                assert hit[0] == expected[0]
                cases += 1
        assert cases >= 100

    def test_zero_ring_runs_both_star_checks(self, monkeypatch):
        # G is empty on the zero ring: the star-additive scan still checks
        # x = 0, and both checks run and are reported
        calls = []

        def record(name):
            scan = getattr(audit, name)

            def recorded(op, star, xs=None):
                calls.append((name, None if xs is None else [int(x) for x in xs]))
                return scan(op, star, xs)

            monkeypatch.setattr(audit, name, recorded)

        record("_first_star_additive_violation")
        record("_first_antimult_violation")
        r = cached_ring("Z(1)")
        assert r.generators == ()
        report = validate_star_ring(r)
        assert {"star-additive", "star-anti-multiplicative"} <= set(report["checks"])
        assert calls == [("_first_star_additive_violation", [0]), ("_first_antimult_violation", [])]


def brute_first(triples, fails):
    """The first triple that fails, in the order given, else None."""
    return next((t for t in triples if fails(*t)), None)


@st.composite
def drawn_tables(draw):
    """(add, mul, n): the tables of a ring of order at most 6 with up to
    three entries changed, or random tables."""
    text = draw(st.sampled_from(["Z(1)", "Z(2)", "Z(4)", "Z(6)", "prod(Z(2),Z(2))", "sub(Z(6); 2)"]))
    add, mul, _ = (np.array(t) for t in int32_tables(cached_ring(text)))
    n = len(add)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        add, mul = rng.integers(0, n, size=(2, n, n)).astype(np.int32)
    else:
        for _ in range(draw(st.integers(0, 3))):
            table = draw(st.sampled_from([add, mul]))
            i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
            table[i, j] = v
    return add, mul, n


def index_sets(n):
    """An ascending index set, or None for every element."""
    return st.none() | st.lists(st.integers(0, n - 1), unique=True).map(sorted)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_scans_name_the_first_triple_over_their_sets(data):
    add, mul, n = data.draw(drawn_tables())
    # blocks of a few rows, so that hits and pruning cross block borders
    block = data.draw(st.integers(1, 4 * n))
    with mock.patch.object(rings, "SCAN_BLOCK", block):
        check_scans(data, add, mul, n)


def check_scans(data, add, mul, n):
    every = range(n)
    table = data.draw(st.sampled_from([add, mul]))
    mids, ends = data.draw(index_sets(n)), data.draw(index_sets(n))
    ys = every if mids is None else mids
    xs = every if ends is None else ends
    expected = brute_first(
        ((x, y, z) for x in xs for y in ys for z in xs),
        lambda x, y, z: table[table[x, y], z] != table[x, table[y, z]],
    )
    # int32 tables, and int16 ones as rings of these orders hold them
    assert audit._first_assoc_violation(table, mids, ends) == expected
    assert audit._first_assoc_violation(table.astype(np.int16), mids, ends) == expected
    zs = data.draw(index_sets(n))
    xs = (data.draw(index_sets(n)), data.draw(index_sets(n)))  # left, right
    # a y set per z, or None for every y at every z
    ys = data.draw(st.none() | st.lists(index_sets(n), min_size=n, max_size=n))
    y_sets = dict(zip(every if zs is None else zs, ys or [None] * n))
    expected = brute_first(
        ((side, x, y, z) for x, y in itertools.product(every, every)
         for z in (every if zs is None else zs) for side in (0, 1)
         if (xs[side] is None or x in xs[side]) and (y_sets[z] is None or y in y_sets[z])),
        lambda side, x, y, z: (
            mul[x, add[y, z]] != add[mul[x, y], mul[x, z]] if side == 0
            else mul[add[y, z], x] != add[mul[y, x], mul[z, x]]
        ),
    )
    if ys is not None:
        ys = ys[: n if zs is None else len(zs)]
    assert audit._first_distrib_violation(add, mul, zs, xs, ys) == expected
    narrow = add.astype(np.int16), mul.astype(np.int16)
    assert audit._first_distrib_violation(*narrow, zs, xs, ys) == expected
