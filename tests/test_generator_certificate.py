"""The generator certificates of the scalar algebra, kernel N and quotient
audit, against the exhaustive passes.

Rings that build_ring makes from a descriptor are lawful, so
build_scalar_algebra, compute_kernel_N and _validate_quotient prove their
claims on additive generators. The same rings rebuilt by
StarRing.from_tables are not lawful and take the exhaustive passes. Both
paths must give the same outcome: the same axiom and witness when an action
fails, and the same kernel, representatives and coset map when it holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench import (
    Limits,
    StarRing,
    build_quotient,
    build_R1,
    build_ring,
    build_scalar_algebra,
    compute_kernel_N,
    parse_ring_expr,
)
from starbench import algebra as algebra_module
from starbench.errors import ActionAxiomViolation, StarbenchError, VerificationFailed
from starbench.unitify import _validate_quotient

from conftest import cached_ring

CALL_BASED = Limits(table_threshold=0)

# (ring, scalars) with the natural action defined, rings of order <= 256
PAIRS = [
    ("Z(6)", "Z(6)"),
    ("Z(4)", "Z(8)"),
    ("sub(Z(9); 3)", "Z(9)"),
    ("sub(Z(4); 2)", "Z(2)"),
    ("sub(Z(6); 2)", "Z(3)"),
    ("prod(Z(2), Z(3))", "Z(6)"),
    ("prod(Z(3), Z(3))", "Z(3)"),
    ("M(2, Z(2))", "Z(2)"),
    ("M(2, Z(2))", "Z(4)"),
    ("M(2, Z(3))", "Z(3)"),
    ("M(2, Z(4))", "Z(4)"),
]


def descriptor_ring(text, call_based):
    if call_based:
        return build_ring(parse_ring_expr(text), CALL_BASED)
    return cached_ring(text)


def table_copy(r):
    """The same ring given by its tables: equal in every operation and
    literal, but not lawful."""
    literals = [r.decode(i) for i in range(r.order)]
    return StarRing.from_tables(
        r.add_table(), r.mul_table(), r.neg_vector(), r.star_vector(), literals, label=r.label
    )


def natural_table(R, K):
    return np.array(build_scalar_algebra(R, K).action)


def action_outcome(R, K, table):
    """(algebra, None) when the action is accepted, else (None, (axiom,
    decoded witness))."""
    try:
        return build_scalar_algebra(R, K, action=table), None
    except ActionAxiomViolation as exc:
        return None, (exc.axiom, exc.witness)


def quotient_outcome(alg):
    try:
        q = build_quotient(alg)
    except StarbenchError as exc:
        return type(exc).__name__, exc.payload()
    return q.reps.tolist(), q.coset_of_pair.tolist()


# rings of characteristic 2, acted on by K = Z(2) x Z(2) through a split
# of the identity: (1, 0) acts as an additive map f and (0, 1) as id - f
SPLIT_RINGS = ["Z(2)", "sub(Z(4); 2)", "prod(Z(2), Z(2))", "M(2, Z(2))"]


def split_table(R, draw):
    """The (4, n) table of Z(2) x Z(2) acting through an additive f: left or
    right multiplication by a drawn element, or drawn images of R's
    additive generators (a basis here) extended additively. Scalar
    additivity and the unit action always hold; the other axioms hold
    exactly when f is a suitable idempotent map."""
    n = R.order
    how = draw(st.sampled_from(["left", "right", "images"]))
    if how == "images":
        images = {g: draw(st.integers(0, n - 1)) for g in R.generators}
        f = np.zeros(n, dtype=np.int64)
        done, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for g, fg in images.items():
                y = R.add(x, g)
                if y not in done:
                    f[y] = R.add(int(f[x]), fg)
                    done.add(y)
                    todo.append(y)
    else:
        c = draw(st.integers(0, n - 1))
        f = R.mul_row(c) if how == "left" else R.mul_col(c)
    idx = np.arange(n)
    # K's index of (l, r) is 2 l + r: 0, (0, 1), (1, 0), (1, 1)
    return np.stack([np.zeros(n, dtype=np.int64), R.add_pairs(idx, R.neg_vector()[f]), f, idx])


@st.composite
def drawn_actions(draw):
    """(R, K, table, clean): a descriptor ring, tabled or call-based, its
    scalars, and the natural action table unchanged (clean), with one or
    two entries changed, or random with the identity as the unit's row; or
    Z(2) x Z(2) acting on a ring of characteristic 2 through a split of the
    identity, which reaches the axioms past scalar additivity."""
    if draw(st.booleans()):
        R = descriptor_ring(draw(st.sampled_from(SPLIT_RINGS)), draw(st.booleans()))
        return R, cached_ring("prod(Z(2), Z(2))"), split_table(R, draw), False
    text, ktext = draw(st.sampled_from(PAIRS))
    R = descriptor_ring(text, draw(st.booleans()))
    K = cached_ring(ktext)
    table = natural_table(R, K)
    kind = draw(st.sampled_from(["clean", "changed", "random"]))
    if kind == "changed":
        for _ in range(draw(st.integers(1, 2))):
            lam = draw(st.integers(0, K.order - 1))
            a = draw(st.integers(0, R.order - 1))
            shift = draw(st.integers(1, max(1, R.order - 1)))
            table[lam, a] = (table[lam, a] + shift) % R.order
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table = rng.integers(0, R.order, size=table.shape)
        table[K.unity] = np.arange(R.order)
    return R, K, table, kind == "clean"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(drawn_actions())
def test_certificate_path_matches_the_exhaustive_path(case):
    R, K, table, clean = case
    Rc, Kc = table_copy(R), table_copy(K)
    # the two paths really differ: the copies are not lawful
    assert R.lawful and K.lawful
    assert not Rc.lawful and not Kc.lawful

    alg, failure = action_outcome(R, K, table)
    alg_c, failure_c = action_outcome(Rc, Kc, table)
    assert failure == failure_c
    if clean:
        assert failure is None
    if failure is not None:
        return
    assert (alg.torsion_free, alg.k_is_domain) == (alg_c.torsion_free, alg_c.k_is_domain)

    kern, kern_c = compute_kernel_N(alg), compute_kernel_N(alg_c)
    assert (kern.mask, kern.size, kern.star_closed) == (kern_c.mask, kern_c.size, kern_c.star_closed)
    assert kern.generators is not None and kern_c.generators is None
    assert quotient_outcome(alg) == quotient_outcome(alg_c)


class TestCertificateIsTaken:
    """A clean action on lawful rings is checked once, on the generators,
    and never over every scalar and element, so the parity test above
    compares two different paths."""

    @pytest.mark.parametrize("text,ktext", PAIRS)
    def test_clean_action_skips_the_exhaustive_passes(self, text, ktext, monkeypatch):
        calls = []
        passes = algebra_module._check_every_axiom

        def record(R, K, table64, scalars=None, elems=None):
            calls.append((scalars, elems))
            passes(R, K, table64, scalars, elems)

        monkeypatch.setattr(algebra_module, "_check_every_axiom", record)
        R, K = cached_ring(text), cached_ring(ktext)
        build_scalar_algebra(R, K)
        assert calls == [(K.generators, R.generators)]
        calls.clear()
        build_scalar_algebra(table_copy(R), K)
        assert calls == [(None, None)]

    @pytest.mark.parametrize("ktext", ["Z(1)", "Z(6)", "Z(8)"])
    def test_commutativity_is_read_on_the_scalar_generators(self, ktext, monkeypatch):
        calls = []
        first = algebra_module._first_noncommuting

        def record(K, scalars):
            calls.append(list(scalars))
            return first(K, scalars)

        monkeypatch.setattr(algebra_module, "_first_noncommuting", record)
        R, K = cached_ring("Z(1)"), cached_ring(ktext)
        table = build_scalar_algebra(R, K).action
        assert calls == [list(K.generators or (0,))]
        calls.clear()
        build_scalar_algebra(R, table_copy(K), action=table)
        assert calls == [list(range(K.order))]

    def test_kernel_generators_span_the_kernel(self):
        alg = build_scalar_algebra(cached_ring("sub(Z(9); 3)"), cached_ring("Z(9)"))
        kern = compute_kernel_N(alg)
        r1 = build_R1(alg)
        reached, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for h in kern.generators:
                y = r1.add(x, h)
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
        assert len(reached) == kern.size == 9


# E21 + E22 in M(2, Z(3)): only additive-in-element reads lam.a for it,
# since G = {E22, E21, E12, E11} is closed under * up to 0 and under the
# transpose, and the scalars Z(3) only multiply G by 0, 1 and 2.
M2Z3_OFF_GENERATORS = ((0, 0), (1, 1))


def test_entry_off_the_generators_is_caught():
    R, K = cached_ring("M(2, Z(3))"), cached_ring("Z(3)")
    assert R.encode(M2Z3_OFF_GENERATORS) not in R.generators
    table = natural_table(R, K)
    a = R.encode(M2Z3_OFF_GENERATORS)
    table[2, a] = R.encode(((0, 0), (1, 1)))  # 2.a = a, not 2a
    _, failure = action_outcome(R, K, table)
    assert failure is not None
    assert failure == action_outcome(table_copy(R), table_copy(K), table)[1]


def test_row_off_the_scalar_generators_is_caught():
    # Z(6)'s additive generators are {1}. The row of 4, replaced by the
    # identity, stays additive in the element, so only the scalar-side
    # checks, taken over every lam, can see it.
    R, K = cached_ring("Z(6)"), cached_ring("Z(6)")
    lam = K.encode(4)
    assert lam not in K.generators
    table = natural_table(R, K)
    table[lam] = np.arange(R.order)
    _, failure = action_outcome(R, K, table)
    assert failure is not None
    assert failure == action_outcome(table_copy(R), table_copy(K), table)[1]


def test_noncommuting_scalars_name_the_same_witness_on_both_paths():
    # M(2, Z(2)) is lawful and not commutative: the check on its generators
    # hits, and the rerun over every scalar names the exhaustive witness
    R, K = cached_ring("Z(2)"), cached_ring("M(2, Z(2))")
    assert K.lawful
    failures = []
    for scalars in (K, table_copy(K)):
        with pytest.raises(ActionAxiomViolation) as exc:
            build_scalar_algebra(R, scalars)
        failures.append((exc.value.axiom, exc.value.witness))
    assert failures[0] == failures[1]
    assert failures[0][0] == "scalars-commutative"


def test_zero_scalar_ring_is_checked_at_zero():
    # Z(1) has no additive generators. The table [[0, 1]] passes the unit
    # action (0 is K's unity) and every element-side check, but
    # (0 + 0).1 = 1 while 0.1 + 0.1 = 0.
    R, K = cached_ring("Z(2)"), cached_ring("Z(1)")
    assert K.generators == ()
    table = np.array([[0, 1]], dtype=np.int32)
    _, failure = action_outcome(R, K, table)
    assert failure is not None
    assert failure == action_outcome(table_copy(R), table_copy(K), table)[1]


def test_quotient_audit_names_the_member_witness():
    # a coset map moved at one pair fails invariance under the generators,
    # and the member loop then names the same witness as without them
    alg = build_scalar_algebra(cached_ring("sub(Z(9); 3)"), cached_ring("Z(9)"))
    q = build_quotient(alg)
    alg_c = build_scalar_algebra(
        table_copy(alg.ring), table_copy(alg.scalars), action=np.array(alg.action)
    )
    q_c = build_quotient(alg_c)
    assert q.kernel.generators is not None and q_c.kernel.generators is None
    x = int(np.flatnonzero(q.coset_of_pair != 0)[-1])
    outcomes = []
    for quot in (q, q_c):
        moved = quot.coset_of_pair.copy()
        moved[x] = 0
        quot.coset_of_pair = moved
        try:
            _validate_quotient(quot)
        except VerificationFailed as exc:
            outcomes.append((exc.claim, exc.payload()))
    assert len(outcomes) == 2 and outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "quotient-coset-invariant"
