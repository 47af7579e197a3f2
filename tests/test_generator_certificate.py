"""The generator certificates of the scalar algebra, kernel N and quotient
audit, against references that loop over every scalar, element and pair.

Every StarRing is a *-ring, so build_scalar_algebra, compute_kernel_N and
_validate_quotient prove their claims on additive generators, and run over
everything only after a hit, to name the witness. Their outcome must be
the references': the axiom and witness of the lambda loop of
test_scalar_algebra when an action fails, and when it holds the kernel of
``oracles.o_kernel_N`` and the cosets of ``oracles.o_quotient_cosets``.
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
from starbench.errors import (
    ActionAxiomViolation,
    InvolutionNotWellDefined,
    StarbenchError,
    VerificationFailed,
)
from starbench.unitify import _validate_quotient

import oracles
from conftest import cached_ring
from test_call_based import _Tabled
from test_scalar_algebra import reference_first_violation

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
    literal, and audited by from_tables."""
    literals = [r.decode(i) for i in range(r.order)]
    return StarRing.from_tables(
        *oracles.tables(r), r.neg_vector(), r.star_vector(), literals, label=r.label
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
        return exc.payload()
    return q.reps.tolist(), q.coset_of_pair.tolist()


def reference_kernel(alg):
    """The oracle's N as sorted pair indices a |K| + lam."""
    R, K, act = alg.ring, alg.scalars, alg.action
    pairs = oracles.o_kernel_N(_Tabled(R), K, lambda lam, x: int(act[lam, x]))
    return sorted(a * K.order + lam for a, lam in pairs)


def reference_quotient(r1, members):
    """The outcome quotient_outcome must give for the kernel ``members``:
    InvolutionNotWellDefined at the first member whose adjoint is not
    one, else the least member of each of the oracle's cosets, ascending,
    and every pair's coset."""
    bad = [u for u in members if r1.star(u) not in set(members)]
    if bad:
        return InvolutionNotWellDefined(r1.decode(bad[0])).payload()
    cosets = oracles.o_quotient_cosets(r1, members)
    coset_of = {p: i for i, c in enumerate(cosets) for p in c}
    return [c[0] for c in cosets], [coset_of[p] for p in range(r1.order)]


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
def test_certificate_matches_the_references(case):
    R, K, table, clean = case
    alg, failure = action_outcome(R, K, table)
    assert failure == reference_first_violation(R, K, table)
    if clean:
        assert failure is None
    if failure is not None:
        return
    members = reference_kernel(alg)
    kern = compute_kernel_N(alg)
    assert (np.flatnonzero(kern.flags).tolist(), kern.size) == (members, len(members))
    assert quotient_outcome(alg) == reference_quotient(build_R1(alg), members)


class TestCertificateIsTaken:
    """A clean action is checked once, on the generators, and never over
    every scalar and element, whether the rings are named by descriptors
    or given by their tables."""

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
        assert calls == [(K.generators, R.generators)]

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
        assert calls == [list(K.generators or (0,))]

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


# natural actions whose kernel N is not closed under *, so the quotient
# raises InvolutionNotWellDefined; drawn_actions, whose clean actions all
# descend, never reaches them. Each N holds several members with u*
# outside N, so the witness must be the first.
STAR_OPEN = [
    ("sub(M(2, Z(4)); [[1,2],[0,0]])", "Z(8)"),
    ("sub(M(2, Z(4)); [[0,2],[0,1]])", "Z(4)"),
    ("sub(M(2, Z(4)); [[2,2],[0,3]])", "Z(4)"),
    ("sub(M(2, Z(4)); [[1,0],[2,2]])", "Z(8)"),
]


@pytest.mark.parametrize("call_based", [False, True])
@pytest.mark.parametrize("text,ktext", STAR_OPEN)
def test_star_open_kernel_names_the_references_witness(text, ktext, call_based):
    alg = build_scalar_algebra(descriptor_ring(text, call_based), cached_ring(ktext))
    r1 = build_R1(alg)
    members = reference_kernel(alg)
    outside = [u for u in members if r1.star(u) not in set(members)]
    assert len({r1.decode(u) for u in outside}) >= 2
    outcome = quotient_outcome(alg)
    assert outcome["type"] == "InvolutionNotWellDefined"
    assert outcome == reference_quotient(r1, members)


def test_kernel_flags_are_read_only():
    kern = compute_kernel_N(build_scalar_algebra(cached_ring("Z(6)"), cached_ring("Z(6)")))
    with pytest.raises(ValueError):
        kern.flags[0] = not kern.flags[0]


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
    assert failure == reference_first_violation(R, K, table)


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
    assert failure == reference_first_violation(R, K, table)


def test_noncommuting_scalars_name_the_first_pair():
    # M(2, Z(2)) is not commutative: the check on its generators hits, and
    # the rerun over every scalar names the first (lam, mu), lam major
    R, K = cached_ring("Z(2)"), cached_ring("M(2, Z(2))")
    with pytest.raises(ActionAxiomViolation) as exc:
        build_scalar_algebra(R, K)
    lam, mu = next(
        (lam, mu) for lam in range(K.order) for mu in range(K.order)
        if K.mul(lam, mu) != K.mul(mu, lam)
    )
    assert exc.value.axiom == "scalars-commutative"
    assert exc.value.witness == (K.decode(lam), K.decode(mu))


def test_zero_scalar_ring_is_checked_at_zero():
    # Z(1) has no additive generators. The table [[0, 1]] passes the unit
    # action (0 is K's unity) and every element-side check, but
    # (0 + 0).1 = 1 while 0.1 + 0.1 = 0.
    R, K = cached_ring("Z(2)"), cached_ring("Z(1)")
    assert K.generators == ()
    table = np.array([[0, 1]], dtype=np.int32)
    _, failure = action_outcome(R, K, table)
    assert failure is not None
    assert failure == reference_first_violation(R, K, table)


def test_quotient_audit_names_the_member_witness():
    # a coset map moved at one pair fails invariance under the generators,
    # and the member loop then names the first (x, h), h major, with
    # x + h outside the coset of x
    alg = build_scalar_algebra(cached_ring("sub(Z(9); 3)"), cached_ring("Z(9)"))
    q = build_quotient(alg)
    r1 = q.r1
    x = int(np.flatnonzero(q.coset_of_pair != 0)[-1])
    moved = q.coset_of_pair.copy()
    moved[x] = 0
    q.coset_of_pair = moved
    with pytest.raises(VerificationFailed) as exc:
        _validate_quotient(q)
    y, h = next(
        (y, h) for h in range(r1.order) if q.kernel.flags[h]
        for y in range(r1.order) if moved[r1.add(y, h)] != moved[y]
    )
    assert exc.value.claim == "quotient-coset-invariant"
    assert exc.value.witness == (r1.decode(y), r1.decode(h))
