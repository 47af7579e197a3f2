"""The coset walk of rings._greedy_span, the one additive-subgroup primitive.

The additive spans of the annihilator and ideal code, the greedy generators
of every ring and the kernel N's closure check all run on it. Random member sets on small-corpus rings,
tabled and call-based, must give the oracle's span, a greedy G inside the
members, and a span equal to the members exactly when they are closed
under +. On corrupted tables, where + is no group law but 0 is still its
identity, the walk must stay sound for the ring-law certificate: it flags
only left-normed sums over G, and it flags every member. A kernel N that
is not closed under + must be named by the first sum outside it, as the
oracle's N gives it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cached_ring
from starbench import build_ring, parse_ring_expr
from starbench.algebra import ScalarAlgebra
from starbench.config import Limits
from starbench.corpus import small_corpus
from starbench.errors import VerificationFailed
from starbench.rings import _greedy_span
from starbench.unitify import compute_kernel_N
from test_axiom_certificate import corrupted_rings

SMALL = small_corpus()
CALL_BASED = Limits(table_threshold=0)


def zero_is_the_identity(ring):
    """0 + x = x = x + 0 for every x: the walk's premise, which the audit
    checks before it reads G."""
    idx = np.arange(ring.order)
    return bool((ring.add_pairs(0, idx) == idx).all() and (ring.add_pairs(idx, 0) == idx).all())


CORRUPTED = [bad for bad in corrupted_rings(60, seed=2) if zero_is_the_identity(bad)]


def ring_for(index, call_based):
    text = SMALL[index]
    if call_based:
        return build_ring(parse_ring_expr(text), CALL_BASED)
    return cached_ring(text)


def closed_under_add(ring, flags):
    members = np.flatnonzero(flags)
    u = np.repeat(members, len(members))
    v = np.tile(members, len(members))
    return bool(flags[ring.add_pairs(u, v)].all())


def left_normed_sums(add_pairs, gens, n):
    """Every (...((0 + g1) + g2) ...) + gk with each gi in G, in any order."""
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.array([0], dtype=np.int64)
    g = np.array(gens, dtype=np.int64)
    while len(frontier) and len(g):
        sums = add_pairs(np.repeat(frontier, len(g)), np.tile(g, len(frontier)))
        hit = np.zeros(n, dtype=bool)
        hit[sums] = True
        frontier = np.flatnonzero(hit & ~reached)
        reached |= hit
    return reached


@st.composite
def member_sets(draw):
    """(ring, flags): a few random elements of a small-corpus ring, or the
    subgroup they generate, so that closed sets come up often."""
    ring = ring_for(draw(st.integers(0, len(SMALL) - 1)), draw(st.booleans()))
    picks = draw(st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=6))
    if draw(st.booleans()):
        picks = sorted(oracles.o_additive_closure(ring, picks))
    flags = np.zeros(ring.order, dtype=bool)
    flags[picks] = True
    return ring, flags


@settings(deadline=None, max_examples=150)
@given(member_sets())
def test_walk_spans_the_generated_subgroup(case):
    ring, flags = case
    span, gens = _greedy_span(ring.add_pairs, flags)
    members = np.flatnonzero(flags)
    assert span.dtype == bool and span.shape == flags.shape
    assert set(np.flatnonzero(span)) == oracles.o_additive_closure(ring, members.tolist())
    assert gens == sorted(set(gens)) and 0 not in gens
    assert all(flags[g] for g in gens)
    assert np.array_equal(span, flags) == closed_under_add(ring, flags)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, len(CORRUPTED) - 1), st.data())
def test_walk_is_sound_on_corrupted_tables(index, data):
    bad = CORRUPTED[index]
    picks = data.draw(st.lists(st.integers(0, bad.order - 1), min_size=1, max_size=bad.order))
    flags = np.zeros(bad.order, dtype=bool)
    flags[picks] = True
    span, gens = _greedy_span(bad.add_pairs, flags)
    assert gens == sorted(set(gens)) and 0 not in gens
    assert all(flags[g] for g in gens)
    assert span[flags].all()
    assert not (span & ~left_normed_sums(bad.add_pairs, gens, bad.order)).any()


def test_open_kernel_names_the_first_sum_outside_it():
    # Z(3) acting on Z(3) by lam.x = f(lam) x with f = (0, 1, 1): additive
    # in x, so the generators of R decide N = {(-f(lam), lam)}, but not in
    # lam, so N is not closed under +: (2, 1) + (2, 1) = (1, 2) is outside.
    # Built around build_scalar_algebra, which would refuse the action
    R, K = cached_ring("Z(3)"), cached_ring("Z(3)")
    action = np.array([[0, 0, 0], [0, 1, 2], [0, 1, 2]], dtype=np.int32)
    algebra = ScalarAlgebra(R, K, action, torsion_free=True, k_is_domain=True)
    with pytest.raises(VerificationFailed) as exc:
        compute_kernel_N(algebra)
    assert exc.value.claim == "kernel-additive-closure"
    # the reference: the oracle's N, and the first sum u + v outside it,
    # u and v members in ascending pair order
    n = oracles.o_kernel_N(R, K, lambda lam, x: int(action[lam, x]))
    members = sorted(n)
    first = next(
        s
        for u in members
        for v in members
        for s in [(R.add(u[0], v[0]), K.add(u[1], v[1]))]
        if s not in n
    )
    assert exc.value.witness == tuple(R.decode(c) for c in first) == (1, 2)
