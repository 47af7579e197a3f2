"""The ring invariants against their definitions.

``unity`` and ``characteristic`` come from the backend a ring was built
from: the cyclic, matrix and product backends compute the characteristic
directly, and every other value is a default of the backend protocol.
Both are compared with the definition-level oracle on every small-corpus
ring, both with dense tables and call-based
(``Limits(table_threshold=0)``), and on pair rings and quotients. Those
have no descriptor and are always call-based; the limits vary only the
tables of R and K.
"""

import pytest

from starbench import (
    Limits,
    build_R1,
    build_quotient,
    build_ring,
    build_scalar_algebra,
    parse_ring_expr,
    small_corpus,
)

import oracles

LIMITS = {"tables": Limits(), "call-based": Limits(table_threshold=0)}
UNITIFIED = [("sub(Z(9); 3)", "Z(9)"), ("M(2, Z(3))", "Z(6)")]


def assert_invariants(ring):
    assert ring.unity == oracles.o_unity(ring), ring.label
    assert ring.characteristic == oracles.o_characteristic(ring), ring.label


@pytest.mark.parametrize("mode", sorted(LIMITS))
@pytest.mark.parametrize("text", small_corpus())
def test_corpus_ring(text, mode):
    ring = build_ring(parse_ring_expr(text), LIMITS[mode])
    assert ring.has_tables() == (mode == "tables")
    assert_invariants(ring)


@pytest.mark.parametrize("mode", sorted(LIMITS))
@pytest.mark.parametrize("ring_text,scalar_text", UNITIFIED)
def test_pair_ring_and_quotient(ring_text, scalar_text, mode):
    limits = LIMITS[mode]
    algebra = build_scalar_algebra(
        build_ring(parse_ring_expr(ring_text), limits),
        build_ring(parse_ring_expr(scalar_text), limits),
    )
    assert_invariants(build_R1(algebra, limits))
    assert_invariants(build_quotient(algebra, limits).ring)
