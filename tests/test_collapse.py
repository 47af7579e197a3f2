"""Unitification collapse: a unital ring comes back from its unitification.

For a unital R over K = Z(char R), the kernel N is {(-lam.1, lam)}, so
a -> [a, 0] is a bijection onto the quotient Q, and a *-isomorphism. Every
classifier verdict of Q must then equal that of R, and right projections
and central covers must commute with the embedding. This runs the pair
ring, the kernel, the coset map and the quotient's section backend
together, on rings whose unitification no golden indexes: the unital rings
of the small corpus, and those of the medium corpus past it (Z(17) to
Z(30), M(2, Z(5)) and M(2, Z(6))). Source: the unitification of PAPER.md
is the Dorroh extension (Dorroh, Bull. AMS 1932) taken modulo its
annihilator ideal.
"""

import numpy as np
import pytest

from starbench import (
    RingScan,
    build_quotient,
    build_scalar_algebra,
    small_corpus,
)

from conftest import cached_ring, every_report

UNITAL = [t for t in small_corpus() if cached_ring(t).unity is not None]
# the medium corpus's larger unital rings, which unitify-corpus collapses too
MEDIUM_UNITAL = ["Z(%d)" % m for m in range(17, 31)] + ["M(2, Z(5))", "M(2, Z(6))"]


def verdicts(ring, scan):
    return {name: rep.verdict for name, rep in every_report(ring, scan).items()}


def embedded(emb, values):
    """The image of a table of element indices, -1 (none) kept as -1."""
    return np.where(values >= 0, emb[np.maximum(values, 0)], -1)


@pytest.mark.parametrize("text", UNITAL + MEDIUM_UNITAL)
def test_unital_ring_comes_back(text):
    R = cached_ring(text)
    K = cached_ring("Z(%d)" % R.characteristic)
    quot = build_quotient(build_scalar_algebra(R, K))
    q = quot.ring
    emb = quot.embed_all()
    assert quot.kernel.size == K.order
    assert sorted(emb.tolist()) == list(range(q.order)) and q.order == R.order

    rscan, qscan = RingScan(R), RingScan(q)
    assert verdicts(q, qscan) == verdicts(R, rscan)
    assert len(verdicts(R, rscan)) == 12
    assert np.array_equal(qscan.rp_all[emb], embedded(emb, rscan.rp_all))
    assert np.array_equal(qscan.cover_all[emb], embedded(emb, rscan.cover_all))


def test_the_corpus_has_unital_rings_of_every_family():
    assert len(UNITAL) >= 20
    assert all(cached_ring(t).unity is not None for t in MEDIUM_UNITAL)
    assert {"M(2, Z(4))", "prod(Z(2), Z(3))", "sub(Z(6); 2)"} <= set(UNITAL)
