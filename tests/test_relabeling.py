"""Relabeling invariance.

A ring rebuilt through ``StarRing.from_tables``, which audits it, with its
element indices permuted (zero kept at index 0) is the same *-ring. Its classifier verdicts
must not change, and its projection tables must be the old ones carried
along by the permutation, with the code -1 (none) kept as it is.
Hand-picked goldens all use one labeling; this catches code that depends
on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench import RingScan, StarRing

import oracles
from conftest import cached_ring, every_report

RINGS = [
    "Z(6)",
    "Z(8)",
    "sub(Z(9); 3)",
    "sub(Z(6); 2)",
    "prod(Z(2), Z(2))",
    "prod(Z(2), Z(3))",
    "M(2, Z(2))",
    "M(2, Z(3))",
]


def permutation(n, seed):
    """A seeded permutation of 0..n-1 that fixes 0."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0], 1 + rng.permutation(n - 1)]).astype(np.int64)


def relabel(ring, perm):
    """The ring with element i renamed perm[i]; literals travel along,
    built by from_tables, which audits its tables."""
    inv = np.argsort(perm)
    grid = np.ix_(inv, inv)
    add, mul = oracles.tables(ring)
    return StarRing.from_tables(
        perm[add[grid]],
        perm[mul[grid]],
        perm[ring.neg_vector()[inv]],
        perm[ring.star_vector()[inv]],
        [ring.decode(int(i)) for i in inv],
        label="relabeled %s" % ring.label,
    )


def carried(table, perm):
    """The table indexed and valued in the new labels; codes < 0 kept."""
    out = np.empty_like(table)
    out[perm] = np.where(table >= 0, perm[np.maximum(table, 0)], table)
    return out


def test_relabel_is_a_relabeling():
    ring = cached_ring("M(2, Z(2))")
    perm = permutation(ring.order, 0)
    new = relabel(ring, perm)
    x, y = 5, 11
    assert new.mul(int(perm[x]), int(perm[y])) == perm[ring.mul(x, y)]
    assert new.add(int(perm[x]), int(perm[y])) == perm[ring.add(x, y)]
    assert new.decode(int(perm[x])) == ring.decode(x)
    assert new.unity == perm[ring.unity]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("text", RINGS)
def test_verdicts_are_invariant(text, seed):
    ring = cached_ring(text)
    new = relabel(ring, permutation(ring.order, seed))
    verdicts = {name: rep.verdict for name, rep in every_report(ring).items()}
    assert {name: rep.verdict for name, rep in every_report(new).items()} == verdicts


def _assert_tables_commute(ring, new, perm, names):
    old_scan, new_scan = RingScan(ring), RingScan(new)
    for name in names:
        old = getattr(old_scan, name)
        assert np.array_equal(getattr(new_scan, name), carried(old, perm)), name


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("text", RINGS)
def test_projection_tables_commute_with_the_permutation(text, seed):
    ring = cached_ring(text)
    perm = permutation(ring.order, seed)
    _assert_tables_commute(ring, relabel(ring, perm), perm, ("rp_all", "lp_all", "cover_all"))


# cyclic, product, matrix and subring rings
WITNESS_RINGS = RINGS + [
    "Z(12)",
    "prod(Z(4), Z(2))",
    "sub(M(2, Z(2)); [[1,0],[0,0]], [[0,1],[0,0]])",
    "sub(M(2, Z(2)); [[1,1],[0,0]])",
]


@st.composite
def relabelings(draw):
    """A ring of WITNESS_RINGS and a permutation of its indices fixing 0."""
    ring = cached_ring(draw(st.sampled_from(WITNESS_RINGS)))
    rest = draw(st.permutations(range(1, ring.order)))
    return ring, np.array([0] + rest, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(relabelings())
def test_relabeled_witnesses_replay_on_the_oracles(case):
    """The verdicts survive the relabeling, and every false verdict's
    witness on the relabeled ring shows the definition failing there. The
    witnesses are the lowest in the new labels, and the central-cover
    classes are permuted, so this rechecks the scans and the classifiers'
    class-level shortcuts on a labeling no golden uses."""
    ring, perm = case
    new = relabel(ring, perm)
    reports = every_report(new)
    assert {name: rep.verdict for name, rep in reports.items()} == {
        name: rep.verdict for name, rep in every_report(ring).items()
    }
    for prop, rep in reports.items():
        if not rep.verdict and prop != "rp-not-cover":  # its witness is for true
            assert oracles.o_witness_holds(new, prop, rep.witness), prop
