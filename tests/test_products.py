"""Product decomposition.

Annihilators, projections and central covers of a direct product split
componentwise (Berberian, *Baer \\*-Rings*, 1972), so every classified
property except rp-not-cover holds for prod(R, S) exactly when it holds for
R and for S. rp-not-cover asks for an element whose right projection is not
its central cover, which one factor can supply alone, so it is left out.

A finite ring of characteristic n = p1^k1 ... pr^kr is the direct sum of
its primary components R_p = (n / p^k) R (McDonald, *Finite Rings with
Identity*, 1974), each a *-ideal, so the same holds for R and its
components.
"""

import functools
from itertools import combinations_with_replacement

import pytest

from starbench.descriptor import SubringClosure, to_dsl

from conftest import cached_ring, every_report

FACTORS = [
    "Z(2)",
    "Z(3)",
    "Z(4)",
    "Z(6)",
    "Z(8)",
    "sub(Z(4); 2)",
    "sub(Z(9); 3)",
    "sub(Z(8); 2)",
    "M(2, Z(2))",
]
NOT_COMPONENTWISE = {"rp-not-cover"}

_VERDICTS = {}


def verdicts(text):
    if text not in _VERDICTS:
        reports = every_report(cached_ring(text))
        _VERDICTS[text] = {
            name: rep.verdict
            for name, rep in reports.items()
            if name not in NOT_COMPONENTWISE
        }
    return _VERDICTS[text]


@pytest.mark.parametrize("left,right", combinations_with_replacement(FACTORS, 2))
def test_product_verdict_is_the_and_of_its_factors(left, right):
    expected = {
        name: verdicts(left)[name] and verdicts(right)[name] for name in verdicts(left)
    }
    assert verdicts("prod(%s, %s)" % (left, right)) == expected


def prime_powers(n):
    """The prime powers p^k that exactly divide n, ascending in p."""
    out, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            out.append(q)
        p += 1
    return out


def primary_components(text):
    """The DSL of each primary component (n / p^k) R of the ring, as the
    subring that the multiples (n / p^k) g of its additive generators g
    generate: their span is (n / p^k) R, an ideal closed under the star."""
    r = cached_ring(text)
    components = []
    for q in prime_powers(r.characteristic):
        m = r.characteristic // q
        gens = [functools.reduce(r.add, [g] * m) for g in r.generators]
        components.append(to_dsl(SubringClosure(r.descriptor, tuple(r.decode(g) for g in gens))))
    return components


@pytest.mark.parametrize("text", ["Z(30)", "M(2, Z(6))", "prod(Z(2), Z(3))"])
def test_verdict_is_the_and_over_the_primary_components(text):
    components = primary_components(text)
    orders = [cached_ring(c).order for c in components]
    assert len(components) >= 2 and functools.reduce(int.__mul__, orders) == cached_ring(text).order
    expected = {
        name: all(verdicts(c)[name] for c in components) for name in verdicts(text)
    }
    assert verdicts(text) == expected
