"""Product decomposition.

Annihilators, projections and central covers of a direct product split
componentwise (Berberian, *Baer \\*-Rings*, 1972), so every classified
property except rp-not-cover holds for prod(R, S) exactly when it holds for
R and for S. rp-not-cover asks for an element whose right projection is not
its central cover, which one factor can supply alone, so it is left out.
"""

from itertools import combinations_with_replacement

import pytest

from starbench import classify_all

from conftest import cached_ring

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
        reports = classify_all(cached_ring(text))
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
