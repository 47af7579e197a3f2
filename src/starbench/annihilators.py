"""Annihilator sets, principal ideals, and the annihilator family closure.

Subsets of a ring are packed bitsets (see bitsets.py): bit i set means
element i belongs. An :class:`AnnihilatorSet` remembers which elements
generated it so the claim can be rechecked from scratch.

Annihilators come from the per-ring scan cache (:class:`RingScan`, in
projections.py): ``rann[s]``, the right annihilator of the single element
s, from one pass over the rows; ``r_of(mask)``, the right annihilator of
a set, as the intersection of rann over its members, memoized per set;
and ``r_of_aR``, r(aR) for every a.
Annihilators of ideals reduce to intersections over generating sets:
r(additive-closure(S)) = r(S), because sums of left factors annihilate
whenever each factor does (right distributivity). aR is the additive span
of aG, G the additive generators (left distributivity), so r(aR) is the
intersection of rann[a*g] over g in G.
``principal_two_sided_ideal`` builds the literal ideal (a), the span of
{a} u aG u Ga u GaG, for the cross-check, which meets rann over every
member of (a) and compares r((a)) so found with the family's route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bitsets import mask_from_bool, popcount
from .errors import FamilyCapExceeded
from .projections import RingScan, r_of_principal_ideals
from .rings import StarRing, _greedy_span


@dataclass(frozen=True)
class AnnihilatorSet:
    """A right annihilator with provenance.

    ``mask`` is the packed member bitset and ``generators`` the element
    indices whose right annihilators were intersected to produce it.
    """

    mask: int
    generators: Tuple[int, ...]

    def count(self) -> int:
        return popcount(self.mask)

    def intersect(self, other: "AnnihilatorSet") -> "AnnihilatorSet":
        gens = tuple(sorted(set(self.generators) | set(other.generators)))
        return AnnihilatorSet(self.mask & other.mask, gens)


def principal_two_sided_ideal(ring: StarRing, a: int) -> int:
    """The two-sided ideal (a): additive closure of {a} + aR + Ra + RaR.
    By biadditivity aR, Ra and RaR are the spans of aG, Ga and GaG, G the
    additive generators, so (a) is the span of {a} u aG u Ga u GaG; the
    span of a seed holding a already holds the multiples Za."""
    g = np.array(ring.generators, dtype=np.int64)
    ga = ring.mul_pairs(g, a)
    seed = np.zeros(ring.order, dtype=bool)
    seed[a] = True
    seed[ring.mul_pairs(a, g)] = True
    seed[ga] = True
    seed[ring.mul_pairs(ga[:, None], g)] = True
    return mask_from_bool(_greedy_span(ring.add_pairs, seed)[0])


def annihilator_family(
    ring: StarRing, mode: str, scan: Optional[RingScan] = None
) -> List[AnnihilatorSet]:
    """All annihilators of the given kind, closed under intersection.

    mode "subset": right annihilators of arbitrary subsets. These are exactly
        the intersection closure of the single-element annihilators r({x});
        r({0}) is the whole ring, the annihilator of the empty set.
    mode "two-sided-ideal": {r(I) : I a principal two-sided ideal}, closed
        under intersection; r((a)) comes from ``r_of_principal_ideals``.

    The bitsets are read from ``scan`` (built when none is passed). Results
    are sorted by mask value; deterministic for a given ring. Raises
    FamilyCapExceeded when the family would exceed
    ``ring.limits.family_cap`` sets.
    """
    if mode not in ("subset", "two-sided-ideal"):
        raise ValueError("unknown annihilator family mode %r" % (mode,))
    scan = scan or RingScan(ring)
    masks = scan.rann if mode == "subset" else r_of_principal_ideals(scan)
    base: Dict[int, Tuple[int, ...]] = {}
    for a, mask in enumerate(masks):
        base.setdefault(mask, (a,))
    seed_sets = [AnnihilatorSet(mask, gens) for mask, gens in base.items()]
    return _intersection_closure(seed_sets, ring.limits.family_cap)


def _intersection_closure(
    seeds: List[AnnihilatorSet], cap: int
) -> List[AnnihilatorSet]:
    seen: Dict[int, AnnihilatorSet] = {}
    queue: List[AnnihilatorSet] = []
    for s in sorted(seeds, key=lambda t: t.mask):
        if s.mask not in seen:
            if len(seen) >= cap:
                raise FamilyCapExceeded(cap)
            seen[s.mask] = s
            queue.append(s)
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        for other in list(queue[:head]):
            meet = cur.mask & other.mask
            if meet not in seen:
                if len(seen) >= cap:
                    raise FamilyCapExceeded(cap)
                merged = cur.intersect(other)
                seen[meet] = merged
                queue.append(merged)
    return sorted(seen.values(), key=lambda t: t.mask)
