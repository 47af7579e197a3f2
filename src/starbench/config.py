"""Tunable limits shared by the constructors and scanners."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    """Resource caps applied at construction and scan time.

    element_cap: largest ring order build_ring will materialize.
    table_threshold: maximum number of table entries (order squared) to
        precompute for a ring a descriptor names, and for the quotient
        whose every row unitify --verify scans; larger rings,
        pair rings and the other quotients stay call-based and compute
        every row on demand (for matrix rings, k gathers from row-block
        tables of size m^k by m^k and m^k by order, for k-by-k matrices
        over Z(m)).
    family_cap: maximum number of distinct annihilator sets the family
        closure will collect before giving up.
    """

    element_cap: int = 10_000
    table_threshold: int = 4_000_000
    family_cap: int = 4_096

    def with_element_cap(self, cap: int) -> "Limits":
        return replace(self, element_cap=cap)


DEFAULT_LIMITS = Limits()
