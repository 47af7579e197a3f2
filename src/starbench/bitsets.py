"""Bitset helpers: subsets of element indices packed into Python ints.

Bit i set means element index i is a member. Python ints give us arbitrary
width, O(words) boolean algebra, and hashability (so bitsets key caches).

The flag-array helpers (``flags_of``, ``first_positions``) answer
"which values occur" and "where does each first occur" for index arrays
bounded by a known n, in place of ``np.unique``: its first call in a
process imports ``numpy.ma``, which costs more than the sets it sorts.
"""

from __future__ import annotations

from typing import List

import numpy as np


def mask_from_bool(flags: np.ndarray) -> int:
    """Pack a boolean vector (index i -> bit i) into an int."""
    packed = np.packbits(flags.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def flags_of(indices: np.ndarray, n: int) -> np.ndarray:
    """Boolean vector of length n that is True exactly at ``indices``
    (every index in range(n)); ``np.flatnonzero`` of it is the ascending
    set of distinct indices."""
    flags = np.zeros(n, dtype=bool)
    flags[indices] = True
    return flags


def first_positions(values: np.ndarray, n: int) -> np.ndarray:
    """first[v] = the least position i with values[i] == v, for every v in
    range(n); len(values) where v does not occur."""
    first = np.full(n, len(values), dtype=np.int64)
    np.minimum.at(first, values, np.arange(len(values), dtype=np.int64))
    return first


def masks_from_rows(flags: np.ndarray) -> List[int]:
    """Pack each row of a 2-D boolean array into an int, as
    ``mask_from_bool`` does for one row, through a single ``packbits``."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def indices_of(mask: int) -> List[int]:
    """The set bit positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount(mask: int) -> int:
    return mask.bit_count()


def contains(mask: int, i: int) -> bool:
    return (mask >> i) & 1 == 1


def full_mask(n: int) -> int:
    return (1 << n) - 1
