"""Bitset helpers: subsets of element indices packed into Python ints.

Bit i set means element index i is a member. Python ints give us arbitrary
width, O(words) boolean algebra, and hashability (so bitsets key caches).
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np


def mask_from_bool(flags: np.ndarray) -> int:
    """Pack a boolean vector (index i -> bit i) into an int."""
    packed = np.packbits(flags.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def bool_from_mask(mask: int, n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


def masks_from_rows(flags: np.ndarray) -> List[int]:
    """Pack each row of a 2-D boolean array into an int, as
    ``mask_from_bool`` does for one row, through a single ``packbits``."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def rows_from_masks(masks: List[int], n: int) -> np.ndarray:
    """The inverse of ``masks_from_rows``: a (len(masks), n) boolean array
    whose row i is ``bool_from_mask(masks[i], n)``."""
    nbytes = (n + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)


def iter_indices(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_of(mask: int) -> List[int]:
    return list(iter_indices(mask))


def popcount(mask: int) -> int:
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    return a & b == a


def contains(mask: int, i: int) -> bool:
    return (mask >> i) & 1 == 1


def full_mask(n: int) -> int:
    return (1 << n) - 1
