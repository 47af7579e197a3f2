"""Block packing of bitsets against the one-row reference, and back."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench.bitsets import indices_of, mask_from_bool, masks_from_rows


@st.composite
def flag_arrays(draw):
    rows = draw(st.integers(0, 5))
    n = draw(st.integers(0, 70))
    bits = draw(st.lists(st.booleans(), min_size=rows * n, max_size=rows * n))
    return np.array(bits, dtype=bool).reshape(rows, n)


@settings(deadline=None)
@given(flag_arrays())
def test_masks_from_rows_packs_each_row_like_mask_from_bool(flags):
    rows, n = flags.shape
    masks = masks_from_rows(flags)
    assert masks == [mask_from_bool(row) for row in flags]
    for mask, row in zip(masks, flags):
        assert indices_of(mask) == np.flatnonzero(row).tolist()
