"""Tests for bitmap arithmetic, including Fig. 6's exact numbers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import KB
from repro.util.bitmaps import bitmap_bytes, received_bytes


def test_bitmap_bytes_fig6():
    # 8192 messages -> 1 KB bitmap, exactly as in Fig. 6.
    assert bitmap_bytes(8192) == 1024


def test_bitmap_bytes_rounding():
    assert bitmap_bytes(1) == 1
    assert bitmap_bytes(8) == 1
    assert bitmap_bytes(9) == 2


def test_received_bytes_full():
    n = 8192
    bm = np.ones(n, dtype=bool)
    assert received_bytes(bm, KB, n * KB) == 8192 * KB


def test_received_bytes_fig6_node_c_round3():
    # Node C at t=6: all messages except M2 (index 1) -> 8191 KB.
    n = 8192
    bm = np.ones(n, dtype=bool)
    bm[1] = False
    assert received_bytes(bm, KB, n * KB) == 8191 * KB


def test_received_bytes_short_last_block():
    # 3 blocks of 1 KB covering 2.5 KB: last block is 512 B.
    total = 2 * KB + 512
    bm = np.ones(3, dtype=bool)
    assert received_bytes(bm, KB, total) == total
    bm[-1] = False
    assert received_bytes(bm, KB, total) == 2 * KB


def test_received_bytes_validates_block_count():
    with pytest.raises(ValueError):
        received_bytes(np.ones(3, dtype=bool), KB, 10 * KB)


# -- property-based ------------------------------------------------------
@given(
    n_blocks=st.integers(min_value=1, max_value=64),
    last=st.integers(min_value=1, max_value=KB),
    data=st.data(),
)
def test_received_bytes_bounds(n_blocks, last, data):
    total = (n_blocks - 1) * KB + last
    bm = np.zeros(n_blocks, dtype=bool)
    bm[sorted(data.draw(st.sets(st.integers(0, n_blocks - 1))))] = True
    got = received_bytes(bm, KB, total)
    assert 0 <= got <= total
    if bm.all():
        assert got == total
