"""Trace builders against their reference constructions and edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim import blocked_matmul_trace, stream_lines

from tests.oracle import reference_blocked_matmul_trace


@settings(max_examples=150, deadline=None)
@given(
    addrs=st.tuples(*[st.integers(0, 1 << 20)] * 3),
    n=st.integers(1, 40),
    block=st.integers(1, 48),
    elem_bytes=st.sampled_from([1, 4, 8, 12, 16]),
    line_bytes=st.sampled_from([16, 32, 64, 128]),
)
def test_blocked_matmul_trace_is_bit_equal_to_the_per_row_build(
        addrs, n, block, elem_bytes, line_bytes):
    kw = dict(block=block, elem_bytes=elem_bytes, line_bytes=line_bytes)
    got = blocked_matmul_trace(*addrs, n, **kw)
    want = reference_blocked_matmul_trace(*addrs, n, **kw)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("block", [0, -1])
def test_blocked_matmul_trace_rejects_a_block_below_one(block):
    with pytest.raises(ValueError, match="block"):
        blocked_matmul_trace(0, 4096, 8192, 8, block=block)


@pytest.mark.parametrize("addr", [0x1000, 0x1010])
def test_stream_lines_of_zero_bytes_is_empty(addr):
    """Like ``stream_trace`` and ``touch_range``: no bytes, no lines
    (it used to yield the line of ``addr``)."""
    lines = stream_lines(addr, 0)
    assert lines.dtype == np.int64 and lines.size == 0
    assert stream_lines(addr, 1).tolist() == [addr // 64]

