"""The vectorized AVC kernel must agree with the reference transition."""

import gc
import weakref

import numpy as np
import pytest

from repro import AVCProtocol
from repro.core.vectorized import AVCBatchKernel


@pytest.mark.parametrize("m,d", [(1, 1), (3, 1), (5, 2), (9, 4), (31, 1)])
def test_kernel_matches_reference_exhaustively(m, d):
    protocol = AVCProtocol(m=m, d=d)
    kernel = AVCBatchKernel(protocol)
    s = protocol.num_states
    grid_x, grid_y = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    flat_x = grid_x.ravel()
    flat_y = grid_y.ravel()
    new_x, new_y = kernel(flat_x, flat_y)
    for k in range(s * s):
        expected = protocol.transition_index(int(flat_x[k]), int(flat_y[k]))
        assert (int(new_x[k]), int(new_y[k])) == expected, (
            f"mismatch at {protocol.states[flat_x[k]]} x "
            f"{protocol.states[flat_y[k]]}")


def test_kernel_preserves_dtype_and_shape():
    protocol = AVCProtocol(m=5, d=2)
    kernel = AVCBatchKernel(protocol)
    index_x = np.array([0, 1, 2], dtype=np.int64)
    index_y = np.array([3, 4, 5], dtype=np.int64)
    new_x, new_y = kernel(index_x, index_y)
    assert new_x.shape == index_x.shape
    assert new_y.shape == index_y.shape
    assert new_x.dtype == np.int64


def test_kernel_does_not_mutate_inputs():
    protocol = AVCProtocol(m=5, d=1)
    kernel = AVCBatchKernel(protocol)
    index_x = np.arange(protocol.num_states, dtype=np.int64)
    index_y = index_x[::-1].copy()
    backup_x, backup_y = index_x.copy(), index_y.copy()
    kernel(index_x, index_y)
    np.testing.assert_array_equal(index_x, backup_x)
    np.testing.assert_array_equal(index_y, backup_y)


def test_protocol_memoizes_its_vectorized_kernel():
    protocol = AVCProtocol(m=9, d=2)
    kernel = protocol._batch_kernel()
    assert isinstance(kernel, AVCBatchKernel)
    assert protocol._batch_kernel() is kernel
    assert "_batch_kernel_cache" not in protocol.__getstate__()


def test_kernel_on_large_m_spot_checks():
    """For big m the exhaustive check is too slow; spot-check pairs."""
    protocol = AVCProtocol(m=1023, d=1)
    kernel = AVCBatchKernel(protocol)
    rng = np.random.default_rng(0)
    s = protocol.num_states
    index_x = rng.integers(0, s, size=2000)
    index_y = rng.integers(0, s, size=2000)
    new_x, new_y = kernel(index_x, index_y)
    for k in range(0, 2000, 37):
        expected = protocol.transition_index(int(index_x[k]),
                                             int(index_y[k]))
        assert (int(new_x[k]), int(new_y[k])) == expected


class TestVectorizedTable:
    """AVC's dense table comes from the arithmetic kernel in row
    blocks; it must equal the per-pair fill byte for byte."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_equals_per_pair_fill(self, d):
        from repro.protocols.base import PopulationProtocol

        for m in range(1, 128, 2):
            vectorized = AVCProtocol(m=m, d=d).transition_matrix()
            s = AVCProtocol(m=m, d=d).num_states
            per_pair = PopulationProtocol._transition_rows(
                AVCProtocol(m=m, d=d), 0, s)
            for table, expected in zip(vectorized, per_pair):
                assert table.dtype == expected.dtype
                assert table.tobytes() == expected.tobytes(), (m, d)

    def test_skips_the_pair_cache_and_feeds_transition_index(self):
        protocol = AVCProtocol(m=63, d=2)
        out_x, out_y = protocol.transition_matrix()
        assert not getattr(protocol, "_transition_cache", None)
        s = protocol.num_states
        for i, j in ((0, 0), (1, s - 1), (s // 2, 3), (s - 1, s - 2)):
            assert protocol.transition_index(i, j) \
                == (out_x[i, j], out_y[i, j])
            new_x, new_y = protocol.transition(protocol.states[i],
                                               protocol.states[j])
            assert protocol.transition_index(i, j) \
                == (protocol.index_of(new_x), protocol.index_of(new_y))

    def test_row_blocks_match_the_table_without_building_it(self):
        protocol = AVCProtocol(m=127, d=1)
        blocks = list(protocol.iter_transition_rows(block=7))
        assert getattr(protocol, "_transition_matrix_cache", None) is None
        assert [rows.start for rows, _, _ in blocks] \
            == list(range(0, protocol.num_states, 7))
        out_x, out_y = protocol.transition_matrix()
        assert np.array_equal(np.vstack([x for _, x, _ in blocks]), out_x)
        assert np.array_equal(np.vstack([y for _, _, y in blocks]), out_y)
        # Once memoized, the blocks are slices of the table itself.
        rows, block_x, _ = next(protocol.iter_transition_rows())
        assert rows.start == 0 and np.shares_memory(block_x, out_x)


def test_dropped_protocol_is_freed_without_the_cycle_collector():
    # The protocol memoizes its kernel and its tables; a kernel holding
    # the protocol back would keep both alive until a full collection.
    gc.collect()
    gc.disable()
    try:
        protocol = AVCProtocol(m=63, d=1)
        protocol.transition_matrix()
        ref = weakref.ref(protocol)
        del protocol
        assert ref() is None
    finally:
        gc.enable()
