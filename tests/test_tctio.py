"""The framed binary tensor format: byte-level goldens and error offsets."""

import struct

import numpy as np
import pytest

from ctdenoise.tctio import (
    TensorFormatError,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 1, 5), (2, 3, 4, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_round_trip(self, shape, dtype):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=shape).astype(dtype)
        back, end = tensor_from_bytes(tensor_to_bytes(arr))
        assert end == len(tensor_to_bytes(arr))
        assert back.dtype == np.dtype(dtype)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_non_contiguous_input_serializes_row_major(self):
        arr = np.arange(12.0, dtype=np.float32).reshape(3, 4).T  # not C-contiguous
        back, _ = tensor_from_bytes(tensor_to_bytes(arr))
        assert np.array_equal(back, arr)

    def test_file_round_trip(self, tmp_path):
        arr = np.linspace(-1, 1, 24, dtype=np.float64).reshape(2, 3, 4)
        path = tmp_path / "t.tct"
        write_tensor(path, arr)
        assert np.array_equal(read_tensor(path), arr)

    def test_multiple_records_in_one_buffer(self):
        a = np.ones((2, 2), dtype=np.float32)
        b = np.zeros(3, dtype=np.float64)
        buf = tensor_to_bytes(a) + tensor_to_bytes(b)
        first, off = tensor_from_bytes(buf)
        second, end = tensor_from_bytes(buf, off)
        assert np.array_equal(first, a)
        assert np.array_equal(second, b)
        assert end == len(buf)


class TestGoldenBytes:
    def test_known_vector_encoding(self):
        # layout assembled by hand: magic, rank, extents (LE u32),
        # dtype tag, raw little-endian scalars
        arr = np.array([1.0, 2.0], dtype=np.float32)
        expect = (
            b"TCT1"
            + bytes([1])
            + (2).to_bytes(4, "little")
            + bytes([0])
            + struct.pack("<2f", 1.0, 2.0)
        )
        assert tensor_to_bytes(arr) == expect

    def test_known_matrix_encoding_float64(self):
        arr = np.array([[1.5]], dtype=np.float64)
        expect = (
            b"TCT1"
            + bytes([2])
            + (1).to_bytes(4, "little") * 2
            + bytes([1])
            + struct.pack("<d", 1.5)
        )
        assert tensor_to_bytes(arr) == expect


class TestErrors:
    def test_bad_magic_offset(self):
        with pytest.raises(TensorFormatError, match="byte 0"):
            tensor_from_bytes(b"NOPE" + b"\x00" * 10)

    def test_bad_magic_at_later_offset(self):
        good = tensor_to_bytes(np.zeros(2, dtype=np.float32))
        with pytest.raises(TensorFormatError, match=f"byte {len(good)}"):
            tensor_from_bytes(good + b"junkjunk", offset=len(good))

    def test_truncated_payload_reports_need_and_have(self):
        full = tensor_to_bytes(np.arange(4.0, dtype=np.float32))
        with pytest.raises(TensorFormatError, match="need 16 bytes, have 10"):
            tensor_from_bytes(full[: len(full) - 6])

    @pytest.mark.parametrize("extents, payload", [((65536,) * 4, b""),
                                                   ((2**32 - 1,) * 2, b"\x00" * 9)])
    def test_overflowing_extents_are_a_truncated_payload(self, extents, payload):
        # the element count overflows int64: 2**64 wraps to 0 and
        # (2**32 - 1)**2 to a negative number
        head = (b"TCT1" + bytes([len(extents)]) + struct.pack(f"<{len(extents)}I", *extents)
                + bytes([0]))
        with pytest.raises(TensorFormatError, match=f"truncated payload at byte {len(head)}"):
            tensor_from_bytes(head + payload)

    def test_truncated_shape_table(self):
        head = b"TCT1" + bytes([3]) + b"\x01\x00"
        with pytest.raises(TensorFormatError, match="truncated shape"):
            tensor_from_bytes(head)

    def test_unknown_dtype_tag(self):
        buf = b"TCT1" + bytes([1]) + (1).to_bytes(4, "little") + bytes([9]) + b"\x00" * 4
        with pytest.raises(TensorFormatError, match="dtype tag 9"):
            tensor_from_bytes(buf)

    def test_truncated_after_magic(self):
        with pytest.raises(TensorFormatError, match="truncated header at byte 4"):
            tensor_from_bytes(b"TCT1")

    def test_truncated_dtype_tag(self):
        buf = b"TCT1" + bytes([1]) + (2).to_bytes(4, "little")
        with pytest.raises(TensorFormatError, match="truncated dtype tag at byte 9"):
            tensor_from_bytes(buf)

    def test_rank_just_over_limit(self):
        with pytest.raises(TensorFormatError, match="implausible rank 9 at byte 4"):
            tensor_from_bytes(b"TCT1" + bytes([9]) + bytes(4 * 9 + 1))

    def test_implausible_rank(self):
        buf = b"TCT1" + bytes([200])
        with pytest.raises(TensorFormatError, match="rank 200"):
            tensor_from_bytes(buf)

    def test_trailing_bytes_rejected_by_read_tensor(self, tmp_path):
        path = tmp_path / "t.tct"
        path.write_bytes(tensor_to_bytes(np.zeros(2, dtype=np.float32)) + b"xx")
        with pytest.raises(TensorFormatError, match="trailing 2 bytes"):
            read_tensor(path)

    def test_rejects_non_float_dtype(self):
        with pytest.raises(TypeError):
            tensor_to_bytes(np.zeros(3, dtype=np.int32))

    def test_rank_8_round_trips_and_9_is_refused(self):
        with pytest.raises(ValueError, match="rank limit is 8, got 9"):
            tensor_to_bytes(np.zeros((1,) * 9, dtype=np.float32))
        assert tensor_from_bytes(tensor_to_bytes(np.zeros((1,) * 8)))[0].shape == (1,) * 8

    def test_rejects_rank_over_limit(self):
        with pytest.raises(ValueError):
            tensor_to_bytes(np.zeros((1,) * 9, dtype=np.float32))
