"""The package's file formats: TCT1 byte-level goldens and error offsets,
and the one ``key = value`` grammar of config files and manifests."""

import re
import struct

import numpy as np
import pytest

from ctdenoise import config, ctsim, tctio
from ctdenoise.tctio import (
    TensorFormatError,
    frame_header,
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

    @pytest.mark.parametrize("dtype", [">f4", ">f8"])
    def test_big_endian_input_round_trips(self, tmp_path, dtype):
        arr = np.linspace(-2, 3, 6).reshape(2, 3).astype(dtype)
        native = arr.astype(np.dtype(dtype).newbyteorder("="))
        assert tensor_to_bytes(arr) == tensor_to_bytes(native)
        write_tensor(tmp_path / "t.tct", arr)
        back = read_tensor(tmp_path / "t.tct")
        assert back.dtype == native.dtype
        assert np.array_equal(back, arr)

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


class TestFrameHeader:
    """``frame_header`` is the one place the record framing is written."""

    @staticmethod
    def by_hand(shape, tag):
        return (b"TCT1" + bytes([len(shape)])
                + b"".join(int(n).to_bytes(4, "little") for n in shape) + bytes([tag]))

    @pytest.mark.parametrize("rank", range(9))
    @pytest.mark.parametrize("dtype, tag", [(np.float32, 0), (np.float64, 1)])
    def test_record_is_header_then_little_endian_scalars(self, rank, dtype, tag):
        shape = (3, 1, 2, 1, 2, 1, 1, 2)[:rank]
        arr = np.random.default_rng(rank).normal(size=shape).astype(dtype)
        head = self.by_hand(shape, tag)
        assert frame_header(arr) == head
        assert tensor_to_bytes(arr) == head + arr.astype(np.dtype(dtype).newbyteorder("<")).tobytes()

    def test_non_contiguous_input(self):
        arr = np.arange(24.0, dtype=np.float64).reshape(4, 6)[::2, 1::2].T
        assert not arr.flags.c_contiguous
        head = self.by_hand((3, 2), 1)
        assert frame_header(arr) == head
        assert tensor_to_bytes(arr) == head + struct.pack("<6d", *arr.ravel())


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

    @pytest.mark.parametrize("cut, message", [
        (2, "bad magic at byte 0"),
        (12, "truncated payload at byte 10: need 8 bytes, have 2"),
    ])
    def test_read_tensor_names_the_file(self, tmp_path, cut, message):
        path = tmp_path / "t.tct"
        path.write_bytes(tensor_to_bytes(np.zeros(2, dtype=np.float32))[:cut])
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == f"{path}: {message}"

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


class TestKeyValues:
    # a comment, blanks, an inline '#', padding, then no value, no key and no '='
    CORPUS = ["# a comment", "", "   ", "data.seed = 4  # inline", "  data.seed=4\t",
              "data.seed =", "= 4", "data.seed 4"]

    def test_config_and_manifest_read_the_same_lines(self, tmp_path):
        def outcome(read):
            try:
                return {key: str(value) for key, value in read().items()}
            except ValueError as exc:  # a ConfigError too
                return str(exc)

        path = tmp_path / "manifest"
        refused = []
        for line in self.CORPUS:
            path.write_text(f"data.n_pairs = 3\n{line}\n", encoding="utf-8")
            text = path.read_text(encoding="utf-8")
            read = outcome(lambda: ctsim.load_manifest(path))
            assert outcome(lambda: config.parse_config_text(text, str(path))) == read, line
            if isinstance(read, str):
                refused.append(line)
                assert read == f"{path}:2: expected 'key = value', got {line!r}"
        assert refused == self.CORPUS[-3:]

    def test_written_lines_read_back(self):
        values = {"data.seed": 4, "note": "a = b", "geom.pixel_spacing_mm": 0.7}
        text = tctio.format_key_values(values)
        assert text == "data.seed = 4\nnote = a = b\ngeom.pixel_spacing_mm = 0.7\n"
        assert tctio.parse_key_values(text, "<text>") == [
            (1, "data.seed", "4"), (2, "note", "a = b"), (3, "geom.pixel_spacing_mm", "0.7")]

    @pytest.mark.parametrize("key, value", [
        ("note", "x\ny = 1"), ("no\nte", 1), ("note", "x\r"),  # line breaks
        ("a#b", 1), ("note", "0.7  # mm"),  # a comment
        ("note", ""), ("note", " 0.7"), ("note", "0.7 "),  # an empty or padded value
        ("a=b", 1), ("", 1)])
    def test_writer_names_the_first_entry_that_would_not_read_back(self, key, value):
        with pytest.raises(ValueError, match=re.escape(f"entry {key!r}")):
            tctio.format_key_values({"data.seed": 4, key: value, "later#": 1})
