import struct
import tracemalloc

import numpy as np
import pytest

from cpfuse.fileio import (
    MATRIX_MAGIC,
    TENSOR_MAGIC,
    read_matrix,
    read_tensor,
    write_matrix,
    write_tensor,
)


class TestTensorRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((5, 4, 3))
        path = tmp_path / "t.dt3"
        write_tensor(path, t)
        back = read_tensor(path)
        np.testing.assert_array_equal(back, t)
        assert back.shape == (5, 4, 3)

    def test_c_contiguous_input(self, tmp_path):
        t = np.ascontiguousarray(np.arange(24.0).reshape(2, 3, 4))
        path = tmp_path / "t.dt3"
        write_tensor(path, t)
        np.testing.assert_array_equal(read_tensor(path), t)

    def test_special_values_preserved(self, tmp_path):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = np.inf
        t[1, 1, 1] = -0.0
        t[0, 1, 0] = 1e-308
        path = tmp_path / "t.dt3"
        write_tensor(path, t)
        back = read_tensor(path)
        np.testing.assert_array_equal(back, t)
        assert np.signbit(back[1, 1, 1])

    def test_read_holds_one_payload_copy(self, tmp_path):
        t = np.random.default_rng(2).standard_normal((64, 64, 128))  # 4 MiB
        path = tmp_path / "t.dt3"
        write_tensor(path, t)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, t)
        assert back.flags.writeable and back.flags.f_contiguous
        assert peak < 1.5 * t.nbytes

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_holds_at_most_one_payload_copy(self, tmp_path, order):
        t = np.asarray(np.random.default_rng(3).standard_normal((64, 64, 128)), order=order)
        path = tmp_path / "t.dt3"
        tracemalloc.start()
        try:
            write_tensor(path, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(read_tensor(path), t)
        assert peak < 1.1 * t.nbytes

    def test_header_layout(self, tmp_path):
        t = np.arange(6.0).reshape((1, 2, 3), order="F")
        path = tmp_path / "t.dt3"
        write_tensor(path, t)
        raw = path.read_bytes()
        assert raw[:4] == TENSOR_MAGIC
        assert struct.unpack("<3I", raw[4:16]) == (1, 2, 3)
        np.testing.assert_array_equal(
            np.frombuffer(raw[16:], dtype="<f8"), np.arange(6.0)
        )


class TestMatrixRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 3))
        path = tmp_path / "m.dm2"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_header_layout(self, tmp_path):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        path = tmp_path / "m.dm2"
        write_matrix(path, m)
        raw = path.read_bytes()
        assert raw[:4] == MATRIX_MAGIC
        assert struct.unpack("<2I", raw[4:12]) == (2, 2)
        # column-major payload
        np.testing.assert_array_equal(
            np.frombuffer(raw[12:], dtype="<f8"), np.array([1.0, 2.0, 3.0, 4.0])
        )


class TestReadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dt3"
        write_tensor(path, np.ones((2, 2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_matrix_magic_rejected_by_tensor_reader(self, tmp_path):
        path = tmp_path / "m.dm2"
        write_matrix(path, np.ones((4, 2)))
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.dt3"
        write_tensor(path, np.ones((3, 3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.dt3"
        path.write_bytes(TENSOR_MAGIC + b"\x01\x00")
        with pytest.raises(ValueError, match="short"):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.dt3"
        write_tensor(path, np.ones((2, 2, 2)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_tensor(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "t.dt3"
        path.write_bytes(TENSOR_MAGIC + struct.pack("<3I", 2, 0, 2))
        with pytest.raises(ValueError, match="zero"):
            read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_tensor(tmp_path / "absent.dt3")


class TestWriteErrors:
    def test_tensor_wrong_ndim(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "t.dt3", np.ones((2, 2)))

    def test_matrix_wrong_ndim(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "m.dm2", np.ones((2, 2, 2)))

    def test_dimension_above_uint32_range(self, tmp_path):
        # A zero-stride view: no payload is allocated, and none is written.
        huge = np.broadcast_to(np.zeros(1), (2**32, 1, 1))
        with pytest.raises(ValueError, match="uint32"):
            write_tensor(tmp_path / "t.dt3", huge)
        assert not (tmp_path / "t.dt3").exists()
