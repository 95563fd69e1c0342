"""The tensor container reader accepts exactly what write_tensors writes.

Every malformed file raises ValueError naming the cause; no other
exception type escapes and no array is sized from an unchecked header.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullspan import tensorio
from nullspan.subspace import load_basis, save_basis

TENSORS = {
    "a": np.arange(6.0).reshape(2, 3),
    "b.bias": np.array([-1.0]),
    "scalar": np.array(3.5),
    "empty": np.zeros((0, 2)),
}


def _container_bytes(path, tensors=TENSORS) -> bytes:
    tensorio.write_tensors(path, tensors)
    return path.read_bytes()


def _basis_bytes(path) -> bytes:
    save_basis(np.arange(6.0).reshape(3, 2), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def shared_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tensorio")


class TestNamedCauses:
    def test_short_file_is_truncated_header(self, tmp_path):
        path = tmp_path / "short.nspw"
        path.write_bytes(_container_bytes(path)[:10])
        with pytest.raises(ValueError, match="truncated header"):
            tensorio.read_tensors(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.nspw"
        path.write_bytes(_container_bytes(path) + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            tensorio.read_tensors(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "cut.nspw"
        path.write_bytes(_container_bytes(path)[:-1])
        with pytest.raises(ValueError, match="truncated data"):
            tensorio.read_tensors(path)

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "dup.nspw"
        blob = _container_bytes(path, {"x": np.array([1.0]), "y": np.array([2.0])})
        name_y = blob.index(b"y", 12)
        path.write_bytes(blob[:name_y] + b"x" + blob[name_y + 1:])
        with pytest.raises(ValueError, match="duplicate tensor name"):
            tensorio.read_tensors(path)

    def test_offset_mismatch(self, tmp_path):
        path = tmp_path / "gap.nspw"
        blob = _container_bytes(path, {"x": np.array([1.0])})
        # Point the only tensor 8 bytes later and pad, so the sizes still fit.
        header_end = len(blob) - 8
        bad = blob[:header_end - 8] + struct.pack("<Q", header_end + 8)
        path.write_bytes(bad + b"\x00" * 8 + blob[header_end:])
        with pytest.raises(ValueError, match="offset mismatch"):
            tensorio.read_tensors(path)

    def test_invalid_utf8_name(self, tmp_path):
        path = tmp_path / "name.nspw"
        blob = _container_bytes(path, {"x": np.array([1.0])})
        name_x = blob.index(b"x", 12)
        path.write_bytes(blob[:name_x] + b"\xff" + blob[name_x + 1:])
        with pytest.raises(ValueError, match="UTF-8"):
            tensorio.read_tensors(path)

    def test_huge_basis_header_is_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "huge.nspb"
        name = b"basis"
        header_size = 12 + (4 + len(name) + 4 + 2 * 4 + 8)
        path.write_bytes(b"NSPW" + struct.pack("<II", 1, 1)
                         + struct.pack("<I", len(name)) + name
                         + struct.pack("<I", 2) + struct.pack("<2I", 2 ** 31, 2 ** 31)
                         + struct.pack("<Q", header_size))
        with pytest.raises(ValueError, match="truncated data"):
            load_basis(path)

    def test_huge_ndim_is_truncated_header(self, tmp_path):
        path = tmp_path / "ndim.nspw"
        path.write_bytes(b"NSPW" + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"x"
                         + struct.pack("<I", 2 ** 32 - 1))
        with pytest.raises(ValueError, match="truncated header"):
            tensorio.read_tensors(path)

    @pytest.mark.parametrize("tensors", [
        {},
        {"basis": np.zeros(3)},
        {"basis": np.zeros((2, 1)), "extra": np.zeros(1)},
        {"other": np.zeros((2, 1))},
    ])
    def test_basis_needs_exactly_one_2d_basis_tensor(self, tmp_path, tensors):
        path = tmp_path / "wrong.nspb"
        tensorio.write_tensors(path, tensors)
        with pytest.raises(ValueError, match="not a basis file"):
            load_basis(path)


class TestFuzz:
    @pytest.mark.parametrize("make", [_container_bytes, _basis_bytes])
    def test_every_truncation_rejected(self, tmp_path, make):
        path = tmp_path / "file"
        blob = make(path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                tensorio.read_tensors(path)
            with pytest.raises(ValueError):
                load_basis(path)

    @settings(max_examples=50, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_appended_bytes_rejected(self, shared_dir, extra):
        path = shared_dir / "appended"
        for make in (_container_bytes, _basis_bytes):
            path.write_bytes(make(path) + extra)
            with pytest.raises(ValueError, match="trailing bytes"):
                tensorio.read_tensors(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), basis_file=st.booleans())
    def test_header_mutations_rejected_or_round_trip(self, shared_dir, data, basis_file):
        path = shared_dir / "mutated"
        blob = bytearray((_basis_bytes if basis_file else _container_bytes)(path))
        data_bytes = 8 * (6 if basis_file else sum(t.size for t in TENSORS.values()))
        header_size = len(blob) - data_bytes
        edits = data.draw(st.lists(st.tuples(st.integers(0, header_size - 1),
                                             st.integers(0, 255)),
                                   min_size=1, max_size=4))
        for pos, value in edits:
            blob[pos] = value
        path.write_bytes(bytes(blob))

        try:
            tensors = tensorio.read_tensors(path)
        except ValueError:
            return  # load_basis reads through read_tensors, so it rejects too
        # Accepted only if it is exactly what the writer produces.
        tensorio.write_tensors(path, tensors)
        assert path.read_bytes() == bytes(blob)
        try:
            basis = load_basis(path)
        except ValueError:
            return
        save_basis(basis, path)
        assert path.read_bytes() == bytes(blob)
