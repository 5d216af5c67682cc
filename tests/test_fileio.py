"""File formats: PGM depth, PROBIMG1, LGRID1 snapshots, manifests, PLY."""

import builtins
import errno
import hashlib
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgrid import (Box3, CameraIntrinsics, LabelOccupancyGrid, Pose, register_frame,
                       softmax_image)
from labelgrid.fileio import (grid_from_bytes, grid_to_bytes, load_frame,
                              load_grid, pose_record, read_depth_pgm,
                              read_frame_records, read_manifest, read_probimg,
                              save_grid, write_depth_pgm, write_manifest, write_ply,
                              write_probimg)
from labelgrid.grid import unpack_codes
from labelgrid.simulator import simulate, simulate_frames


class TestDepthPgm:
    def test_round_trip_millimeters(self, tmp_path):
        depth = np.array([[0.5, 1.234], [0.0, 2.0]])
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, depth)
        back = read_depth_pgm(path)
        assert np.array_equal(back, [[0.5, 1.234], [0.0, 2.0]])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, np.full((2, 3), 0.1))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 2\n65535\n")
        assert len(raw) == len(b"P5\n3 2\n65535\n") + 2 * 3 * 2

    def test_big_endian_samples(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, np.array([[0.258]]))  # 258 mm = 0x0102
        raw = path.read_bytes()
        assert raw.endswith(b"\x01\x02")

    def test_invalid_values_stored_as_zero(self, tmp_path):
        depth = np.array([[math.nan, -0.5, 0.0, 1.0]]).reshape(2, 2)
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, depth)
        back = read_depth_pgm(path)
        assert np.array_equal(back, [[0.0, 0.0], [0.0, 1.0]])

    def test_range_overflow_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_depth_pgm(tmp_path / "d.pgm", np.array([[70.0]]))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n65535\n00")
        with pytest.raises(ValueError):
            read_depth_pgm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_depth_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P5\n# CREATOR: GIMP PNM Filter Version 1.1\n3 2\n65535\n",
        b"P5 3# width\n# and height\r2\n65535\n",
        b"P5\n3 2\n#\n  # maxval\n\t65535\n",
        b"P5#\n3 2 65535\n",
    ], ids=["after the magic", "between the sizes", "before the maxval", "touching the magic"])
    def test_header_comments_are_skipped(self, tmp_path, header):
        """Netpbm allows a '#' comment, to the end of its line, wherever the
        header allows whitespace before the maxval."""
        path = tmp_path / "d.pgm"
        mm = np.arange(1, 7, dtype=">u2").reshape(2, 3)
        path.write_bytes(header + mm.tobytes())
        assert np.array_equal(read_depth_pgm(path), mm / 1000.0)

    def test_raster_that_starts_with_a_hash_is_data(self, tmp_path):
        """The raster starts right after the maxval's one whitespace byte,
        so a '#' there is a sample, not a comment."""
        path = tmp_path / "d.pgm"
        raster = b"#\n\n#" + b"\x00\x01"
        path.write_bytes(b"P5\n3 1\n65535\n" + raster)
        assert np.array_equal(read_depth_pgm(path),
                              np.frombuffer(raster, ">u2").reshape(1, 3) / 1000.0)


class TestProbimg:
    def test_round_trip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        probs = rng.random((4, 5, 3))
        path = tmp_path / "p.probimg"
        write_probimg(path, probs)
        back = read_probimg(path)
        assert back.shape == (4, 5, 3)
        assert np.array_equal(back, probs.astype(np.float32).astype(float))

    def test_header_line(self, tmp_path):
        path = tmp_path / "p.probimg"
        write_probimg(path, np.zeros((2, 3, 4)))
        assert path.read_bytes().startswith(b"PROBIMG1 2 3 4\n")

    def test_row_major_channel_fastest(self, tmp_path):
        arr = np.arange(12, dtype=float).reshape(2, 3, 2)
        path = tmp_path / "p.probimg"
        write_probimg(path, arr)
        raw = path.read_bytes()
        payload = np.frombuffer(raw.split(b"\n", 1)[1], dtype="<f4")
        assert np.array_equal(payload, np.arange(12, dtype=np.float32))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "p.probimg"
        write_probimg(path, np.zeros((2, 2, 2)))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError):
            read_probimg(path)

    def test_read_stays_float32(self, tmp_path):
        path = tmp_path / "p.probimg"
        write_probimg(path, np.full((2, 3, 4), 0.25))
        assert read_probimg(path).dtype == np.float32

    def test_payload_is_not_read_at_open(self, tmp_path):
        """Opening takes no room for the payload, and a payload written in
        place after opening is the one read; the array read is the
        caller's own, and writing it leaves the file as it was."""
        path = tmp_path / "p.probimg"
        write_probimg(path, np.random.default_rng(4).random((64, 64, 40)))
        payload = 64 * 64 * 40 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            image = read_probimg(path)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < payload // 100
        assert image.dtype == np.float32 and image.shape == (64, 64, 40)
        written = np.random.default_rng(5).random((64, 64, 40)).astype("<f4")
        offset = path.read_bytes().index(b"\n") + 1
        with open(path, "r+b") as f:
            f.seek(offset)
            f.write(written.tobytes())
        array = np.asarray(image)
        assert np.array_equal(array, written)
        array[...] = 0.0
        assert np.array_equal(np.asarray(image), written)

    def test_header_read_is_bounded(self, tmp_path):
        """A large file with no newline fails without being read whole."""
        path = tmp_path / "p.probimg"
        size = 4 * 2 ** 20
        path.write_bytes(b"P" * size)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: missing PROBIMG1 "
                                                 "header line"):
                read_probimg(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size // 64

    @pytest.mark.parametrize("data, message", [
        (b"PROBIMG1 1 1 1", "missing PROBIMG1 header line"),
        (b"", "missing PROBIMG1 header line"),
        (b"PROBIMG1 1 1 1 " + b"1" * 200 + b"\n\x00\x00\x80\x3f", "malformed PROBIMG1 header"),
        (b"\x00" * 300 + b"\n\x00\x00\x80\x3f", "malformed PROBIMG1 header"),
    ])
    def test_header_line_errors(self, tmp_path, data, message):
        """No newline at all, and a first line longer than any header the
        writer makes, are both header errors naming the file."""
        path = tmp_path / "p.probimg"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}"):
            read_probimg(path)


def read_or_error(reader, path):
    """The array of the image the reader returns, or the message of the
    ValueError it raises; any other exception fails the test."""
    try:
        return np.asarray(reader(path))
    except ValueError as exc:
        return str(exc)


IMAGE_READERS = {
    "pgm": (read_depth_pgm, write_depth_pgm, np.full((3, 4), 1.25)),
    "probimg": (read_probimg, write_probimg, np.full((3, 4, 2), 0.5)),
}

SIZE_TOKENS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from(["0", "-0", "+3", " 3", "3.0", "1e3", "0x3", "3_0", "\u0663", "",
                     "9" * 18, "9" * 19, "9" * 5000]),
    st.text(max_size=8))


class TestImageHeaderErrors:
    @pytest.mark.parametrize("reader,data,field", [
        (read_depth_pgm, b"P5\nx 1\n65535\n\x00\x00", "width"),
        (read_depth_pgm, b"P5\n1 -2\n65535\n", "height"),
        (read_depth_pgm, b"P5\n0 0\n65535\n", "width"),
        (read_depth_pgm, b"P5\n1 1\n6e4\n\x00\x00", "maxval"),
        (read_probimg, b"PROBIMG1 2 -1 2\n", "width"),
        (read_probimg, b"PROBIMG1 0 0 0\n", "height"),
        (read_probimg, b"PROBIMG1 1 1 1.5\n\x00\x00\x80\x3f", "channels"),
    ])
    def test_bad_size_names_file_and_field(self, tmp_path, reader, data, field):
        path = tmp_path / "image.bin"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {field} must be "
                                             r"a positive integer"):
            reader(path)

    @pytest.mark.parametrize("writer,shape,field", [
        (write_probimg, (0, 0, 0), "height"),
        (write_probimg, (2, 0, 3), "width"),
        (write_probimg, (2, 3, 0), "channels"),
        (write_depth_pgm, (0, 5), "height"),
        (write_depth_pgm, (4, 0), "width"),
    ])
    def test_empty_image_not_written(self, tmp_path, writer, shape, field):
        """The readers reject a zero size, so the writers refuse to make one."""
        path = tmp_path / "image.bin"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{field} 0"):
            writer(path, np.zeros(shape))
        assert not path.exists()

    @pytest.mark.parametrize("kind", sorted(IMAGE_READERS))
    @settings(max_examples=150, deadline=None)
    @given(cut=st.integers(0, 10 ** 6), flips=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                                                  st.integers(0, 7)),
                                                        max_size=3))
    def test_truncated_or_bit_flipped_file(self, tmp_path_factory, kind, cut, flips):
        reader, writer, image = IMAGE_READERS[kind]
        path = tmp_path_factory.mktemp(kind) / f"image.{kind}"
        writer(path, image)
        good = path.read_bytes()
        header = good.index(b"\n", len(good) - image.size * (2 if kind == "pgm" else 4) - 1)
        data = bytearray(good[:cut % (len(good) + 1)])
        for pos, bit in flips:  # flip bits inside the header only
            if data:
                data[pos % min(len(data), header + 1)] ^= 1 << bit
        path.write_bytes(bytes(data))
        got = read_or_error(reader, path)
        if isinstance(got, str):
            assert got.startswith(f"{path}: ")
        else:  # a flip or a cut can leave a smaller valid image
            assert got.ndim == image.ndim and got.size > 0
        if bytes(data) == good:
            assert np.array_equal(got, image.astype(got.dtype))

    @pytest.mark.parametrize("kind", sorted(IMAGE_READERS))
    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(SIZE_TOKENS, min_size=3, max_size=3), payload=st.integers(0, 64))
    def test_huge_negative_or_non_numeric_sizes(self, tmp_path_factory, kind, sizes, payload):
        reader = IMAGE_READERS[kind][0]
        path = tmp_path_factory.mktemp(kind) / f"image.{kind}"
        if kind == "pgm":
            head = f"P5\n{sizes[0]} {sizes[1]}\n{sizes[2]}\n"
        else:
            head = f"PROBIMG1 {sizes[0]} {sizes[1]} {sizes[2]}\n"
        path.write_bytes(head.encode("utf-8", "surrogatepass") + bytes(payload))
        got = read_or_error(reader, path)
        if isinstance(got, str):
            assert got.startswith(f"{path}: ")
        else:
            assert got.size > 0


def populated_grid(roi=None, clamp=3.5):
    grid = LabelOccupancyGrid(0.01, 3, clamp=clamp, roi=roi)
    rng = np.random.default_rng(9)
    for _ in range(200):
        key = tuple(int(v) for v in rng.integers(-20, 20, size=3))
        grid.update_voxel(key, int(rng.integers(0, 3)), float(rng.uniform(0.1, 0.9)))
    return grid


class TestLgridSnapshot:
    def test_magic_and_stability(self):
        grid = populated_grid()
        raw = grid_to_bytes(grid)
        assert raw.startswith(b"LGRID1\n")
        assert raw == grid_to_bytes(grid)

    def test_save_load_round_trip_fixed_point(self, tmp_path):
        grid = populated_grid(roi=Box3((-1, -1, -1), (1, 1, 1)))
        path = tmp_path / "g.lgrid"
        save_grid(path, grid)
        loaded = load_grid(path)
        assert loaded.resolution == grid.resolution
        assert loaded.num_labels == grid.num_labels
        assert loaded.clamp == grid.clamp
        assert loaded.roi == grid.roi
        assert np.array_equal(loaded.codes, grid.codes)
        # float64 cells quantize to float32 exactly once: resaving is stable
        assert grid_to_bytes(loaded) == grid_to_bytes(grid)
        reloaded = grid_from_bytes(grid_to_bytes(loaded))
        assert reloaded == loaded

    @pytest.mark.parametrize("grid", [
        populated_grid(),
        populated_grid(roi=Box3((-1, -1, -1), (1, 1, 1))),
        LabelOccupancyGrid(0.01, 3, roi=Box3((0, 0, 0), (1, 1, 1))),
    ], ids=["plain", "roi", "no-cells"])
    def test_saved_file_is_grid_to_bytes(self, tmp_path, grid):
        path = tmp_path / "g.lgrid"
        save_grid(path, grid)
        assert path.read_bytes() == grid_to_bytes(grid)

    def test_cell_values_are_float32_of_originals(self, tmp_path):
        grid = populated_grid()
        loaded = grid_from_bytes(grid_to_bytes(grid))
        assert np.array_equal(loaded.codes, grid.codes)
        assert np.array_equal(loaded.log_odds_matrix,
                              grid.log_odds_matrix.astype(np.float32).astype(float))

    def test_infinite_clamp_round_trips(self):
        grid = populated_grid(clamp=math.inf)
        loaded = grid_from_bytes(grid_to_bytes(grid))
        assert loaded.clamp == math.inf

    def test_cells_sorted_by_key(self):
        grid = populated_grid()
        raw = grid_to_bytes(grid)
        # header: magic + (d, I, d) + roi flag + count
        offset = 7 + 8 + 4 + 8 + 1 + 8
        keys = []
        cell = 12 + 4 * grid.num_labels
        for i in range(len(grid)):
            ix, iy, iz = np.frombuffer(raw, dtype="<i4", count=3, offset=offset + i * cell)
            keys.append((int(ix), int(iy), int(iz)))
        assert keys == sorted(keys)

    def test_truncation_detected(self):
        raw = grid_to_bytes(populated_grid())
        with pytest.raises(ValueError):
            grid_from_bytes(raw[:-3])
        with pytest.raises(ValueError):
            grid_from_bytes(raw + b"x")
        with pytest.raises(ValueError):
            grid_from_bytes(b"NOTGRID" + raw)


# header: magic + (d, I, d) + roi flag, then the u64 cell count
COUNT_OFFSET = 7 + 8 + 4 + 8 + 1


def lgrid_cells(grid):
    """Header bytes and the list of per-cell byte strings of a snapshot."""
    raw = grid_to_bytes(grid)
    cell = 12 + 4 * grid.num_labels
    body = raw[COUNT_OFFSET + 8:]
    return raw[:COUNT_OFFSET], [body[i:i + cell] for i in range(0, len(body), cell)]


def lgrid_with_cells(header, cells):
    return header + struct.pack("<Q", len(cells)) + b"".join(cells)


class TestLgridReaderHardening:
    @pytest.mark.parametrize("count", [2 ** 40, 2 ** 62, 2 ** 64 - 1])
    def test_huge_cell_count_rejected_without_allocating(self, count):
        header, cells = lgrid_cells(populated_grid())
        raw = header + struct.pack("<Q", count) + b"".join(cells)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                grid_from_bytes(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unsorted_keys_rejected(self):
        header, cells = lgrid_cells(populated_grid())
        cells[3], cells[4] = cells[4], cells[3]
        with pytest.raises(ValueError, match="increasing"):
            grid_from_bytes(lgrid_with_cells(header, cells))

    def test_duplicate_keys_rejected(self):
        header, cells = lgrid_cells(populated_grid())
        with pytest.raises(ValueError, match="duplicate"):
            grid_from_bytes(lgrid_with_cells(header, cells[:5] + cells[4:]))

    @pytest.mark.parametrize("key", [(2 ** 20, 0, 0), (0, -(2 ** 20) - 1, 0), (0, 0, 2 ** 31 - 1)])
    def test_key_past_the_range_rejected(self, key):
        header, cells = lgrid_cells(populated_grid())
        cells[-1] = struct.pack("<3i", *key) + cells[-1][12:]
        with pytest.raises(ValueError, match="outside"):
            grid_from_bytes(lgrid_with_cells(header, cells))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: raw[:-3], "truncated LGRID1 snapshot"),
        (lambda raw: b"NOTGRID" + raw[7:], "not an LGRID1 snapshot"),
        (lambda raw: raw + b"x", "1 trailing bytes"),
        (lambda raw: raw[:7] + struct.pack("<d", -0.01) + raw[15:], "resolution must be"),
    ], ids=["truncated", "magic", "trailing", "resolution"])
    def test_load_grid_names_the_file(self, tmp_path, corrupt, message):
        path = tmp_path / "frame_0007.lgrid"
        path.write_bytes(corrupt(grid_to_bytes(populated_grid())))
        with pytest.raises(ValueError) as info:
            load_grid(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_extreme_keys_round_trip(self):
        grid = LabelOccupancyGrid(0.005, 2)
        keys = [(-(2 ** 20), 0, 0), (-(2 ** 20 - 1), 5, 2 ** 20 - 1), (2 ** 20 - 1, 0, 0)]
        for key in keys:
            grid.update_voxel(key, 1, 0.8)
        raw = grid_to_bytes(grid)
        loaded = grid_from_bytes(raw)
        assert unpack_codes(loaded.codes).tolist() == [list(key) for key in keys]
        assert grid_to_bytes(loaded) == raw


def small_snapshot(roi, clamp):
    """LGRID1 bytes of a 12-cell grid, some cells saturated at +-clamp."""
    grid = LabelOccupancyGrid(0.01, 3, clamp=clamp, roi=roi)
    for i in range(12):
        for _ in range(1 + i % 4):
            grid.update_voxel((i - 6, i % 3, 2 * i), i % 3, 0.97 if i % 2 else 0.03)
    return grid_to_bytes(grid)


LGRID_BASES = {
    "plain": small_snapshot(None, 3.5),
    "roi": small_snapshot(Box3((-1, -2, -3), (1, 2, 3)), 3.5),
    # float32(0.1) rounds up: saturated cells sit just above the float64 clamp
    "clamp-0.1": small_snapshot(None, 0.1),
    "clamp-inf-roi": small_snapshot(Box3((0, 0, 0), (1, 1, 1)), math.inf),
}


def lgrid_field(raw: bytes, name: str) -> tuple[int, str]:
    """Offset and struct format of a header field of the snapshot ``raw``."""
    roi = raw[COUNT_OFFSET - 1] == 1
    if name.startswith("roi corner "):
        return COUNT_OFFSET + 8 * int(name[-1]), "<d"
    return {"resolution": (7, "<d"), "num_labels": (15, "<I"), "clamp": (19, "<d"),
            "roi flag": (27, "<B"),
            "cell count": (COUNT_OFFSET + (48 if roi else 0), "<Q")}[name]


FIELD_NAMES = ["resolution", "num_labels", "clamp", "roi flag", "cell count",
               *(f"roi corner {i}" for i in range(6))]
FIELD_INTS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 2 ** 31, 2 ** 32 - 1, 2 ** 63, 2 ** 64 - 1, -1, -3]),
    st.integers(-2 ** 63, 2 ** 64 - 1))
FIELD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 5e-324, 1e308, math.inf, -math.inf, math.nan]),
    st.floats())
LGRID_EDITS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2000)),
    st.tuples(st.just("flip"), st.integers(0, 2000), st.integers(0, 7)),
    st.tuples(st.just("write"), st.integers(0, 2000), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("field"), st.sampled_from(FIELD_NAMES), FIELD_INTS, FIELD_FLOATS))


def edit_lgrid(raw: bytes, edits) -> bytes:
    data = bytearray(raw)
    for kind, *args in edits:
        if kind == "cut":
            del data[args[0] % (len(data) + 1):]
        elif not data:
            continue
        elif kind == "flip":
            data[args[0] % len(data)] ^= 1 << args[1]
        elif kind == "write":
            pos = args[0] % len(data)
            data[pos:pos + len(args[1])] = args[1]
        else:
            offset, fmt = lgrid_field(raw, args[0])
            if fmt == "<d":
                value = struct.pack(fmt, args[2])
            else:  # a negative number is written as its two's complement
                value = struct.pack(fmt, args[1] % (1 << 8 * struct.calcsize(fmt)))
            data[offset:offset + len(value)] = value
    return bytes(data)


class TestLgridFuzz:
    """A damaged snapshot either fails to load with a ValueError naming the
    file, or loads to a grid that writes back exactly the bytes read."""

    def check(self, tmp_path_factory, data: bytes) -> None:
        path = tmp_path_factory.mktemp("lgrid") / "frame_0003.lgrid"
        path.write_bytes(data)
        try:
            grid = load_grid(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert grid_to_bytes(grid) == data

    @pytest.mark.parametrize("base", sorted(LGRID_BASES))
    def test_bases_round_trip(self, base):
        assert grid_to_bytes(grid_from_bytes(LGRID_BASES[base])) == LGRID_BASES[base]

    @settings(max_examples=400, deadline=None)
    @given(base=st.sampled_from(sorted(LGRID_BASES)),
           edits=st.lists(LGRID_EDITS, min_size=1, max_size=4))
    def test_damaged_snapshot(self, tmp_path_factory, base, edits):
        self.check(tmp_path_factory, edit_lgrid(LGRID_BASES[base], edits))

    @settings(max_examples=200, deadline=None)
    @given(base=st.sampled_from(sorted(LGRID_BASES)), name=st.sampled_from(FIELD_NAMES),
           integer=FIELD_INTS, number=FIELD_FLOATS)
    def test_header_field_overwritten(self, tmp_path_factory, base, name, integer, number):
        self.check(tmp_path_factory,
                   edit_lgrid(LGRID_BASES[base], [("field", name, integer, number)]))

    @pytest.mark.parametrize("name, value, message", [
        ("num_labels", 2 ** 32 - 1, "an LGRID1 cell of 4294967295 labels exceeds 2 GiB"),
        ("roi flag", 2, "roi flag must be 0 or 1, got 2"),
        ("roi flag", 255, "roi flag must be 0 or 1, got 255"),
    ])
    def test_header_values_rejected(self, tmp_path, name, value, message):
        raw = LGRID_BASES["plain"]
        if name == "num_labels":  # with no cells, only the label count is wrong
            raw = raw[:COUNT_OFFSET] + struct.pack("<Q", 0)
        path = tmp_path / "g.lgrid"
        path.write_bytes(edit_lgrid(raw, [("field", name, value, 0.0)]))
        with pytest.raises(ValueError) as info:
            load_grid(path)
        assert str(info.value) == f"{path}: {message}"


class TestLgridCellValues:
    def cell_offset(self, raw: bytes, cell: int, label: int) -> int:
        num_labels = struct.unpack_from("<I", raw, 15)[0]
        cells = lgrid_field(raw, "cell count")[0] + 8
        return cells + cell * (12 + 4 * num_labels) + 12 + 4 * label

    @pytest.mark.parametrize("base, value, shown", [
        ("roi", math.nan, "nan is not finite"),
        ("roi", math.inf, "inf is not finite"),
        ("roi", -math.inf, "-inf is not finite"),
        ("roi", 1e30, "1e+30 exceeds the clamp 3.5"),
        ("roi", -3.5001, "-3.5001 exceeds the clamp 3.5"),
        ("clamp-inf-roi", math.inf, "inf is not finite"),
    ])
    def test_invalid_cell_names_file_cell_and_value(self, tmp_path, base, value, shown):
        raw = bytearray(LGRID_BASES[base])
        offset = self.cell_offset(raw, 7, 2)
        raw[offset:offset + 4] = struct.pack("<f", value)
        path = tmp_path / "frame_0009.lgrid"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            load_grid(path)
        assert str(info.value) == f"{path}: cell 7 label 2: log-odds {shown}"

    @pytest.mark.parametrize("clamp", [0.1, 0.3, 1 / 3, 3.5, 1e-30, 3e38, 1e39])
    def test_cells_at_the_float32_clamp_load(self, clamp):
        """A value clamped in float64 is within float32(clamp) after the cast."""
        grid = LabelOccupancyGrid(0.01, 2, clamp=clamp)
        value = min(clamp, 3e38)
        grid.set_cells(np.array([5, 9]), [[value, -value], [-value, 0.0]])
        raw = grid_to_bytes(grid)
        assert grid_to_bytes(grid_from_bytes(raw)) == raw

    def test_cell_beyond_float32_not_written(self, tmp_path):
        grid = LabelOccupancyGrid(0.01, 2, clamp=math.inf)
        grid.set_cells(np.array([5, 9]), [[0.0, 1.0], [1e39, 0.0]])
        path = tmp_path / "g.lgrid"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*float32"):
            save_grid(path, grid)
        assert not path.exists()

    def test_failed_write_leaves_the_old_snapshot_whole(self, tmp_path, monkeypatch):
        """A write that fails after the header, as on a full disk, leaves the
        file it would replace as it was, and no temporary file."""
        from labelgrid import fileio

        path = tmp_path / "g.lgrid"
        save_grid(path, populated_grid())
        old = path.read_bytes()

        class FillsUp:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if self.f.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.f.write(data)

        monkeypatch.setattr(fileio, "open", lambda file, mode: FillsUp(builtins.open(file, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            save_grid(path, populated_grid(clamp=2.0))
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_a_missing_directory_is_named_in_the_error(self, tmp_path):
        path = tmp_path / "missing" / "g.lgrid"
        with pytest.raises(FileNotFoundError) as info:
            save_grid(path, populated_grid())
        assert info.value.filename == str(path)


class TestManifestAndFrames:
    def test_simulate_emits_loadable_stream(self, tmp_path, bin_scene,
                                            intrinsics, noise_model):
        from conftest import make_trajectory
        manifest = simulate(bin_scene, make_trajectory(1), intrinsics,
                            noise_model, tmp_path / "run", num_labels=40)
        records = read_manifest(manifest)
        assert len(records) == 4 * 4 + 3
        frames = [load_frame(r, manifest.parent) for r in records]
        in_memory = simulate_frames(bin_scene, make_trajectory(1), intrinsics,
                                    noise_model, 40)
        assert len(frames) == len(in_memory)
        for disk, mem in zip(frames, in_memory):
            assert disk.timestamp == mem.timestamp
            assert np.array_equal(disk.depth, mem.depth)
            assert np.array_equal(disk.proba, mem.proba)
            assert np.array_equal(disk.pose.rotation, mem.pose.rotation)
            assert np.array_equal(disk.pose.translation, mem.pose.translation)

    def test_simulation_is_byte_deterministic(self, tmp_path, bin_scene,
                                              intrinsics, noise_model):
        from conftest import make_trajectory
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            simulate(bin_scene, make_trajectory(2), intrinsics, noise_model,
                     out, num_labels=40)
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1]

    @staticmethod
    def logits_record(tmp_path, scores) -> dict:
        """A one-frame record whose class scores are in a logits_file."""
        h, w, _ = scores.shape
        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=w / 2, cy=h / 2, width=w, height=h)
        write_depth_pgm(tmp_path / "depth.pgm", np.ones((h, w)))
        write_probimg(tmp_path / "scores.probimg", scores)
        return {"depth_file": "depth.pgm", "logits_file": "scores.probimg",
                "timestamp": 0.0, "pose": pose_record(Pose.identity(), intr, 0.0)}

    def test_logits_file_softmaxed_at_load(self, tmp_path):
        scores = np.random.default_rng(5).normal(scale=4.0, size=(3, 4, 5))
        frame = load_frame(self.logits_record(tmp_path, scores), tmp_path)
        expected = softmax_image(read_probimg(tmp_path / "scores.probimg"))
        assert np.array_equal(frame.proba, expected)

    def test_non_finite_logit_rejected_at_registration(self, tmp_path):
        scores = np.zeros((3, 4, 5))
        scores[1, 2, 3] = np.inf
        record = self.logits_record(tmp_path, scores)
        path = re.escape(str(tmp_path / "scores.probimg"))
        with pytest.raises(ValueError, match=rf"^{path}: non-finite score at pixel \(row=1, col=2"):
            register_frame(load_frame(record, tmp_path), 0.01)

    def test_record_without_image_rejected(self, tmp_path):
        record = self.logits_record(tmp_path, np.zeros((3, 4, 5)))
        del record["logits_file"]
        with pytest.raises(ValueError, match="proba_file or logits_file"):
            load_frame(record, tmp_path)

    def test_wrong_sized_depth_names_the_depth_file(self, tmp_path):
        record = self.logits_record(tmp_path, np.zeros((4, 4, 5)))
        write_depth_pgm(tmp_path / "depth.pgm", np.ones((3, 4)))
        with pytest.raises(ValueError) as info:
            load_frame(record, tmp_path)
        assert str(info.value) == (f"{tmp_path / 'depth.pgm'}: depth shape (3, 4) "
                                   "does not match intrinsics (4, 4)")

    def test_frame_records_parse_poses_without_reading_images(self, tmp_path):
        record = self.logits_record(tmp_path, np.zeros((3, 4, 5)))
        record["depth_file"] = "missing.pgm"
        write_manifest(tmp_path / "manifest.json", [record])
        (item,) = read_frame_records(tmp_path / "manifest.json")
        assert item.timestamp == 0.0
        assert np.array_equal(item.pose.rotation, np.eye(3))
        with pytest.raises(OSError):
            item.load()

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["pose"].pop("fx"), "record 1: pose: missing field 'fx'"),
        (lambda r: r["pose"].update(width=4.5), "record 1: pose: field 'width' must be an integer"),
        (lambda r: r["pose"].update(timestamp="0"), "record 1: pose: field 'timestamp' must be a number"),
        (lambda r: r["pose"].update(timestamp=math.nan),
         "record 1: pose: field 'timestamp' must be a number, got nan"),
        (lambda r: r["pose"].update(fx=math.inf), "record 1: pose: field 'fx' must be a number, got inf"),
        (lambda r: r["pose"].update(cy=10 ** 400), "record 1: pose: field 'cy' must be a number, got 1000"),
        (lambda r: r["pose"].update(translation=[0, 0]),
         "record 1: pose: field 'translation' must be a list of 3 numbers"),
        (lambda r: r["pose"].update(rotation=[1, 0, 0, 0, 1, 0, 0, 0, True]),
         "record 1: pose: field 'rotation' must be a list of 9 numbers"),
        (lambda r: r.pop("pose"), "record 1: pose: must be a JSON object, got None"),
        (lambda r: r.pop("logits_file"), "record 1: needs a proba_file or logits_file"),
        (lambda r: r.update(depth_file=3), "record 1: field 'depth_file' must be a file name"),
        (lambda r: r.update(timestamp=True), "record 1: field 'timestamp' must be a number"),
        (lambda r: r.update(timestamp=0.5),
         "record 1: field 'timestamp' is 0.5 but pose.timestamp is 0.0"),
    ])
    def test_frame_record_errors_name_index_and_field(self, tmp_path, edit, message):
        good = self.logits_record(tmp_path, np.zeros((3, 4, 5)))
        bad = json.loads(json.dumps(good))
        edit(bad)
        write_manifest(tmp_path / "manifest.json", [good, bad])
        with pytest.raises(ValueError, match=re.escape(message)):
            read_frame_records(tmp_path / "manifest.json")
        # decoding the record on its own runs the same check
        with pytest.raises(ValueError, match=re.escape(message.removeprefix("record 1: "))):
            load_frame(bad, tmp_path)

    # a marker string that the manifest text replaces with the JSON number 1e400
    HUGE = "<1e400>"
    # values that no record field takes; strings are valid file names
    NOT_A_STRING = st.one_of(
        st.none(), st.booleans(), st.just(math.nan), st.just(HUGE),
        st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(["depth_file", "logits_file", "timestamp", "pose"]
                                 + [f"pose.{name}" for name in ("timestamp", "fx", "fy", "cx",
                                    "cy", "width", "height", "rotation", "translation")]),
           data=st.data())
    def test_wrong_json_value_names_the_field(self, tmp_path_factory, field, data):
        wrong = self.NOT_A_STRING
        if not field.endswith("_file"):
            wrong = wrong | st.text(max_size=5)
        value = data.draw(wrong)
        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=2.0, cy=1.5, width=4, height=3)
        record = {"depth_file": "depth.pgm", "logits_file": "scores.probimg",
                  "timestamp": 0.0, "pose": pose_record(Pose.identity(), intr, 0.0)}
        *parent, name = field.split(".")
        (record[parent[0]] if parent else record)[name] = value
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        path.write_text(json.dumps([record]).replace(json.dumps(self.HUGE), "1e400"))
        # the whole pose object is named as the prefix of what is wrong inside it
        named = "record 0: pose: " if field == "pose" else (
            f"record 0: {''.join(p + ': ' for p in parent)}field '{name}'")
        with pytest.raises(ValueError, match=re.escape(named)):
            read_frame_records(path)

    def test_malformed_manifest_reports_line(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[\n  {"broken": }\n]\n')
        with pytest.raises(ValueError, match="line 2"):
            read_manifest(path)


class TestPly:
    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, np.zeros((0, 3)), np.zeros(0))
        text = path.read_text()
        assert text.startswith("ply\nformat ascii 1.0\nelement vertex 0\n")
        assert "property float probability" in text
        assert text.rstrip().endswith("end_header")

    def test_vertices_listed(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, [[0.5, 1.0, -2.0]], [0.75])
        lines = path.read_text().splitlines()
        assert lines[2] == "element vertex 1"
        assert lines[-1] == "0.5 1.0 -2.0 0.75"
