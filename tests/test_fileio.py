"""File formats: PGM depth, PROBIMG1, LGRID1 snapshots, manifests, PLY."""

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

from labelgrid import (Box3, CameraIntrinsics, LabelOccupancyGrid, Pose,
                       simulate, softmax_image)
from labelgrid.fileio import (grid_from_bytes, grid_to_bytes, load_frame,
                              load_grid, pose_record, read_depth_pgm,
                              read_frame_records, read_manifest, read_probimg,
                              save_grid, write_depth_pgm, write_manifest, write_ply,
                              write_probimg)
from labelgrid.simulator import simulate_frames


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


def read_or_error(reader, path):
    """The array the reader returns, or the message of the ValueError it
    raises; any other exception fails the test."""
    try:
        return reader(path)
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
        assert set(loaded.keys()) == set(grid.keys())
        # float64 cells quantize to float32 exactly once: resaving is stable
        assert grid_to_bytes(loaded) == grid_to_bytes(grid)
        reloaded = grid_from_bytes(grid_to_bytes(loaded))
        assert reloaded == loaded

    def test_cell_values_are_float32_of_originals(self, tmp_path):
        grid = populated_grid()
        loaded = grid_from_bytes(grid_to_bytes(grid))
        for key, vec in grid.items():
            assert np.array_equal(loaded.log_odds_vector(key),
                                  vec.astype(np.float32).astype(float))

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

    def test_extreme_keys_round_trip(self):
        grid = LabelOccupancyGrid(0.005, 2)
        keys = [(-(2 ** 20), 0, 0), (-(2 ** 20 - 1), 5, 2 ** 20 - 1), (2 ** 20 - 1, 0, 0)]
        for key in keys:
            grid.update_voxel(key, 1, 0.8)
        raw = grid_to_bytes(grid)
        loaded = grid_from_bytes(raw)
        assert list(loaded.keys()) == keys
        assert grid_to_bytes(loaded) == raw


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

    def test_non_finite_logit_rejected_at_load(self, tmp_path):
        scores = np.zeros((3, 4, 5))
        scores[1, 2, 3] = np.inf
        record = self.logits_record(tmp_path, scores)
        with pytest.raises(ValueError, match=r"non-finite score at pixel \(row=1, col=2"):
            load_frame(record, tmp_path)

    def test_record_without_image_rejected(self, tmp_path):
        record = self.logits_record(tmp_path, np.zeros((3, 4, 5)))
        del record["logits_file"]
        with pytest.raises(ValueError, match="proba_file or logits_file"):
            load_frame(record, tmp_path)

    def test_frame_records_parse_poses_without_reading_images(self, tmp_path):
        record = self.logits_record(tmp_path, np.zeros((3, 4, 5)))
        record["depth_file"] = "missing.pgm"
        write_manifest(tmp_path / "manifest.json", [record])
        (item,) = read_frame_records(tmp_path / "manifest.json")
        assert item.timestamp == 0.0
        assert np.array_equal(item.pose.rotation, np.eye(3))
        assert item.intrinsics.width == 4
        with pytest.raises(OSError):
            item.load()

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["pose"].pop("fx"), "record 1: pose: missing field 'fx'"),
        (lambda r: r["pose"].update(width=4.5), "record 1: pose: field 'width' must be an integer"),
        (lambda r: r["pose"].update(timestamp="0"), "record 1: pose: field 'timestamp' must be a number"),
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
