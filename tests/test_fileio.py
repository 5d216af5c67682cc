"""File formats: PGM depth, PROBIMG1, LGRID1 snapshots, manifests, PLY."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from labelgrid import Box3, LabelOccupancyGrid, simulate
from labelgrid.fileio import (grid_from_bytes, grid_to_bytes, load_frame,
                              load_grid, read_depth_pgm, read_manifest,
                              read_probimg, save_grid, write_depth_pgm,
                              write_ply, write_probimg)
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
