"""Fusion pipeline: velocity gate state machine and stream semantics."""

import math

import numpy as np
import pytest

from labelgrid import (CameraIntrinsics, GateConfig, LabelOccupancyGrid, Pose,
                       SensorFrame, camera_velocity, fuse_stream)
from labelgrid.fileio import grid_to_bytes

INTR = CameraIntrinsics(fx=16.0, fy=16.0, cx=8.0, cy=8.0, width=16, height=16)


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def frame_at(pose, timestamp, fill=0.7):
    depth = np.full((16, 16), 1.0)
    proba = np.zeros((16, 16, 2))
    proba[..., 0] = 1.0 - fill
    proba[..., 1] = fill
    return SensorFrame(timestamp=timestamp, depth=depth, pose=pose,
                       intrinsics=INTR, proba=proba)


class TestCameraVelocity:
    def test_identical_poses(self):
        p = Pose.identity()
        assert camera_velocity(p, 0.0, p, 0.1) == (0.0, 0.0)

    def test_linear_arithmetic(self):
        a = Pose(np.eye(3), [0.0, 0.0, 0.0])
        b = Pose(np.eye(3), [0.05, 0.0, 0.0])
        linear, angular = camera_velocity(a, 0.0, b, 0.5)
        assert linear == pytest.approx(0.1, abs=1e-12)
        assert angular == 0.0

    def test_angular_from_axis_angle_oracle(self):
        a = Pose(np.eye(3), np.zeros(3))
        b = Pose(rot_z(0.2), np.zeros(3))
        # oracle: arccos((trace - 1) / 2) of the known z-rotation
        expected_angle = math.acos((1.0 + 2.0 * math.cos(0.2) - 1.0) / 2.0)
        linear, angular = camera_velocity(a, 0.0, b, 0.1)
        assert angular == pytest.approx(expected_angle / 0.1, abs=1e-9)
        assert angular == pytest.approx(2.0, abs=1e-9)

    def test_time_must_advance(self):
        p = Pose.identity()
        with pytest.raises(ValueError):
            camera_velocity(p, 1.0, p, 1.0)
        with pytest.raises(ValueError):
            camera_velocity(p, 1.0, p, 0.5)


class TestGateStateMachine:
    def hold(self, n, pose, t0, dt=0.1):
        return [frame_at(pose, t0 + i * dt) for i in range(n)]

    def run_dispositions(self, frames, gate):
        dispositions = []
        grid = LabelOccupancyGrid(0.5, 2)
        fuse_stream(grid, frames, gate,
                    on_frame=lambda i, f, fused: dispositions.append(fused))
        return dispositions

    def test_single_stationary_frame_fuses_with_settle_one(self):
        grid = LabelOccupancyGrid(0.5, 2)
        stats = fuse_stream(grid, [frame_at(Pose.identity(), 0.0)],
                            GateConfig(settle_frames=1))
        assert stats.frames_fused == 1
        assert stats.frames_gated == 0

    def test_alternating_jumps_gate_everything_after_first(self):
        poses = [Pose(np.eye(3), [i % 2, 0.0, 0.0]) for i in range(6)]
        frames = [frame_at(p, 0.1 * i) for i, p in enumerate(poses)]
        disposition = self.run_dispositions(frames, GateConfig(settle_frames=1))
        assert disposition == [True] + [False] * 5

    def test_spec_oracle_table_settle_two(self):
        """Hand-enumerated gate table for [still, still, move, still, still]."""
        still = Pose.identity()
        moved = Pose(np.eye(3), [1.0, 0.0, 0.0])
        frames = [frame_at(still, 0.0), frame_at(still, 0.1),
                  frame_at(moved, 0.2), frame_at(moved, 0.3),
                  frame_at(moved, 0.4)]
        # frame 3 is "still" relative to frame 2, frame 4 still relative to 3
        disposition = self.run_dispositions(frames, GateConfig(settle_frames=2))
        # hand simulation: run=1 gated, run=2 fused, moving run=0,
        # still run=1 gated, still run=2 fused
        assert disposition == [False, True, False, False, True]

    def test_every_frame_has_exactly_one_disposition(self):
        rng = np.random.default_rng(4)
        frames = []
        pose = Pose.identity()
        for i in range(30):
            if rng.random() < 0.4:
                pose = Pose(np.eye(3), rng.uniform(-1, 1, size=3))
            frames.append(frame_at(pose, 0.1 * i))
        grid = LabelOccupancyGrid(0.5, 2)
        stats = fuse_stream(grid, frames, GateConfig(settle_frames=2))
        assert stats.frames_fused + stats.frames_gated == stats.frames_total == 30


class TestFuseStream:
    def test_unsorted_timestamps_name_the_frame(self):
        frames = [frame_at(Pose.identity(), 0.0),
                  frame_at(Pose.identity(), 0.2),
                  frame_at(Pose.identity(), 0.1)]
        grid = LabelOccupancyGrid(0.5, 2)
        with pytest.raises(ValueError, match="frame 2"):
            fuse_stream(grid, frames, GateConfig())

    def test_gated_frames_leave_grid_bit_identical(self):
        still = frame_at(Pose.identity(), 0.0)
        moving = [frame_at(Pose(np.eye(3), [float(i + 1), 0, 0]), 1.0 + 0.1 * i)
                  for i in range(4)]
        reference = LabelOccupancyGrid(0.5, 2)
        fuse_stream(reference, [still], GateConfig(settle_frames=1))
        grid = LabelOccupancyGrid(0.5, 2)
        stats = fuse_stream(grid, [still] + moving, GateConfig(settle_frames=1))
        assert stats.frames_fused == 1
        assert stats.frames_gated == 4
        assert grid_to_bytes(grid) == grid_to_bytes(reference)

    def test_disabled_gate_equals_sequential_fusion(self):
        frames = [frame_at(Pose(np.eye(3), [float(i), 0, 0]), 0.1 * i)
                  for i in range(5)]
        streamed = LabelOccupancyGrid(0.5, 2)
        fuse_stream(streamed, frames, GateConfig.disabled())
        sequential = LabelOccupancyGrid(0.5, 2)
        for frame in frames:
            fuse_stream(sequential, [frame], GateConfig.disabled())
        assert streamed == sequential

    def test_fusing_same_frame_twice_doubles_log_odds(self):
        frame1 = frame_at(Pose.identity(), 0.0)
        frame2 = frame_at(Pose.identity(), 0.1)
        once = LabelOccupancyGrid(0.5, 2, clamp=math.inf)
        fuse_stream(once, [frame1], GateConfig.disabled())
        twice = LabelOccupancyGrid(0.5, 2, clamp=math.inf)
        fuse_stream(twice, [frame1, frame2], GateConfig.disabled())
        assert set(twice.keys()) == set(once.keys())
        for key in once.keys():
            assert np.array_equal(twice.log_odds_vector(key),
                                  2.0 * once.log_odds_vector(key))

    def test_p_min_clamps_extreme_measurements(self):
        depth = np.full((16, 16), 1.0)
        proba = np.zeros((16, 16, 2))
        proba[..., 1] = 1.0  # saturated classifier output
        frame = SensorFrame(timestamp=0.0, depth=depth, pose=Pose.identity(),
                            intrinsics=INTR, proba=proba)
        grid = LabelOccupancyGrid(0.5, 2, clamp=math.inf)
        fuse_stream(grid, [frame], GateConfig(settle_frames=1), p_min=1e-3)
        key = next(iter(grid.keys()))
        assert grid.log_odds(key, 1) == pytest.approx(math.log(0.999 / 0.001), abs=1e-9)

    def test_stats_track_skipped_pixels(self):
        depth = np.full((16, 16), 1.0)
        depth[0, :] = 0.0
        proba = np.full((16, 16, 2), 0.5)
        frame = SensorFrame(timestamp=0.0, depth=depth, pose=Pose.identity(),
                            intrinsics=INTR, proba=proba)
        grid = LabelOccupancyGrid(0.5, 2)
        stats = fuse_stream(grid, [frame], GateConfig(settle_frames=1))
        assert stats.pixels_skipped_depth == 16

    def test_gate_config_validation(self):
        with pytest.raises(ValueError):
            GateConfig(linear_eps=-1.0)
        with pytest.raises(ValueError):
            GateConfig(settle_frames=0)
        with pytest.raises(ValueError):
            fuse_stream(LabelOccupancyGrid(0.5, 2), [], p_min=0.7)


def test_bin_scene_matches_per_voxel_oracle():
    """Fusing the occluded-bin scene equals the per-voxel pipeline bit for bit."""
    from conftest import NUM_LABELS, RESOLUTION, make_bin_scene, make_trajectory
    from labelgrid import NoiseModel, simulate_frames
    from oracles import oracle_lgrid_bytes, oracle_register, oracle_update

    scene = make_bin_scene()
    intr = CameraIntrinsics(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)
    frames = simulate_frames(scene, make_trajectory(0), intr,
                             NoiseModel(confidence=0.8, flip_rate=0.05, seed=42), NUM_LABELS)
    p_min, clamp = 1e-3, 3.5
    grid = LabelOccupancyGrid(RESOLUTION, NUM_LABELS, clamp=clamp, roi=scene.roi)
    fuse_stream(grid, frames, GateConfig.disabled(), p_min=p_min)

    cells: dict = {}
    for frame in frames:
        keys, means = oracle_register(frame, RESOLUTION, scene.roi)
        oracle_update(cells, scene.roi, RESOLUTION, clamp, keys,
                      np.clip(means, p_min, 1.0 - p_min))
    assert len(grid) == len(cells) > 0
    for key, vec in grid.items():
        assert vec.tobytes() == cells[key].tobytes()
    assert grid_to_bytes(grid) == oracle_lgrid_bytes(cells, RESOLUTION, NUM_LABELS,
                                                     clamp, scene.roi)
