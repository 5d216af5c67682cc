"""Fusion pipeline: velocity gate state machine and stream semantics."""

import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgrid import (CameraIntrinsics, GateConfig, GateState, LabelOccupancyGrid, Pose,
                       SensorFrame, camera_velocity, fuse_stream, gate_step, register_frame)
from labelgrid.fileio import grid_to_bytes
from labelgrid.grid import unpack_codes
from oracles import oracle_gate

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
        # NaN compares false both ways: neither side may be one
        for prev_time, curr_time in ((0.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="time must advance"):
                camera_velocity(p, prev_time, p, curr_time)


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

    def test_nan_timestamp_names_the_frame(self):
        """A NaN compares false both ways, so an ``<=`` test would let it and
        every later frame through; plain items skip SensorFrame's checks.
        ``camera_velocity``'s check is the only one, and the stream names the frame."""
        loaded = []
        items = [SimpleNamespace(timestamp=t, pose=Pose.identity(),
                                 load=lambda t=t: loaded.append(t))
                 for t in (0.0, 1.0, math.nan, 3.0)]
        with pytest.raises(ValueError, match=r"^frame 2: time must advance, got 1\.0 -> nan$"):
            fuse_stream(LabelOccupancyGrid(0.5, 2), items, GateConfig(settle_frames=3))
        assert loaded == []

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
        assert np.array_equal(twice.codes, once.codes)
        assert np.array_equal(twice.log_odds_matrix, 2.0 * once.log_odds_matrix)

    def test_p_min_clamps_extreme_measurements(self):
        depth = np.full((16, 16), 1.0)
        proba = np.zeros((16, 16, 2))
        proba[..., 1] = 1.0  # saturated classifier output
        frame = SensorFrame(timestamp=0.0, depth=depth, pose=Pose.identity(),
                            intrinsics=INTR, proba=proba)
        grid = LabelOccupancyGrid(0.5, 2, clamp=math.inf)
        fuse_stream(grid, [frame], GateConfig(settle_frames=1), p_min=1e-3)
        key = unpack_codes(grid.codes)[0]
        assert grid.log_odds(key, 1) == pytest.approx(math.log(0.999 / 0.001), abs=1e-9)

    def test_each_result_goes_before_the_next_frame_loads(self, monkeypatch):
        """fuse_stream holds one fused frame at a time: the registration
        result of a frame is freed before the next frame loads."""
        from labelgrid import fusion

        results = []

        def register(*args):
            result = register_frame(*args)
            results.append(weakref.ref(result))
            return result

        class Item:
            def __init__(self, frame):
                self.timestamp, self.pose, self.frame = frame.timestamp, frame.pose, frame

            def load(self):
                assert [ref() for ref in results] == [None] * len(results)
                return self.frame

        monkeypatch.setattr(fusion, "register_frame", register)
        frames = [frame_at(Pose(np.eye(3), [float(i), 0, 0]), 0.1 * i) for i in range(3)]
        stats = fuse_stream(LabelOccupancyGrid(0.5, 2), map(Item, frames), GateConfig.disabled())
        assert stats.frames_fused == len(results) == 3

    def test_stats_track_skipped_pixels(self):
        depth = np.full((16, 16), 1.0)
        depth[0, :] = 0.0
        proba = np.full((16, 16, 2), 0.5)
        frame = SensorFrame(timestamp=0.0, depth=depth, pose=Pose.identity(),
                            intrinsics=INTR, proba=proba)
        grid = LabelOccupancyGrid(0.5, 2)
        stats = fuse_stream(grid, [frame], GateConfig(settle_frames=1))
        assert stats.pixels_skipped_depth == 16

    def test_label_count_mismatch_names_the_frame(self):
        frames = [frame_at(Pose.identity(), 0.0), frame_at(Pose.identity(), 0.1)]
        grid = LabelOccupancyGrid(0.5, 3)
        with pytest.raises(ValueError, match="^frame 1 has 2 labels, but the grid has 3$"):
            fuse_stream(grid, frames, GateConfig())
        assert len(grid) == 0

    def test_gate_config_validation(self):
        with pytest.raises(ValueError):
            GateConfig(linear_eps=-1.0)
        for name in ("linear_eps", "angular_eps"):
            for bad in (-0.5, math.nan):
                with pytest.raises(ValueError, match="velocity thresholds"):
                    GateConfig(**{name: bad})
            for good in (0.0, math.inf):
                assert getattr(GateConfig(**{name: good}), name) == good
        for settle in (0, 2.7, True, math.nan, math.inf):
            with pytest.raises(ValueError, match="settle_frames"):
                GateConfig(settle_frames=settle)
        assert GateConfig(settle_frames=np.int64(3)).settle_frames == 3
        with pytest.raises(ValueError):
            fuse_stream(LabelOccupancyGrid(0.5, 2), [], p_min=0.7)


def test_bin_scene_matches_per_voxel_oracle():
    """Fusing the occluded-bin scene equals the per-voxel pipeline bit for bit."""
    from conftest import NUM_LABELS, RESOLUTION, make_bin_scene, make_trajectory
    from labelgrid.simulator import NoiseModel, simulate_frames
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
    for key, vec in zip(unpack_codes(grid.codes).tolist(), grid.log_odds_matrix):
        assert vec.tobytes() == cells[tuple(key)].tobytes()
    assert grid_to_bytes(grid) == oracle_lgrid_bytes(cells, RESOLUTION, NUM_LABELS,
                                                     clamp, scene.roi)


TINY = CameraIntrinsics(fx=2.0, fy=2.0, cx=1.0, cy=1.0, width=2, height=2)


STEPS = st.lists(st.tuples(st.integers(1, 1000), st.sampled_from(["still", "slide", "turn"])),
                 min_size=1, max_size=12)


def gate_stream(steps):
    """Frames ``(step_ms, motion)`` apart, and whether each one is still."""
    frames, still = [], []
    t, angle, x = 0.0, 0.0, 0.0
    for index, (step_ms, motion) in enumerate(steps):
        if index:
            t += step_ms * 1e-3
            # a move of 0.05 m or 0.1 rad within at most 1 s is far above 1e-3
            x += 0.05 if motion == "slide" else 0.0
            angle += 0.1 if motion == "turn" else 0.0
        still.append(motion == "still")
        frames.append(SensorFrame(timestamp=t, depth=np.ones((2, 2)),
                                  pose=Pose(rot_z(angle), [x, 0.0, 0.0]), intrinsics=TINY,
                                  proba=np.full((2, 2, 2), 0.5)))
    return frames, still


@settings(max_examples=100, deadline=None)
@given(STEPS, st.integers(1, 4))
def test_gate_fuses_after_settle_frames_still_frames(steps, settle):
    """Frame i fuses iff frames i - settle + 1 .. i all exist and are
    stationary; the first frame counts as stationary."""
    frames, still = gate_stream(steps)
    expected = oracle_gate(still, settle)

    seen = []
    stats = fuse_stream(LabelOccupancyGrid(0.5, 2), frames, GateConfig(settle_frames=settle),
                        on_frame=lambda i, item, fused: seen.append((i, item, fused)))
    assert [i for i, _, _ in seen] == list(range(len(frames)))
    assert all(item is frame for (_, item, _), frame in zip(seen, frames))
    assert [fused for _, _, fused in seen] == expected
    assert stats.frames_total == len(frames)
    assert stats.frames_fused == sum(expected)
    assert stats.frames_gated == len(frames) - sum(expected)


@settings(max_examples=200, deadline=None)
@given(STEPS, st.integers(1, 4), st.data())
def test_gate_step_resumes_from_any_split(steps, settle, data):
    """Folding ``gate_step`` over a stream's second part from its first
    part's final state gives the one-pass decisions, which are the window
    rule's and ``fuse_stream``'s; a gated item is never loaded."""
    frames, still = gate_stream(steps)
    split = data.draw(st.integers(0, len(frames)), label="split")
    gate = GateConfig(settle_frames=settle)

    def fold(state, part):
        decisions = []
        for frame in part:
            state, fused = gate_step(state, frame.timestamp, frame.pose, gate)
            decisions.append(fused)
        return state, decisions

    _, one_pass = fold(GateState(), frames)
    state, head = fold(GateState(), frames[:split])
    _, tail = fold(state, frames[split:])
    assert head + tail == one_pass
    assert one_pass == oracle_gate(still, settle)

    loaded, seen = [], []
    items = [SimpleNamespace(timestamp=frame.timestamp, pose=frame.pose,
                             load=lambda i=i, frame=frame: loaded.append(i) or frame)
             for i, frame in enumerate(frames)]
    fuse_stream(LabelOccupancyGrid(0.5, 2), items, gate,
                on_frame=lambda i, item, fused: seen.append(fused))
    assert seen == one_pass
    assert loaded == [i for i, fused in enumerate(one_pass) if fused]
