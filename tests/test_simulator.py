"""Simulator: analytic box renderer, synthetic classifier noise, trajectories."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from labelgrid import Box3, CameraIntrinsics, Pose, camera_velocity, look_at
from labelgrid import simulator
from labelgrid.geometry import slerp
from labelgrid.simulator import (NoiseModel, Scene, Trajectory, Waypoint,
                                 expand_trajectory, frame_noise_key,
                                 render_proba, render_scene, simulate,
                                 simulate_frames)
from oracles import (oracle_render_proba, oracle_render_scene,
                     oracle_simulate)

WORLD = Box3((-10, -10, -10), (10, 10, 10))
INTR32 = CameraIntrinsics(fx=32.0, fy=32.0, cx=16.0, cy=16.0, width=32, height=32)


def scene_of(objects, occluders=()):
    return Scene(objects=list(objects), occluders=list(occluders), roi=WORLD)


def scalar_slab(origin, direction, box):
    """Independent per-axis slab walk, written long-hand as an oracle."""
    t_enter, t_exit = -math.inf, math.inf
    for axis in range(3):
        o, d = origin[axis], direction[axis]
        lo, hi = box.min[axis], box.max[axis]
        if d == 0.0:
            if not lo <= o <= hi:
                return math.inf
            continue
        t1, t2 = (lo - o) / d, (hi - o) / d
        t_enter = max(t_enter, min(t1, t2))
        t_exit = min(t_exit, max(t1, t2))
    if t_enter > t_exit or t_exit <= 0.0:
        return math.inf
    return t_enter if t_enter > 0.0 else t_exit


class TestRenderScene:
    def test_empty_scene_renders_zero_depth(self):
        depth, labels = render_scene(scene_of([]), Pose.identity(), INTR32)
        assert np.all(depth == 0.0)
        assert np.all(labels == 0)

    def test_object_labels_must_be_integers(self):
        box = Box3((-0.5, -0.5, 2.0), (0.5, 0.5, 3.0))
        # int() would store 1.7 and True as label 1
        for label in (1.7, True, "1", math.nan, 0):
            with pytest.raises(ValueError, match="object label must be an integer >= 1"):
                scene_of([(label, box)])
        scene = scene_of([(np.int64(2), box), (3.0, box)])
        assert [(label, type(label)) for label, _ in scene.objects] == [(2, int), (3, int)]

    def test_front_face_on_axis(self):
        scene = scene_of([(1, Box3((-0.5, -0.5, 2.0), (0.5, 0.5, 3.0)))])
        depth, labels = render_scene(scene, Pose.identity(), INTR32)
        assert depth[16, 16] == pytest.approx(2.0, abs=1e-12)
        assert labels[16, 16] == 1

    def test_off_axis_pixel_returns_z_depth_not_ray_length(self):
        scene = scene_of([(1, Box3((-5.0, -5.0, 2.0), (5.0, 5.0, 3.0)))])
        depth, labels = render_scene(scene, Pose.identity(), INTR32)
        hit = labels == 1
        assert hit.all()
        # camera-z depth is constant across the plane, unlike ray length
        assert np.allclose(depth[hit], 2.0, atol=1e-12)

    def test_matches_scalar_slab_oracle(self):
        scene = scene_of(
            [(1, Box3((-0.4, -0.3, 1.5), (0.2, 0.3, 2.1))),
             (2, Box3((0.1, -0.6, 2.4), (0.9, 0.4, 3.0)))],
            occluders=[Box3((-0.8, -0.8, 1.2), (-0.3, 0.8, 1.4))])
        pose = look_at((0.3, 0.2, -0.5), (0.0, 0.0, 2.0))
        depth, labels = render_scene(scene, pose, INTR32)
        boxes = [(1, scene.objects[0][1]), (2, scene.objects[1][1]),
                 (0, scene.occluders[0])]
        dirs = np.stack(np.meshgrid(np.arange(32.0), np.arange(32.0)), axis=-1)
        for v in range(32):
            for u in range(32):
                d_cam = np.array([(u - 16.0) / 32.0, (v - 16.0) / 32.0, 1.0])
                d_world = pose.rotation @ d_cam
                best_t, best_label = math.inf, 0
                for label, box in boxes:
                    t = scalar_slab(pose.translation, d_world, box)
                    if t < best_t:
                        best_t, best_label = t, label
                if math.isinf(best_t):
                    assert depth[v, u] == 0.0
                else:
                    assert depth[v, u] == pytest.approx(best_t, abs=1e-9)
                    assert labels[v, u] == best_label

    def test_matches_ray_march_oracle(self):
        """Brute-force march along every pixel ray in small steps."""
        scene = scene_of(
            [(1, Box3((-0.45, -0.35, 1.52), (0.15, 0.33, 2.07))),
             (3, Box3((0.12, -0.52, 2.41), (0.88, 0.41, 2.96)))],
            occluders=[Box3((-0.84, -0.77, 1.23), (-0.28, 0.79, 1.41))])
        pose = look_at((0.25, 0.15, -0.4), (0.0, 0.0, 2.0))
        depth, labels = render_scene(scene, pose, INTR32)

        step = 1e-3
        t_samples = np.arange(step, 4.0, step)
        dirs = np.stack(np.meshgrid(
            (np.arange(32.0) - 16.0) / 32.0,
            (np.arange(32.0) - 16.0) / 32.0), axis=-1)
        d_cam = np.concatenate([dirs, np.ones((32, 32, 1))], axis=-1).reshape(-1, 3)
        d_world = d_cam @ pose.rotation.T
        points = pose.translation + t_samples[None, :, None] * d_world[:, None, :]

        boxes = [(1, scene.objects[0][1]), (3, scene.objects[1][1]),
                 (0, scene.occluders[0])]
        first_t = np.full(d_world.shape[0], np.inf)
        first_label = np.zeros(d_world.shape[0], dtype=int)
        for label, box in boxes:
            inside = np.all((points >= np.asarray(box.min))
                            & (points <= np.asarray(box.max)), axis=-1)
            any_hit = inside.any(axis=1)
            idx = np.argmax(inside, axis=1)
            t_hit = np.where(any_hit, t_samples[idx], np.inf)
            closer = t_hit < first_t
            first_t = np.where(closer, t_hit, first_t)
            first_label = np.where(closer, label, first_label)

        rendered_depth = depth.reshape(-1)
        rendered_labels = labels.reshape(-1)
        marched = np.isfinite(first_t)
        # every march hit must be a render hit at the same depth and label
        assert (rendered_depth[marched] > 0).all()
        assert np.abs(first_t[marched] - rendered_depth[marched]).max() <= step + 1e-9
        assert np.array_equal(first_label[marched], rendered_labels[marched])
        # render hits the march missed can only be sub-step grazes
        missed = ~marched & (rendered_depth > 0)
        assert missed.mean() < 0.01

    def test_occluded_object_contributes_no_pixels(self):
        blocker = Box3((-2.0, -2.0, 1.0), (2.0, 2.0, 1.2))
        hidden = Box3((-0.3, -0.3, 2.0), (0.3, 0.3, 2.5))
        scene = scene_of([(1, hidden)], occluders=[blocker])
        _, labels = render_scene(scene, Pose.identity(), INTR32)
        assert np.count_nonzero(labels == 1) == 0

    def test_camera_inside_box_sees_exit_face(self):
        scene = scene_of([(1, Box3((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)))])
        depth, labels = render_scene(scene, Pose.identity(), INTR32)
        assert depth[16, 16] == pytest.approx(1.0, abs=1e-12)
        assert labels[16, 16] == 1


class TestRenderProba:
    def test_no_flip_distribution(self):
        labels = np.full((4, 4), 2)
        probs = render_proba(labels, NoiseModel(confidence=0.8, flip_rate=0.0, seed=1), 4)
        assert probs.shape == (4, 4, 4)
        assert np.allclose(probs[..., 2], 0.8, atol=1e-12)
        other = (1.0 - 0.8) / 3.0
        for c in (0, 1, 3):
            assert np.allclose(probs[..., c], other, atol=1e-12)

    def test_argmax_equals_truth_without_flips(self):
        rng = np.random.default_rng(17)
        labels = rng.integers(0, 6, size=(16, 16))
        probs = render_proba(labels, NoiseModel(confidence=0.6, flip_rate=0.0, seed=9), 6)
        assert np.array_equal(np.argmax(probs, axis=2), labels)

    def test_deterministic_per_seed_and_key(self):
        labels = np.arange(64).reshape(8, 8) % 5
        noise = NoiseModel(confidence=0.7, flip_rate=0.3, seed=77)
        a = render_proba(labels, noise, 5, frame_key=3)
        b = render_proba(labels, noise, 5, frame_key=3)
        c = render_proba(labels, noise, 5, frame_key=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_flips_replace_top_with_wrong_label(self):
        labels = np.full((32, 32), 3)
        noise = NoiseModel(confidence=0.8, flip_rate=0.25, seed=5)
        probs = render_proba(labels, noise, 6)
        top = np.argmax(probs, axis=2)
        flipped = top != 3
        rate = flipped.mean()
        assert 0.15 < rate < 0.35
        assert np.allclose(probs[flipped].max(axis=-1), 0.8, atol=1e-12)

    def test_simplex_within_one_ulp(self):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 40, size=(16, 16))
        probs = render_proba(labels, NoiseModel(confidence=0.8, flip_rate=0.05, seed=2), 40)
        assert np.abs(probs.sum(axis=2) - 1.0).max() <= 2.0 ** -52

    @settings(max_examples=50)
    @given(st.floats(min_value=0.51, max_value=0.99),
           st.integers(min_value=2, max_value=41),
           st.integers(min_value=0, max_value=1000))
    def test_simplex_property(self, confidence, num_labels, seed):
        labels = np.zeros((3, 3), dtype=int)
        probs = render_proba(labels, NoiseModel(confidence=confidence,
                                                flip_rate=0.2, seed=seed), num_labels)
        assert np.abs(probs.sum(axis=2) - 1.0).max() <= 2.0 ** -52
        assert probs.min() > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(confidence=0.5)
        with pytest.raises(ValueError):
            NoiseModel(flip_rate=0.5)
        # int() would truncate 2.7 to 2 and take True as 1
        for seed in (-1, 2 ** 64, 2.7, True, math.nan):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 18446744073709551616\), got"):
                NoiseModel(seed=seed)
        assert NoiseModel(seed=np.int64(3)).seed == 3
        assert NoiseModel(seed=3.0).seed == 3
        # the largest seed still keys the Philox noise stream
        labels = np.array([[0, 1], [2, 3]])
        probs = render_proba(labels, NoiseModel(flip_rate=0.3, seed=2 ** 64 - 1), 4)
        assert probs.shape == (2, 2, 4)


class TestTrajectory:
    def test_single_waypoint_holds(self):
        wp = Waypoint(pose=Pose.identity(), timestamp=0.0, hold_frames=3)
        schedule = expand_trajectory(Trajectory([wp], frame_dt=0.5))
        assert len(schedule) == 3
        assert [s.timestamp for s in schedule] == [0.0, 0.5, 1.0]
        assert all(not s.moving for s in schedule)
        assert all(np.array_equal(s.pose.rotation, np.eye(3)) for s in schedule)

    def test_transitions_have_nonzero_velocity(self):
        a = Waypoint(pose=look_at((0, 0, -1), (0, 0, 1)), timestamp=0.0, hold_frames=2)
        b = Waypoint(pose=look_at((0.5, 0.2, -1), (0, 0, 1)), timestamp=2.0, hold_frames=2)
        schedule = expand_trajectory(Trajectory([a, b], frame_dt=0.25, transition_frames=2))
        assert len(schedule) == 6
        moving = [s for s in schedule if s.moving]
        assert len(moving) == 2
        for prev, curr in zip(schedule, schedule[1:]):
            assert curr.timestamp > prev.timestamp
            if curr.moving or prev.moving:
                linear, angular = camera_velocity(prev.pose, prev.timestamp,
                                                  curr.pose, curr.timestamp)
                assert linear > 1e-3 or angular > 1e-3

    def test_interpolated_rotation_stays_orthonormal(self):
        a = Waypoint(pose=look_at((0, 0, -1), (0, 0, 1)), timestamp=0.0)
        b = Waypoint(pose=look_at((1, 0.5, -0.5), (0, 0, 1)), timestamp=1.0)
        schedule = expand_trajectory(Trajectory([a, b], frame_dt=0.1, transition_frames=5))
        for s in schedule:
            r = s.pose.rotation
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-9)

    def test_frame_count_validation(self):
        for hold in (0, 2.7, True, math.inf):
            with pytest.raises(ValueError, match="hold_frames must be an integer >= 1"):
                Waypoint(pose=Pose.identity(), timestamp=0.0, hold_frames=hold)
        wp = Waypoint(pose=Pose.identity(), timestamp=0.0, hold_frames=np.int64(2))
        assert wp.hold_frames == 2
        for transitions in (-1, 1.9, True, math.nan):
            with pytest.raises(ValueError, match="transition_frames must be an integer >= 0"):
                Trajectory([wp], transition_frames=transitions)
        assert Trajectory([wp], transition_frames=2.0).transition_frames == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, value):
        with pytest.raises(ValueError, match="waypoint timestamp must be finite"):
            Waypoint(pose=Pose.identity(), timestamp=value)
        wp = Waypoint(pose=Pose.identity(), timestamp=0.0)
        with pytest.raises(ValueError, match="frame_dt must be positive and finite"):
            Trajectory([wp], frame_dt=value)

    def test_overlapping_waypoints_rejected(self):
        a = Waypoint(pose=Pose.identity(), timestamp=0.0, hold_frames=4)
        b = Waypoint(pose=Pose.identity(), timestamp=0.5, hold_frames=1)
        with pytest.raises(ValueError):
            Trajectory([a, b], frame_dt=0.25)


class TestSimulateFrames:
    def test_frame_count_and_monotone_timestamps(self, bin_scene, intrinsics, noise_model):
        from conftest import make_trajectory
        frames = simulate_frames(bin_scene, make_trajectory(2), intrinsics,
                                 noise_model, 40)
        assert len(frames) == 4 * 4 + 3 * 2
        times = [f.timestamp for f in frames]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_noise_key_is_timestamp_stable(self):
        assert frame_noise_key(1.5) == frame_noise_key(1.5)
        assert frame_noise_key(1.5) != frame_noise_key(1.25)

    def test_num_labels_must_cover_scene(self, bin_scene, intrinsics, noise_model):
        from conftest import make_trajectory
        with pytest.raises(ValueError):
            simulate_frames(bin_scene, make_trajectory(), intrinsics, noise_model, 1)

    def test_simulate_checks_labels_before_creating_out(self, bin_scene, intrinsics,
                                                         noise_model, tmp_path):
        from conftest import make_trajectory
        out = tmp_path / "stream"
        with pytest.raises(ValueError, match="num_labels"):
            simulate(bin_scene, make_trajectory(), intrinsics, noise_model, out,
                     num_labels=bin_scene.max_label)
        assert not out.exists()


# --- the renderer against its (N, 3) / (N, L) reference -----------------------

# rotations whose camera axes lie along world axes, so many rays have exact
# zero direction components (the slab test's parallel-ray branch)
AXIS_ROTATIONS = [m for m in (np.diag(signs)[list(perm)]
                              for perm in itertools.permutations(range(3))
                              for signs in itertools.product((1.0, -1.0), repeat=3))
                  if np.linalg.det(m) > 0]

# a few shared values make eyes land exactly on box faces
coord = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0)
extent = st.sampled_from([0.5, 1.0]) | st.floats(0.01, 2.0)


@st.composite
def boxes(draw):
    lo = [draw(coord) for _ in range(3)]
    return Box3(lo, [v + draw(extent) for v in lo])


@st.composite
def rotations(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(AXIS_ROTATIONS))
    q = [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    if np.linalg.norm(q) < 0.1:
        q = [0.0, 0.0, 0.0, 1.0]
    return Rotation.from_quat(q).as_matrix()


@st.composite
def scenes(draw, max_label=3):
    labels = draw(st.lists(st.integers(1, max_label), max_size=3, unique=True))
    occluders = draw(st.lists(boxes(), max_size=2))
    return scene_of([(label, draw(boxes())) for label in labels], occluders)


fractions = st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                     min_size=1, max_size=5)


@st.composite
def unit_axes(draw):
    axis = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(axis) > 0.1)
    return axis / np.linalg.norm(axis)


# 180° about a coordinate axis or a face diagonal, exact; or about any axis
half_turns = (st.sampled_from([m for m in AXIS_ROTATIONS if np.trace(m) == -1.0])
              | unit_axes().map(lambda n: 2.0 * np.outer(n, n) - np.eye(3)))


def scipy_slerp(r0, r1, fractions):
    return Slerp([0.0, 1.0], Rotation.from_matrix([r0, r1]))(fractions).as_matrix()


def arc(a, b):
    """Angle of the rotation from ``a`` to ``b``; scipy's atan2 form stays
    accurate near 180°, where ``rotation_angle``'s acos does not."""
    return Rotation.from_matrix(a.T @ b).magnitude()


def assert_matches_scipy(r0, r1, fractions):
    got = slerp(r0, r1, fractions)
    assert got.shape == (len(fractions), 3, 3)
    assert np.max(np.abs(got - scipy_slerp(r0, r1, fractions))) <= 1e-12
    return got


class TestSlerp:
    """The numpy slerp against scipy's ``Slerp`` as the oracle, elementwise."""

    @pytest.mark.parametrize("transitions", [2, 10])
    def test_benchmark_waypoints(self, transitions):
        from conftest import make_trajectory
        trajectory = make_trajectory(transitions)
        fracs = [k / (transitions + 1) for k in range(1, transitions + 1)]
        rotations = [wp.pose.rotation for wp in trajectory.waypoints]
        for r0, r1 in itertools.permutations(rotations, 2):
            assert_matches_scipy(r0, r1, fracs)
        moving = [s.pose.rotation for s in expand_trajectory(trajectory) if s.moving]
        want = [slerp(r0, r1, fracs) for r0, r1 in itertools.pairwise(rotations)]
        assert np.array_equal(moving, np.concatenate(want))

    @settings(max_examples=300, deadline=None)
    @given(rotations(), rotations(), fractions)
    def test_random_pairs(self, r0, r1, fracs):
        # at exactly 180° either arc is right; see test_half_turn
        assume(arc(r0, r1) < math.pi - 1e-9)
        assert_matches_scipy(r0, r1, fracs)

    @settings(max_examples=200, deadline=None)
    @given(rotations(), unit_axes(), st.floats(-12.0, -4.0), fractions)
    def test_nearly_identical_pairs(self, r0, axis, log_angle, fracs):
        r1 = r0 @ Rotation.from_rotvec(axis * 10.0 ** log_angle).as_matrix()
        assert_matches_scipy(r0, r1, fracs)

    @settings(max_examples=50, deadline=None)
    @given(rotations(), fractions)
    def test_identical_pairs(self, r0, fracs):
        got = assert_matches_scipy(r0, r0.copy(), fracs)
        assert np.max(np.abs(got - r0)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(rotations(), unit_axes(), st.floats(-9.0, -3.0), fractions)
    def test_nearly_opposite_pairs(self, r0, axis, log_gap, fracs):
        r1 = r0 @ Rotation.from_rotvec(axis * (math.pi - 10.0 ** log_gap)).as_matrix()
        assert_matches_scipy(r0, r1, fracs)

    @settings(max_examples=200, deadline=None)
    @given(rotations(), half_turns, fractions)
    def test_half_turn(self, r0, turn, fracs):
        """Both arcs are equally short, so only the angles from each end are fixed."""
        r1 = r0 @ turn
        for f, r in zip(fracs, slerp(r0, r1, fracs)):
            assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12
            assert abs(arc(r0, r) - f * math.pi) <= 1e-12
            assert abs(arc(r, r1) - (1.0 - f) * math.pi) <= 1e-12


INTR_ODD = CameraIntrinsics(fx=9.0, fy=7.0, cx=6.0, cy=4.0, width=13, height=9)


def assert_same_render(scene, pose, intrinsics):
    depth, labels = render_scene(scene, pose, intrinsics)
    want_depth, want_labels = oracle_render_scene(scene, pose, intrinsics)
    assert np.array_equal(depth.view(np.uint64), want_depth.view(np.uint64))
    assert np.array_equal(labels, want_labels)
    assert labels.dtype == want_labels.dtype


class TestRendererOracles:
    @settings(max_examples=150, deadline=None)
    @given(scenes(), rotations(), st.tuples(coord, coord, coord))
    def test_render_scene_bit_equal(self, scene, rotation, eye):
        assert_same_render(scene, Pose(rotation, eye), INTR_ODD)

    @settings(max_examples=60, deadline=None)
    @given(scenes(), rotations(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_render_scene_bit_equal_from_inside_a_box(self, scene, rotation, fx, fy, fz):
        box = Box3((-0.7, -0.4, -0.9), (0.6, 0.8, 0.3))
        eye = [lo + f * (hi - lo) for lo, hi, f in zip(box.min, box.max, (fx, fy, fz))]
        scene = scene_of(scene.objects + [(4, box)], scene.occluders)
        assert_same_render(scene, Pose(rotation, eye), INTR_ODD)

    def test_axis_aligned_poses_exercise_parallel_rays(self):
        # the centre pixel row and column of INTR_ODD have zero x or y direction
        scene = scene_of([(1, Box3((-1.0, -1.0, 1.0), (1.0, 1.0, 2.0)))],
                         occluders=[Box3((0.0, -0.5, -3.0), (0.5, 0.0, -2.0))])
        for rotation in AXIS_ROTATIONS:
            for eye in [(0.0, 0.0, 0.0), (0.0, -0.5, 0.0), (0.5, 0.0, -2.5)]:
                assert_same_render(scene, Pose(rotation, eye), INTR_ODD)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 41), st.floats(0.51, 0.99), st.floats(0.0, 0.49),
           st.integers(0, 2**32), st.integers(0, 2**64 - 1), st.integers(0, 2**32))
    def test_render_proba_bit_equal(self, num_labels, confidence, flip_rate, seed,
                                    frame_key, label_seed):
        labels = np.random.default_rng(label_seed).integers(0, num_labels, size=(5, 7))
        noise = NoiseModel(confidence=confidence, flip_rate=flip_rate, seed=seed)
        probs = render_proba(labels, noise, num_labels, frame_key=frame_key)
        want = oracle_render_proba(labels, noise, num_labels, frame_key=frame_key)
        assert probs.dtype == np.float64
        assert np.array_equal(probs.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(scenes(max_label=5), rotations(), st.tuples(coord, coord, coord),
           st.integers(6, 41), st.integers(0, 1000), st.integers(0, 3))
    def test_simulated_frames_match_per_frame_renders(self, scene, rotation, eye,
                                                      num_labels, seed, transitions):
        noise = NoiseModel(confidence=0.7, flip_rate=0.2, seed=seed)
        waypoints = [Waypoint(Pose(rotation, eye), 0.0, hold_frames=3),
                     Waypoint(look_at((0.3, -0.2, -4.0), (0.0, 0.0, 0.0)), 2.0,
                              hold_frames=2)]
        trajectory = Trajectory(waypoints, frame_dt=0.25, transition_frames=transitions)
        frames = simulate_frames(scene, trajectory, INTR_ODD, noise, num_labels)
        schedule = expand_trajectory(trajectory)
        assert len(frames) == len(schedule)
        for frame, sched in zip(frames, schedule):
            depth, labels = oracle_render_scene(scene, sched.pose, INTR_ODD)
            proba = oracle_render_proba(labels, noise, num_labels,
                                        frame_noise_key(sched.timestamp))
            assert frame.proba.dtype == np.float32
            assert np.array_equal(frame.proba, proba.astype(np.float32))
            assert np.array_equal(frame.depth, np.rint(depth * 1000.0) / 1000.0)


class TestPixelRays:
    def test_built_once_per_intrinsics_and_read_only(self):
        rays = simulator._pixel_rays(INTR_ODD)
        assert simulator._pixel_rays(CameraIntrinsics(9.0, 7.0, 6.0, 4.0, 13, 9)) is rays
        assert not rays.flags.writeable
        with pytest.raises(ValueError):
            rays[0, 0] = 1.0

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_tiny_images_render_bit_equal(self, size):
        """A one-pixel image rotates a single ray, which gets the bits of its
        row in any batch (see Pose.rotate). The eye sits inside a box, so
        every ray hits and its depth shows the direction's last bits; about
        one rotation in twenty shows a single ray rotated by the strided
        transpose, whose matrix-vector product rounds differently."""
        box = Box3((-0.7, -0.4, -0.9), (0.6, 0.8, 0.3))
        scene = scene_of([(4, box), (2, Box3((-0.2, -0.1, 0.1), (0.1, 0.3, 0.25)))])
        width, height = size
        intr = CameraIntrinsics(fx=1.5, fy=1.25, cx=width / 3, cy=height / 3,
                                width=width, height=height)
        rng = np.random.default_rng(17)
        for rotation in Rotation.random(300, random_state=17).as_matrix():
            eye = [lo + f * (hi - lo) for lo, hi, f in zip(box.min, box.max, rng.random(3))]
            assert_same_render(scene, Pose(rotation, eye), intr)


class TestRenderOncePerPose:
    def test_simulate_writes_the_oracle_stream(self, bin_scene, intrinsics,
                                               noise_model, tmp_path):
        from conftest import make_trajectory
        trajectory = make_trajectory(2)
        manifest = simulate(bin_scene, trajectory, intrinsics, noise_model,
                            tmp_path / "fast", num_labels=40)
        oracle_simulate(bin_scene, trajectory, intrinsics, noise_model,
                        tmp_path / "oracle", num_labels=40)
        names = sorted(p.name for p in (tmp_path / "oracle").iterdir())
        assert sorted(p.name for p in manifest.parent.iterdir()) == names
        assert len(names) == 2 * 22 + 1
        for name in names:
            assert (tmp_path / "fast" / name).read_bytes() == \
                (tmp_path / "oracle" / name).read_bytes(), name

    def test_geometry_rendered_once_per_pose_change(self, bin_scene, intrinsics,
                                                    noise_model, monkeypatch):
        from conftest import make_trajectory
        trajectory = make_trajectory(2)
        calls = []
        real = simulator.render_scene

        def counting(scene, pose, intr):
            calls.append(pose)
            return real(scene, pose, intr)

        monkeypatch.setattr(simulator, "render_scene", counting)
        frames = simulate_frames(bin_scene, trajectory, intrinsics, noise_model, 40)
        schedule = expand_trajectory(trajectory)
        changes = 1 + sum(
            not (np.array_equal(a.pose.rotation, b.pose.rotation)
                 and np.array_equal(a.pose.translation, b.pose.translation))
            for a, b in zip(schedule, schedule[1:]))
        assert len(frames) == 22
        assert len(calls) == changes == 4 + 3 * 2
        # hold frames share the render but not the noise
        assert np.array_equal(frames[0].depth, frames[1].depth)
        assert not np.array_equal(frames[0].proba, frames[1].proba)
