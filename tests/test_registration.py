"""Registration: softmax, pinhole deprojection, frame-to-voxel binning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgrid import (Box3, CameraIntrinsics, Pose, SensorFrame, deproject,
                       project, register_frame, softmax_image)
from labelgrid.grid import pack_keys
from oracles import oracle_register

E_OVER_E_PLUS_1 = 0.7310585786300049  # softmax of logits (1, 0)


@pytest.fixture
def intr100():
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=200, height=200)


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax_image(np.zeros((1, 1, 4)))
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_two_class_oracle(self):
        out = softmax_image(np.array([[[1.0, 0.0]]]))
        assert out[0, 0, 0] == pytest.approx(E_OVER_E_PLUS_1, abs=1e-12)
        assert out[0, 0, 1] == pytest.approx(1.0 - E_OVER_E_PLUS_1, abs=1e-12)

    @pytest.mark.parametrize("c", [-1000.0, -3.0, 0.0, 7.5, 1000.0])
    def test_shift_invariance(self, c):
        out = softmax_image(np.array([[[c, c + math.log(3.0)]]]))
        assert np.allclose(out[0, 0], [0.25, 0.75], atol=1e-6)

    def test_sums_to_one_and_preserves_argmax(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(scale=5.0, size=(40, 50, 7))
        probs = softmax_image(logits)
        assert np.abs(probs.sum(axis=2) - 1.0).max() < 1e-6
        assert np.array_equal(np.argmax(probs, axis=2), np.argmax(logits, axis=2))

    def test_overflow_safe(self):
        probs = softmax_image(np.array([[[700.0, 710.0, 650.0]]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_reports_pixel(self):
        logits = np.zeros((3, 4, 2))
        logits[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match=r"row=2.*col=1"):
            softmax_image(logits)


class TestDeproject:
    def test_principal_ray(self, intr100):
        point = deproject((50.0, 50.0), 2.0, intr100)
        assert np.allclose(point, [0.0, 0.0, 2.0])

    def test_offset_pixel(self, intr100):
        point = deproject((150.0, 50.0), 1.0, intr100)
        assert np.allclose(point, [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("depth", [0.0, -1.0, math.nan])
    def test_invalid_depth_is_none(self, intr100, depth):
        assert deproject((10.0, 10.0), depth, intr100) is None

    def test_out_of_bounds_pixel_raises(self, intr100):
        with pytest.raises(ValueError):
            deproject((250.0, 10.0), 1.0, intr100)

    def test_identity_pose_keeps_coordinates(self, intr100):
        point = deproject((150.0, 50.0), 1.0, intr100)
        assert np.allclose(Pose.identity().transform(point), point)

    @given(st.floats(min_value=0.0, max_value=199.0),
           st.floats(min_value=0.0, max_value=199.0),
           st.floats(min_value=0.01, max_value=50.0))
    def test_project_round_trip(self, u, v, d):
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0,
                                width=200, height=200)
        uu, vv, dd = project(deproject((u, v), d, intr), intr)
        assert uu == pytest.approx(u, abs=1e-9)
        assert vv == pytest.approx(v, abs=1e-9)
        assert dd == pytest.approx(d, abs=1e-9)


class TestIntrinsicsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"fx": 0.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 4, "height": 4},
        {"fx": 1.0, "fy": -1.0, "cx": 0.0, "cy": 0.0, "width": 4, "height": 4},
        {"fx": 1.0, "fy": 1.0, "cx": 4.0, "cy": 0.0, "width": 4, "height": 4},
        {"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": -1.0, "width": 4, "height": 4},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            CameraIntrinsics(**kwargs)


def make_frame(depth, proba, intr, pose=None, timestamp=0.0):
    return SensorFrame(timestamp=timestamp, depth=depth,
                       pose=pose or Pose.identity(), intrinsics=intr, proba=proba)


class TestSensorFrameValidation:
    def test_requires_exactly_one_image(self, intr100):
        depth = np.ones((200, 200))
        with pytest.raises(ValueError):
            SensorFrame(timestamp=0.0, depth=depth, pose=Pose.identity(),
                        intrinsics=intr100)

    def test_rejects_non_simplex(self, intr100):
        depth = np.ones((200, 200))
        proba = np.full((200, 200, 2), 0.6)
        with pytest.raises(ValueError, match="channel sums"):
            make_frame(depth, proba, intr100)

    def test_rejects_shape_mismatch(self, intr100):
        with pytest.raises(ValueError):
            make_frame(np.ones((100, 200)), np.full((200, 200, 2), 0.5), intr100)

    def test_logits_softmaxed_on_demand(self, intr100):
        depth = np.ones((200, 200))
        logits = np.zeros((200, 200, 4))
        frame = SensorFrame(timestamp=0.0, depth=depth, pose=Pose.identity(),
                            intrinsics=intr100, logits=logits)
        assert np.allclose(frame.probabilities(), 0.25)


class TestRegisterFrame:
    def test_all_invalid_depth(self, intr100):
        depth = np.zeros((200, 200))
        proba = np.full((200, 200, 2), 0.5)
        result = register_frame(make_frame(depth, proba, intr100), 0.01)
        assert result.measurements == []
        assert result.pixels_skipped_depth == 200 * 200

    def test_single_pixel(self, intr100):
        depth = np.zeros((200, 200))
        depth[50, 150] = 1.0  # deprojects to (1, 0, 1)
        proba = np.zeros((200, 200, 2))
        proba[..., 0] = 0.3
        proba[..., 1] = 0.7
        result = register_frame(make_frame(depth, proba, intr100), 0.01)
        assert len(result.measurements) == 1
        m = result.measurements[0]
        assert m.key == (100, 0, 100)
        assert np.allclose(m.label_p, [0.3, 0.7], atol=1e-15)
        assert result.pixels_skipped_depth == 200 * 200 - 1

    def test_same_voxel_pixels_averaged(self, intr100):
        depth = np.zeros((200, 200))
        depth[50, 50] = 1.0
        depth[50, 51] = 1.0  # lands 0.01 m away; same voxel at coarse resolution
        proba = np.zeros((200, 200, 2))
        proba[50, 50] = [0.2, 0.8]
        proba[50, 51] = [0.4, 0.6]
        proba[depth == 0] = [0.5, 0.5]
        result = register_frame(make_frame(depth, proba, intr100), 1.0)
        assert len(result.measurements) == 1
        assert np.allclose(result.measurements[0].label_p, [0.3, 0.7], atol=1e-15)

    def test_matches_per_pixel_oracle(self):
        """Brute-force per-pixel binning oracle on a random frame."""
        rng = np.random.default_rng(5)
        intr = CameraIntrinsics(fx=30.0, fy=28.0, cx=16.0, cy=15.0, width=32, height=32)
        rot = Pose(np.array([[0.0, 0.0, 1.0],
                             [-1.0, 0.0, 0.0],
                             [0.0, -1.0, 0.0]]), np.array([0.3, -0.2, 0.1]))
        depth = rng.uniform(0.5, 3.0, size=(32, 32))
        depth[rng.random((32, 32)) < 0.3] = 0.0
        raw = rng.uniform(0.05, 1.0, size=(32, 32, 3))
        proba = raw / raw.sum(axis=2, keepdims=True)
        frame = SensorFrame(timestamp=0.0, depth=depth, pose=rot,
                            intrinsics=intr, proba=proba)
        res = 0.05

        bins: dict = {}
        for v in range(32):
            for u in range(32):
                point = deproject((float(u), float(v)), depth[v, u], intr)
                if point is None:
                    continue
                world = rot.transform(point)
                key = tuple(int(math.floor(c / res)) for c in world)
                bins.setdefault(key, []).append(proba[v, u])

        result = register_frame(frame, res)
        got = {m.key: m.label_p for m in result.measurements}
        assert set(got) == set(bins)
        for key, contributions in bins.items():
            assert np.allclose(got[key], np.mean(contributions, axis=0), atol=1e-12)

    def test_voxel_count_bounded_by_valid_pixels(self, intr100):
        rng = np.random.default_rng(8)
        depth = np.where(rng.random((200, 200)) < 0.5, rng.uniform(0.5, 2.0, (200, 200)), 0.0)
        proba = np.full((200, 200, 2), 0.5)
        result = register_frame(make_frame(depth, proba, intr100), 0.02)
        assert len(result.measurements) <= int(np.count_nonzero(depth))

    def test_output_simplex_preserved(self, intr100):
        rng = np.random.default_rng(9)
        depth = rng.uniform(0.5, 2.0, size=(200, 200))
        raw = rng.uniform(0.01, 1.0, size=(200, 200, 5))
        proba = raw / raw.sum(axis=2, keepdims=True)
        result = register_frame(make_frame(depth, proba, intr100), 0.05)
        for m in result.measurements:
            assert m.label_p.sum() == pytest.approx(1.0, abs=1e-5)

    def test_roi_keeps_only_centers_inside(self, intr100):
        roi = Box3((-0.2, -0.2, 0.5), (0.2, 0.2, 1.5))
        rng = np.random.default_rng(10)
        depth = rng.uniform(0.5, 3.0, size=(200, 200))
        proba = np.full((200, 200, 2), 0.5)
        frame = make_frame(depth, proba, intr100)
        result = register_frame(frame, 0.05, roi=roi)
        unfiltered = register_frame(frame, 0.05)
        for m in result.measurements:
            center = (np.asarray(m.key) + 0.5) * 0.05
            assert roi.contains(center)
        dropped = {m.key for m in unfiltered.measurements} - {m.key for m in result.measurements}
        for key in dropped:
            assert not roi.contains((np.asarray(key) + 0.5) * 0.05)
        assert result.pixels_skipped_roi > 0
        assert result.pixels_skipped_roi + sum(
            1 for _ in result.measurements) <= 200 * 200

    def test_deterministic_output_order(self, intr100):
        rng = np.random.default_rng(12)
        depth = rng.uniform(0.5, 2.0, size=(200, 200))
        proba = np.full((200, 200, 2), 0.5)
        frame = make_frame(depth, proba, intr100)
        a = register_frame(frame, 0.05)
        b = register_frame(frame, 0.05)
        assert [m.key for m in a.measurements] == [m.key for m in b.measurements]
        assert [m.key for m in a.measurements] == sorted(m.key for m in a.measurements)

    def test_keys_past_the_range_rejected(self, intr100):
        depth = np.full((200, 200), 1.0)
        proba = np.full((200, 200, 2), 0.5)
        # 2**20 voxels of 1 cm lie about 10.5 km out
        far = make_frame(depth, proba, intr100, Pose(np.eye(3), [0.0, 0.0, 20_000.0]))
        with pytest.raises(ValueError, match="outside"):
            register_frame(far, 0.01)
        # an roi that drops those voxels drops the error with them
        result = register_frame(far, 0.01, roi=Box3((-1, -1, 0), (1, 1, 2)))
        assert result.pixels_skipped_roi == 200 * 200
        assert result.codes.shape == (0,)

    def test_extreme_keys_accepted(self, intr100):
        depth = np.zeros((200, 200))
        depth[50, 50] = 1.0  # deprojects to (0, 0, 1)
        proba = np.full((200, 200, 2), 0.5)
        for z in (2 ** 20 - 1, -(2 ** 20 - 1), -(2 ** 20)):
            frame = make_frame(depth, proba, intr100, Pose(np.eye(3), [0.5, 0.5, z - 0.5]))
            assert [m.key for m in register_frame(frame, 1.0).measurements] == [(0, 0, z)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.01, 0.05, 0.2]),
       st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       st.floats(0.0, 2 * math.pi),
       st.booleans())
def test_register_frame_matches_unique_oracle(seed, resolution, translation, angle, with_roi):
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(fx=20.0, fy=22.0, cx=12.0, cy=9.0, width=24, height=18)
    depth = rng.uniform(0.3, 3.0, size=(18, 24))
    depth[rng.random((18, 24)) < 0.25] = 0.0
    raw = rng.uniform(0.01, 1.0, size=(18, 24, 4))
    c, s = math.cos(angle), math.sin(angle)
    pose = Pose(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]), np.array(translation))
    frame = SensorFrame(timestamp=0.0, depth=depth, pose=pose, intrinsics=intr,
                        proba=raw / raw.sum(axis=2, keepdims=True))
    roi = Box3((-1.0, -1.0, -1.0), (1.0, 1.0, 2.0)) if with_roi else None
    keys, means = oracle_register(frame, resolution, roi)
    result = register_frame(frame, resolution, roi)
    assert np.array_equal(result.codes, pack_keys(keys))
    assert result.means.tobytes() == means.tobytes()
