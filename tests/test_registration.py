"""Registration: softmax, pinhole deprojection, frame-to-voxel binning."""

import contextlib
import copy
import math
import mmap
import os
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from labelgrid import (Box3, CameraIntrinsics, Pose, SensorFrame, register_frame,
                       softmax_image)
from labelgrid import LabelOccupancyGrid, fileio, fuse_stream, grid, registration
from labelgrid.fileio import (pose_record, read_frame_records, read_manifest, read_probimg,
                              write_depth_pgm, write_manifest, write_probimg)
from labelgrid.grid import pack_keys, unpack_codes, voxel_center
from labelgrid.registration import _STEP_ROWS, FileImage
from oracles import oracle_deproject, oracle_frame_check, oracle_register, oracle_world

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_on_one_float64_copy(self, dtype):
        """The bits of the expression with three temporaries, the caller's
        array unchanged, and a traced peak of about one float64 image."""
        logits = np.random.default_rng(12).normal(scale=5.0, size=(60, 80, 40)).astype(dtype)
        before = logits.copy()
        arr = logits.astype(float)
        e = np.exp(arr - arr.max(axis=2, keepdims=True))
        want = e / e.sum(axis=2, keepdims=True)
        probs, peak = traced(lambda: softmax_image(logits))
        assert np.array_equal(probs.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(logits, before)
        assert peak < 1.25 * logits.size * 8

    def test_non_finite_reports_pixel(self):
        logits = np.zeros((3, 4, 2))
        logits[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match=r"row=2.*col=1"):
            softmax_image(logits)


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

    @pytest.mark.parametrize("change, message", [
        ({"width": 0}, "width must be an integer >= 1, got 0"),
        ({"height": -1}, "height must be an integer >= 1, got -1"),
        ({"width": math.nan}, "width must be an integer >= 1, got nan"),
        ({"fx": math.inf}, "fx must be positive and finite, got inf"),
        ({"fy": math.nan}, "fy must be positive and finite, got nan"),
        ({"cx": math.nan}, "principal point must lie inside the image"),
        ({"cy": math.inf}, "principal point must lie inside the image"),
        ({"width": 4.5}, r"width must be an integer >= 1, got 4\.5"),
        ({"height": math.inf}, "height must be an integer >= 1, got inf"),
        ({"height": True}, "height must be an integer >= 1, got True"),
        ({"width": "4"}, "width must be an integer >= 1, got '4'"),
    ])
    def test_rejects_non_finite_values_and_empty_images(self, change, message):
        kwargs = {"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 4, "height": 4}
        with pytest.raises(ValueError, match=f"^{message}$"):
            CameraIntrinsics(**{**kwargs, **change})

    def test_stores_integral_sizes_as_int(self):
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0,
                                width=4.0, height=np.int64(3))
        assert (intr.width, intr.height) == (4, 3)
        assert type(intr.width) is int and type(intr.height) is int


def make_frame(depth, proba, intr, pose=None, timestamp=0.0):
    return SensorFrame(timestamp=timestamp, depth=depth,
                       pose=pose or Pose.identity(), intrinsics=intr, proba=proba)


class TestSensorFrameValidation:
    def test_rejects_non_simplex(self, intr100):
        depth = np.ones((200, 200))
        proba = np.full((200, 200, 2), 0.6)
        with pytest.raises(ValueError, match="channel sums"):
            register_frame(make_frame(depth, proba, intr100), 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rejects_nan_on_a_zero_depth_pixel(self, intr100, dtype):
        depth = np.ones((200, 200))
        depth[3, 4] = 0.0
        proba = np.full((200, 200, 2), 0.5, dtype=dtype)
        proba[3, 4, 1] = np.nan
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            register_frame(make_frame(depth, proba, intr100), 1.0)

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timestamp(self, intr100, timestamp):
        with pytest.raises(ValueError, match="timestamp must be finite"):
            make_frame(np.ones((200, 200)), np.full((200, 200, 2), 0.5), intr100,
                       timestamp=timestamp)

    def test_rejects_shape_mismatch(self, intr100):
        with pytest.raises(ValueError):
            make_frame(np.ones((100, 200)), np.full((200, 200, 2), 0.5), intr100)


def voxel_means(result) -> dict:
    """A registration result as ``{(ix, iy, iz): mean row}``."""
    return {tuple(key): row for key, row in zip(unpack_codes(result.codes).tolist(), result.means)}


class TestRegisterFrame:
    def test_measurements_pair_each_key_with_its_mean_row(self, intr100):
        """The benchmark harness reads ``measurements``; it must stay
        ``zip(unpack_codes(codes), means)``."""
        proba = np.random.default_rng(5).dirichlet(np.ones(3), size=(200, 200))
        result = register_frame(make_frame(np.full((200, 200), 1.0), proba, intr100), 0.05)
        want = [(tuple(key), row.tolist())
                for key, row in zip(unpack_codes(result.codes).tolist(), result.means)]
        assert len(want) > 1
        assert [(key, row.tolist()) for key, row in result.measurements] == want

    def test_all_invalid_depth(self, intr100):
        depth = np.zeros((200, 200))
        proba = np.full((200, 200, 2), 0.5)
        result = register_frame(make_frame(depth, proba, intr100), 0.01)
        assert result.codes.shape == (0,)
        assert result.pixels_skipped_depth == 200 * 200

    @pytest.mark.parametrize("depth_m, roi, skipped", [
        (0.0, None, (200 * 200, 0)),
        (1.0, Box3((5, 5, 5), (6, 6, 6)), (0, 200 * 200)),
    ], ids=["all-invalid-depth", "all-outside-roi"])
    def test_empty_result_arrays(self, intr100, depth_m, roi, skipped):
        frame = make_frame(np.full((200, 200), depth_m), np.full((200, 200, 4), 0.25), intr100)
        result = register_frame(frame, 0.01, roi)
        assert result.codes.dtype == np.int64 and result.codes.shape == (0,)
        assert result.means.dtype == np.float64 and result.means.shape == (0, 4)
        assert (result.pixels_skipped_depth, result.pixels_skipped_roi) == skipped

    def test_single_pixel(self, intr100):
        depth = np.zeros((200, 200))
        depth[50, 150] = 1.0  # deprojects to (1, 0, 1)
        proba = np.zeros((200, 200, 2))
        proba[..., 0] = 0.3
        proba[..., 1] = 0.7
        result = register_frame(make_frame(depth, proba, intr100), 0.01)
        assert unpack_codes(result.codes).tolist() == [[100, 0, 100]]
        assert np.allclose(result.means[0], [0.3, 0.7], atol=1e-15)
        assert result.pixels_skipped_depth == 200 * 200 - 1

    def test_a_lone_valid_pixel_registers_as_among_others(self):
        """A frame's only valid pixel gets the key and skip counts it gets
        among other valid pixels. Each pose puts its world point exactly on
        the corner of voxel (0, 0, 0), so a rotation off by one ulp below
        moves it into a voxel that the roi drops."""
        rng = np.random.default_rng(21)
        intr = CameraIntrinsics(fx=30.0, fy=28.0, cx=16.0, cy=15.0, width=32, height=24)
        depth = rng.uniform(0.5, 3.0, size=(24, 32))
        proba = random_proba(rng, (24, 32, 3), np.float64, negative_zero=False)
        lone = np.zeros_like(depth)
        lone[7, 19] = depth[7, 19]
        roi = Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        corner = pack_keys(np.zeros((1, 3), dtype=np.int64))
        for rotation in Rotation.random(40, random_state=21).as_matrix():
            pixel, world = oracle_world(make_frame(depth, proba, intr, Pose(rotation, np.zeros(3))))
            pose = Pose(rotation, -world[pixel == 7 * 32 + 19][0])
            among = register_frame(make_frame(depth, proba, intr, pose), 0.5, roi)
            alone = register_frame(make_frame(lone, proba, intr, pose), 0.5, roi)
            assert np.isin(corner, among.codes).all()
            assert np.array_equal(alone.codes, corner)
            assert np.array_equal(alone.means[0].view(np.uint64), proba[7, 19].view(np.uint64))
            assert (alone.pixels_skipped_depth, alone.pixels_skipped_roi) == (depth.size - 1, 0)

    @pytest.mark.parametrize("bad_depth", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_depth_pixel_skipped(self, intr100, bad_depth):
        depth = np.zeros((200, 200))
        depth[50, 50] = 2.0  # the principal ray: deprojects to (0, 0, 2)
        depth[50, 150] = 1.0  # deprojects to (1, 0, 1)
        depth[10, 10] = bad_depth
        proba = np.full((200, 200, 2), 0.5)
        proba[50, 50] = [0.1, 0.9]
        proba[50, 150] = [0.8, 0.2]
        result = register_frame(make_frame(depth, proba, intr100), 0.5)
        got = {key: row.tolist() for key, row in voxel_means(result).items()}
        assert got == {(0, 0, 4): [0.1, 0.9], (2, 0, 2): [0.8, 0.2]}
        assert result.pixels_skipped_depth == 200 * 200 - 2
        assert result.pixels_skipped_roi == 0

    def test_same_voxel_pixels_averaged(self, intr100):
        depth = np.zeros((200, 200))
        depth[50, 50] = 1.0
        depth[50, 51] = 1.0  # lands 0.01 m away; same voxel at coarse resolution
        proba = np.zeros((200, 200, 2))
        proba[50, 50] = [0.2, 0.8]
        proba[50, 51] = [0.4, 0.6]
        proba[depth == 0] = [0.5, 0.5]
        result = register_frame(make_frame(depth, proba, intr100), 1.0)
        assert result.codes.shape == (1,)
        assert np.allclose(result.means[0], [0.3, 0.7], atol=1e-15)

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
                d = depth[v, u]
                if not d > 0:
                    continue
                # the pinhole model, written out as the reference
                point = np.array([(u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d])
                world = rot.transform(point)
                key = tuple(int(math.floor(c / res)) for c in world)
                bins.setdefault(key, []).append(proba[v, u])

        result = register_frame(frame, res)
        got = voxel_means(result)
        assert set(got) == set(bins)
        for key, contributions in bins.items():
            assert np.allclose(got[key], np.mean(contributions, axis=0), atol=1e-12)

    def test_voxel_count_bounded_by_valid_pixels(self, intr100):
        rng = np.random.default_rng(8)
        depth = np.where(rng.random((200, 200)) < 0.5, rng.uniform(0.5, 2.0, (200, 200)), 0.0)
        proba = np.full((200, 200, 2), 0.5)
        result = register_frame(make_frame(depth, proba, intr100), 0.02)
        assert len(result.codes) <= int(np.count_nonzero(depth))

    def test_output_simplex_preserved(self, intr100):
        rng = np.random.default_rng(9)
        depth = rng.uniform(0.5, 2.0, size=(200, 200))
        raw = rng.uniform(0.01, 1.0, size=(200, 200, 5))
        proba = raw / raw.sum(axis=2, keepdims=True)
        result = register_frame(make_frame(depth, proba, intr100), 0.05)
        for row in result.means:
            assert row.sum() == pytest.approx(1.0, abs=1e-5)

    def test_roi_keeps_only_centers_inside(self, intr100):
        roi = Box3((-0.2, -0.2, 0.5), (0.2, 0.2, 1.5))
        rng = np.random.default_rng(10)
        depth = rng.uniform(0.5, 3.0, size=(200, 200))
        proba = np.full((200, 200, 2), 0.5)
        frame = make_frame(depth, proba, intr100)
        result = register_frame(frame, 0.05, roi=roi)
        unfiltered = register_frame(frame, 0.05)
        for key in unpack_codes(result.codes):
            assert roi.contains((key + 0.5) * 0.05)
        for key in unpack_codes(np.setdiff1d(unfiltered.codes, result.codes)):
            assert not roi.contains((key + 0.5) * 0.05)
        assert result.pixels_skipped_roi > 0
        assert result.pixels_skipped_roi + result.codes.shape[0] <= 200 * 200

    def test_deterministic_output_order(self, intr100):
        rng = np.random.default_rng(12)
        depth = rng.uniform(0.5, 2.0, size=(200, 200))
        proba = np.full((200, 200, 2), 0.5)
        frame = make_frame(depth, proba, intr100)
        a = register_frame(frame, 0.05)
        b = register_frame(frame, 0.05)
        keys = unpack_codes(a.codes).tolist()
        assert keys == unpack_codes(b.codes).tolist()
        assert keys == sorted(keys)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("roi", [None, Box3((-1, -1, 0), (1, 1, 2))])
    def test_rejects_a_resolution_that_is_not_positive_and_finite(self, intr100, resolution, roi):
        frame = make_frame(np.full((200, 200), 1.0), np.full((200, 200, 2), 0.5), intr100)
        with pytest.raises(ValueError, match="^resolution must be positive and finite, got"):
            register_frame(frame, resolution, roi)

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
            assert unpack_codes(register_frame(frame, 1.0).codes).tolist() == [[0, 0, z]]


def test_frame_check_peak_memory_per_pixel():
    """register_frame checks every band of a 320x240x40 simplex image, also
    with no valid depth: the depth masks and one band's float32 channel
    sums take 3.0 traced bytes per pixel; whole-image float64 sums and
    their deviations took 24."""
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0, width=320, height=240)
    depth = np.zeros((240, 320))
    proba = np.full((240, 320, 40), 0.025, dtype=np.float32)
    frame = make_frame(depth, proba, intr)
    register_frame(frame, 0.05)
    result, peak = traced(lambda: register_frame(frame, 0.05))
    assert frame.proba is proba and result.pixels_skipped_depth == depth.size
    assert peak / depth.size < 8


@pytest.mark.parametrize("channels, bound", [(2, 100), (40, 64)])
@pytest.mark.parametrize("with_roi", [False, True])
def test_register_frame_peak_memory_per_pixel(with_roi, channels, bound):
    """The deprojection fills one (N, 3) float64 buffer per band in place
    and drops each temporary once it is dead, and the voxel runs keep one
    int64 index per pixel: an all-valid 320x240 frame peaks at 81 traced
    bytes per pixel with two channels in one band (82 with the roi), and at
    41 with 40 channels in 12 bands (25 with the roi), where whole-frame
    deprojection peaked at 72 and one temporary per whole-array expression
    at 133-145."""
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0, width=320, height=240)
    c, s = math.cos(0.3), math.sin(0.3)
    pose = Pose(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]), np.array([0.1, 0.2, 0.3]))
    frame = make_frame(np.full((240, 320), 1.0),
                       np.full((240, 320, channels), 1.0 / channels, dtype=np.float32), intr, pose)
    roi = Box3((-1.0, -1.0, -1.0), (0.5, 1.0, 2.0)) if with_roi else None
    register_frame(frame, 0.05, roi)
    tracemalloc.start()
    try:
        result = register_frame(frame, 0.05, roi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.pixels_skipped_depth == 0 and len(result.codes) > 0
    assert with_roi == (result.pixels_skipped_roi > 0)
    assert peak / frame.depth.size < bound


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


def test_float32_image_kept_and_frame_loads_to_itself(intr100):
    proba = np.full((200, 200, 2), 0.5, dtype=np.float32)
    frame = make_frame(np.ones((200, 200)), proba, intr100)
    assert frame.proba.dtype == np.float32
    assert frame.load() is frame
    assert make_frame(np.ones((200, 200)), proba.tolist(), intr100).proba.dtype == np.float64


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.01, 0.05, 0.5]),
       st.integers(2, 40))
def test_float32_image_registers_like_float64(seed, resolution, channels):
    """Widening only the gathered rows gives the codes and means that
    widening the whole image first gives, bit for bit."""
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(fx=20.0, fy=22.0, cx=12.0, cy=9.0, width=24, height=18)
    depth = rng.uniform(0.3, 3.0, size=(18, 24))
    depth[rng.random((18, 24)) < 0.25] = 0.0
    raw = rng.uniform(0.0, 1.0, size=(18, 24, channels))
    proba = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
    narrow = make_frame(depth, proba, intr, Pose(np.eye(3), [0.1, -0.2, 0.3]))
    wide = make_frame(depth, proba.astype(float), intr, narrow.pose)
    assert (narrow.proba.dtype, wide.proba.dtype) == (np.float32, np.float64)
    a, b = register_frame(narrow, resolution), register_frame(wide, resolution)
    assert np.array_equal(a.codes, b.codes)
    assert a.means.dtype == b.means.dtype == np.float64
    assert a.means.tobytes() == b.means.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.sampled_from([-1, 0, 1]),
       st.floats(-3e-7, 3e-7), st.floats(0.0, 1.0))
def test_simplex_check_same_in_float32_and_float64(seed, channels, side, jitter, share):
    """The float32 channel sums, taken in float64, equal the sums of the
    widened image, so both accept and reject the same images, and report
    the same deviation."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(5, 6, channels))
    proba = raw / raw.sum(axis=2, keepdims=True)
    # push some pixels' sums to within a few float32 ulps of the 1e-5 bound
    proba[rng.random((5, 6)) < share] *= 1.0 + side * 1e-5 + jitter
    proba = proba.astype(np.float32)
    assert np.array_equal(proba.sum(axis=2, dtype=np.float64), proba.astype(float).sum(axis=2))
    assert frame_check(proba) == frame_check(proba.astype(float))


def frame_check(image):
    """The message of the ``ValueError`` that registering a frame of
    ``image`` raises, or ``None`` when the frame registers."""
    h, w = image.shape[:2]
    intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=0.0, cy=0.0, width=w, height=h)
    try:
        register_frame(make_frame(np.ones((h, w)), image, intr), 1.0)
    except ValueError as exc:
        return str(exc)
    return None


def pushed_simplex(seed, shape, dtype, deviation, share=0.5):
    """Random simplex rows, a ``share`` of them scaled by ``1 + deviation``."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=shape)
    proba = raw / raw.sum(axis=2, keepdims=True)
    proba[rng.random(shape[:2]) < share] *= 1.0 + deviation
    return proba.astype(dtype)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([np.float32, np.float64]),
       st.integers(2, 64), st.sampled_from([-1, 1]), st.booleans(), st.booleans(),
       st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
def test_frame_check_matches_float64_oracle(seed, dtype, channels, side, near_bound, in_ulps,
                                            offset, share):
    """Registering a frame accepts and rejects exactly the images that the
    float64 channel sums do, with the same message. Row sums are pushed to
    1 +- d, with d a few ulps or a few margins from 1e-5 or from the
    float32 pass threshold 1e-5 - margin, where margin = L * eps + 1e-12, so that
    both passes decide some images, and float32 sums that round to the
    other side of 1e-5 are tried."""
    eps = float(np.finfo(dtype).eps)
    margin = channels * eps + 1e-12
    deviation = ((1e-5 if near_bound else 1e-5 - margin)
                 + offset * (eps if in_ulps else margin))
    image = pushed_simplex(seed, (5, 6, channels), dtype, side * deviation, share)
    assert frame_check(image) == oracle_frame_check(image)


@pytest.mark.parametrize("deviation, accepted", [(9.9e-6, True), (1.01e-5, False)])
def test_frame_check_near_the_bound_takes_the_float64_pass(deviation, accepted):
    """40 float32 channels: the float32 pass needs sums within about 5.2e-6
    of 1, so both images reach the float64 pass, which decides them as the
    oracle does."""
    image = pushed_simplex(3, (5, 6, 40), np.float32, deviation, share=1.0)
    expected = oracle_frame_check(image)
    assert (expected is None) == accepted
    if not accepted:
        assert expected.startswith("probability image channel sums deviate from 1 by 1.0")
    assert frame_check(image) == expected


def test_frame_check_rejects_a_row_whose_float32_sum_reads_inside_the_bound():
    """One large entry and 39 entries of 5.25e-8, each between half and one
    float32 ulp of the large one: the float64 sum is 1.0052e-5 under 1,
    and numpy's float32 einsum of the same row reads 9.95e-6 under. Only
    the margin keeps the float32 pass from accepting it."""
    small = np.full(39, 5.25e-8, dtype=np.float32)
    large = np.float32(1.0 - 1.003e-5 - float(small.sum(dtype=np.float64)))
    image = np.tile(np.concatenate(([large], small)), (5, 6, 1))
    expected = oracle_frame_check(image)
    assert expected == "probability image channel sums deviate from 1 by 1.01e-05"
    assert frame_check(image) == expected


def voxel_run_frame(voxel, proba):
    """A frame whose row-major pixel p lands in voxel key (0, 0, voxel[p] + 1),
    or has zero depth where ``voxel[p] < 0``: the depth picks the z key, and
    a huge focal length keeps x and y inside key 0."""
    h, w = proba.shape[:2]
    intr = CameraIntrinsics(fx=1e9, fy=1e9, cx=0.0, cy=0.0, width=w, height=h)
    depth = np.where(voxel < 0, 0.0, voxel + 1.5).reshape(h, w)
    return make_frame(depth, proba, intr, Pose(np.eye(3), [0.5, 0.5, 0.0]))


def random_proba(rng, shape, dtype, negative_zero):
    """Simplex rows whose entries span several magnitudes, so that any change
    in summation order shows in the low bits of the means."""
    raw = rng.random(shape) ** 4
    proba = (raw / raw.sum(axis=-1, keepdims=True)).astype(dtype)
    if negative_zero:
        # -0.0 passes the >= 0 check; a voxel whose rows are all -0.0 must
        # still average to +0.0, as a sum started from zeros does
        proba[..., 0] = -0.0
        # the residual goes to each row's largest entry, which it cannot
        # turn negative
        top = proba.argmax(axis=-1)[..., None]
        residual = (1.0 - proba.sum(axis=-1, dtype=np.float64)).astype(dtype)[..., None]
        np.put_along_axis(proba, top, np.take_along_axis(proba, top, axis=-1) + residual,
                          axis=-1)
    return proba


def assert_matches_unique_oracle(frame, resolution=1.0, roi=None):
    keys, means = oracle_register(frame, resolution, roi)
    result = register_frame(frame, resolution, roi)
    assert np.array_equal(result.codes, pack_keys(keys))
    assert result.means.dtype == np.float64
    assert np.array_equal(result.means.view(np.uint64), means.view(np.uint64))
    return result


class TestRunSums:
    """Run-wise sums against the np.unique + np.add.at oracle, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_voxel_holds_every_pixel(self, dtype):
        """76 800 rows in one run, far past the step cut."""
        rng = np.random.default_rng(5)
        proba = random_proba(rng, (240, 320, 3), dtype, negative_zero=False)
        result = assert_matches_unique_oracle(voxel_run_frame(np.zeros(240 * 320), proba))
        assert result.codes.shape == (1,)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # (240, 320, 2) passes 65 535 voxels, and 32 767 pixels in a band, so
    # both sort keys in _add_runs take 32 bits
    @pytest.mark.parametrize("shape", [(60, 80, 4), (240, 320, 2)])
    def test_many_single_pixel_runs(self, dtype, shape):
        rng = np.random.default_rng(6)
        proba = random_proba(rng, shape, dtype, negative_zero=False)
        voxel = rng.permutation(shape[0] * shape[1])
        voxel[rng.random(voxel.size) < 0.1] = -1
        result = assert_matches_unique_oracle(voxel_run_frame(voxel, proba))
        assert result.codes.shape == (np.count_nonzero(voxel >= 0),)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_runs_around_eight_rows_and_the_cut(self, dtype, negative_zero):
        lengths = [1, 2, 7, 8, 9, _STEP_ROWS - 1, _STEP_ROWS, _STEP_ROWS + 1,
                   2 * _STEP_ROWS + 3]
        rng = np.random.default_rng(7)
        voxel = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
        proba = random_proba(rng, (1, voxel.size, 3), dtype, negative_zero)
        result = assert_matches_unique_oracle(voxel_run_frame(voxel, proba))
        if negative_zero:
            assert np.array_equal(result.means[:, 0].view(np.uint64), np.zeros(len(lengths)))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.one_of(st.sampled_from([1, 7, 8, 9, _STEP_ROWS - 1, _STEP_ROWS,
                                               _STEP_ROWS + 1]),
                              st.integers(1, 3 * _STEP_ROWS)), min_size=1, max_size=24),
           st.integers(0, 40),
           st.sampled_from([np.float32, np.float64]),
           st.booleans(), st.integers(2, 6))
    # a tiny channel 1 went negative when the generator put the residual there
    @example(seed=165, lengths=[1, 1, 1, 1, 1, 1, 1, 7, 7, 7, 7, 7, 63, 63, 63, 114],
             invalid=40, dtype=np.float32, negative_zero=True, channels=5)
    def test_random_run_layouts(self, seed, lengths, invalid, dtype, negative_zero, channels):
        rng = np.random.default_rng(seed)
        voxel = rng.permutation(np.concatenate([
            np.repeat(rng.permutation(4 * len(lengths))[:len(lengths)], lengths),
            np.full(invalid, -1)]))
        proba = random_proba(rng, (1, voxel.size, channels), dtype, negative_zero)
        assert_matches_unique_oracle(voxel_run_frame(voxel, proba))

    def test_roi_cut_keeps_pixel_order(self):
        """Pixels dropped by the roi leave the remaining runs and their order intact."""
        rng = np.random.default_rng(8)
        voxel = rng.integers(0, 12, size=600)
        proba = random_proba(rng, (1, 600, 3), np.float32, negative_zero=False)
        roi = Box3((0.0, 0.0, 3.5), (1.0, 1.0, 9.5))  # z keys 3 ..= 9 (voxels 2 ..= 8)
        result = assert_matches_unique_oracle(voxel_run_frame(voxel, proba), roi=roi)
        assert result.pixels_skipped_roi == np.count_nonzero((voxel < 2) | (voxel > 8))


def _ulp_shift(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


def spread_frame(rng, resolution):
    """An 8 x 10 frame whose pixels land in a few hundred voxels on every
    axis, negative keys included, at any resolution."""
    h, w = 8, 10
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h)
    depth = resolution * rng.uniform(1.0, 40.0, size=(h, w))
    proba = random_proba(rng, (h, w, 3), np.float64, negative_zero=False)
    pose = Pose(np.eye(3), resolution * rng.uniform(-200.0, 200.0, size=3))
    return make_frame(depth, proba, intr, pose)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([0.0025, 0.005, 0.01, 0.1, 1.0 / 3.0, 7.0]),
                 st.floats(1e-6, 1e3)),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=3, max_size=3))
def test_roi_cut_matches_float_centers(resolution, seed, ulps):
    """The per-axis roi cut keeps exactly the voxels whose float center
    roi.contains, for faces on a center and one ulp either side."""
    frame = spread_frame(np.random.default_rng(seed), resolution)
    keys = unpack_codes(register_frame(frame, resolution).codes)
    lo_face, hi_face = [], []
    for axis, (lo_ulps, hi_ulps) in enumerate(ulps):
        lo_key, hi_key = np.quantile(keys[:, axis], [0.25, 0.75], method="nearest")
        lo_face.append(_ulp_shift(float(voxel_center(lo_key, resolution)), lo_ulps))
        hi_face.append(_ulp_shift(float(voxel_center(hi_key, resolution)), hi_ulps))
    assume(all(a < b for a, b in zip(lo_face, hi_face)))
    roi = Box3(tuple(lo_face), tuple(hi_face))
    result = assert_matches_unique_oracle(frame, resolution, roi)
    vv, uu = np.indices(frame.depth.shape).reshape(2, -1)
    d = frame.depth.reshape(-1)
    pixel_keys = np.floor(frame.pose.transform(np.stack([uu * d, vv * d, d], axis=1))
                          / resolution)
    assert result.pixels_skipped_roi == np.count_nonzero(
        ~roi.contains(voxel_center(pixel_keys, resolution)))


@pytest.mark.parametrize("corner", [1e300, 2.0 ** 70])
def test_roi_cut_past_the_int64_range(corner):
    """Faces far past any voxel center keep every pixel or drop every pixel."""
    frame = spread_frame(np.random.default_rng(9), 0.5)
    valid = np.count_nonzero(frame.depth > 0)
    everything = Box3((-corner,) * 3, (corner,) * 3)
    assert assert_matches_unique_oracle(frame, 0.5, everything).pixels_skipped_roi == 0
    beyond = Box3((-corner, -corner, corner / 2), (corner,) * 3)
    result = register_frame(frame, 0.5, beyond)
    assert result.codes.shape == (0,)
    assert result.pixels_skipped_roi == valid


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(x * x for x in q) > 0.1),
       st.tuples(*[st.floats(-1e3, 1e3)] * 3),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(3,), (1, 3), (2, 3), (7, 3), (300, 3), (5000, 3), (4, 1, 3), (3, 5, 3)]))
def test_pose_maps_a_point_to_its_row_in_any_batch(quaternion, translation, seed, shape):
    """rotate and transform give every point the bits of its row in an
    ``(N, 3)`` batch: alone, as one row, or in a stack of any shape. Two or
    more rows give the literal ``points @ rotation.T (+ translation)``."""
    w, x, y, z = np.array(quaternion) / np.linalg.norm(quaternion)
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    pose = Pose(rotation, translation)
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=3.0, size=shape)
    flat = points.reshape(-1, 3)
    batch = np.concatenate([flat, rng.normal(scale=3.0, size=(40, 3))])
    literal = batch @ pose.rotation.T
    for method, want in ((pose.rotate, literal), (pose.transform, literal + pose.translation)):
        rows = method(batch)
        assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))
        rows = rows[:flat.shape[0]]
        got = method(points)
        assert got.shape == shape
        assert np.array_equal(got.reshape(-1, 3).view(np.uint64), rows.view(np.uint64))
        for i in range(min(flat.shape[0], 8)):
            assert np.array_equal(method(flat[i]).view(np.uint64), rows[i].view(np.uint64))
            assert np.array_equal(method(flat[i:i + 1]).view(np.uint64),
                                  rows[i:i + 1].view(np.uint64))
    if len(shape) > 1 and shape[-2] > 1:
        assert np.array_equal(pose.transform(points).view(np.uint64),
                              (points @ pose.rotation.T + pose.translation).view(np.uint64))


# band sizes in pixel rows: one row, a few primes, and more than any test image
BAND_ROWS = st.one_of(st.just(1), st.sampled_from([2, 3, 7, 13, 61, 257]), st.just(1 << 30))


@contextlib.contextmanager
def bands_of(rows, image):
    """Band the frame check and the per-voxel means of ``image`` in ``rows``
    pixels each. One row sets the band to one byte, which still reads one
    row at a time."""
    row_bytes = image.shape[-1] * image.dtype.itemsize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid, "_BAND_BYTES", 1 if rows == 1 else rows * row_bytes)
        yield


def traced(run):
    """``run()`` and the traced peak above the traced size when it started."""
    tracemalloc.start()
    try:
        value = run()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def probimg_frame_files(tmp_path, proba):
    """A one-record manifest of a PROBIMG1 image and a depth image of 1 m,
    and the frame's intrinsics."""
    h, w = proba.shape[:2]
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=w / 2, cy=h / 2, width=w, height=h)
    write_probimg(tmp_path / "p.probimg", proba)
    write_depth_pgm(tmp_path / "d.pgm", np.ones((h, w)))
    write_manifest(tmp_path / "manifest.json", [{
        "depth_file": "d.pgm", "proba_file": "p.probimg", "timestamp": 0.0,
        "pose": pose_record(Pose.identity(), intr, 0.0)}])
    return tmp_path / "manifest.json", intr


class TestBands:
    """The frame check and the per-voxel means read the image band by band,
    with the results of one pass over the whole image."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), BAND_ROWS,
           st.lists(st.integers(1, 3 * _STEP_ROWS), min_size=1, max_size=24),
           st.sampled_from([np.float32, np.float64]), st.booleans(), st.integers(2, 6))
    def test_register_frame_matches_oracle(self, seed, band, lengths, dtype, with_roi, channels):
        """Shuffled runs cross band edges, one band-aligned band has no valid
        depth, and the roi is on or off: codes and means equal the oracle's,
        bit for bit."""
        rng = np.random.default_rng(seed)
        voxel = rng.permutation(np.repeat(rng.permutation(4 * len(lengths))[:len(lengths)],
                                          lengths))
        if band <= voxel.size:
            at = band * int(rng.integers(0, voxel.size // band + 1))
            voxel = np.insert(voxel, at, np.full(band, -1))
        proba = random_proba(rng, (1, voxel.size, channels), dtype, negative_zero=False)
        # z keys 1 ..= 2 * len(lengths) of the 4 * len(lengths) the voxels span
        roi = Box3((0.0, 0.0, 0.0), (1.0, 1.0, 2 * len(lengths) + 0.5)) if with_roi else None
        with bands_of(band, proba):
            assert_matches_unique_oracle(voxel_run_frame(voxel, proba), roi=roi)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 7, 13, 61]),
           st.sampled_from(["many", "one in a band", "one in the frame"]), st.booleans(),
           st.sampled_from([np.float32, np.float64]))
    def test_register_frame_matches_unbanded_deprojection(self, seed, band, valid, with_roi,
                                                          dtype):
        """Random poses, intrinsics, depths with invalid pixels and rois,
        deprojected in bands of 1, 2 or a prime number of pixel rows: codes,
        means and both skip counts equal those of the whole-frame
        deprojection, bit for bit, with one pixel on a voxel corner. A band
        or a frame that holds one valid pixel rotates it to the bits of its
        row in any batch (see Pose.rotate)."""
        rng = np.random.default_rng(seed)
        h, w = (int(n) for n in rng.integers(4, 16, size=2))
        intr = CameraIntrinsics(fx=rng.uniform(0.5, 50.0), fy=rng.uniform(0.5, 50.0),
                                cx=rng.uniform(0.0, w), cy=rng.uniform(0.0, h), width=w, height=h)
        depth = rng.uniform(0.2, 5.0, size=h * w)
        bad = rng.random(h * w) < 0.3
        depth[bad] = rng.choice([0.0, -1.0, np.nan, np.inf], size=np.count_nonzero(bad))
        lone = int(rng.integers(h * w))
        if valid == "one in the frame":
            depth[np.arange(h * w) != lone] = 0.0
        elif valid == "one in a band":
            first = lone - lone % band
            depth[first:first + band] = np.nan
        depth[lone] = rng.uniform(0.2, 5.0)
        q = rng.normal(size=4)
        w_, x, y, z = q / np.linalg.norm(q)
        rotation = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w_ * z), 2 * (x * z + w_ * y)],
            [2 * (x * y + w_ * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w_ * x)],
            [2 * (x * z - w_ * y), 2 * (y * z + w_ * x), 1 - 2 * (x * x + y * y)]])
        proba = random_proba(rng, (h, w, 3), dtype, False)
        # The translation puts the lone pixel on the voxel corner at the
        # origin, so that a rotation rounded one ulp off moves it to key -1
        # on some axis about half the time.
        pixel, world = oracle_world(make_frame(depth.reshape(h, w), proba, intr,
                                               Pose(rotation, np.zeros(3))))
        translation = -world[np.searchsorted(pixel, lone)]
        frame = make_frame(depth.reshape(h, w), proba, intr, Pose(rotation, translation))
        resolution = float(rng.uniform(0.02, 0.5))
        roi = None
        if with_roi:
            _, keys, _, _ = oracle_deproject(frame, resolution, None)
            lo = np.quantile(keys, 0.25, axis=0, method="nearest")
            hi = np.maximum(np.quantile(keys, 0.75, axis=0, method="nearest"), lo + 1)
            roi = Box3(tuple(voxel_center(lo, resolution)), tuple(voxel_center(hi, resolution)))
        _, _, skipped_depth, skipped_roi = oracle_deproject(frame, resolution, roi)
        with bands_of(band, frame.proba):
            result = assert_matches_unique_oracle(frame, resolution, roi)
        assert (result.pixels_skipped_depth, result.pixels_skipped_roi) == (skipped_depth,
                                                                            skipped_roi)
        if valid == "one in the frame":
            assert skipped_depth == h * w - 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), BAND_ROWS, st.sampled_from([np.float32, np.float64]),
           st.integers(2, 40), st.sampled_from([-1, 1]), st.booleans(), st.floats(-3.0, 3.0),
           st.floats(0.0, 1.0), st.sampled_from([None, -0.25, 1.5, np.nan]))
    def test_frame_check_matches_oracle(self, seed, band, dtype, channels, side, near_bound,
                                        offset, share, bad):
        """Sums pushed a few margins around 1e-5 or the float32 pass
        threshold, and an entry outside [0, 1] in a random band: the check
        accepts and rejects as the oracle does, with its message."""
        margin = channels * float(np.finfo(dtype).eps) + 1e-12
        deviation = (1e-5 if near_bound else 1e-5 - margin) + offset * margin
        image = pushed_simplex(seed, (7, 9, channels), dtype, side * deviation, share)
        if bad is not None:
            rng = np.random.default_rng(seed)
            image[rng.integers(7), rng.integers(9), rng.integers(channels)] = bad
        with bands_of(band, image):
            assert frame_check(image) == oracle_frame_check(image)

    @pytest.mark.parametrize("band", [1, 7, 1 << 30])
    def test_an_entry_past_1_in_the_last_band_outranks_off_sums_in_the_first(self, band):
        image = pushed_simplex(4, (5, 6, 3), np.float32, 0.0, share=0.0)
        image[0, 0] *= 1.001
        image[-1, -1, 0] = 1.5
        with bands_of(band, image):
            assert frame_check(image) == "probability image entries must lie in [0, 1]"
        assert oracle_frame_check(image) == "probability image entries must lie in [0, 1]"

    @pytest.mark.parametrize("band", [1, 7, 1 << 30])
    def test_off_sums_in_two_bands_report_the_worst_deviation(self, band):
        image = pushed_simplex(4, (5, 6, 3), np.float64, 0.0, share=0.0)
        image[0, 0] *= 1.002
        image[-1, -1] *= 0.995
        expected = "probability image channel sums deviate from 1 by 0.005"
        assert oracle_frame_check(image) == expected
        with bands_of(band, image):
            assert frame_check(image) == expected

    def test_sums_that_take_the_float64_pass_read_each_band_once(self):
        """Channel sums 0.8e-5 off 1 send every band to the float64 pass,
        which sums the band before the next one is read: the check asks for
        each band once, in order."""
        image = pushed_simplex(5, (6, 10, 40), np.float32, 0.8e-5, share=1.0)
        assert np.abs(image.sum(axis=2) - 1.0).max() + 40 * np.finfo(np.float32).eps > 1e-5
        starts, band_reader = [], registration._band_reader

        def record(image):
            read = band_reader(image)

            def recorded(start, stop):
                starts.append(start)
                return read(start, stop)
            return recorded

        with bands_of(7, image), pytest.MonkeyPatch.context() as patch:
            patch.setattr(registration, "_band_reader", record)
            assert frame_check(image) is None
        assert starts == [0, 7, 14, 21, 28, 35, 42, 49, 56]

    @pytest.mark.parametrize("with_roi", [False, True])
    def test_register_frame_reads_every_band_once_whole_and_in_order(self, tmp_path, with_roi):
        """A 12x10 PROBIMG1 frame in six bands of two image rows: rows 2-5
        have no valid depth and the roi, when set, cuts rows 10-11, yet
        register_frame reads every band to check it, each once, whole and in
        order, and its means equal the oracle's. Building the frame reads
        none."""
        rng = np.random.default_rng(16)
        proba = random_proba(rng, (12, 10, 4), np.float32, negative_zero=False)
        path = tmp_path / "p.probimg"
        write_probimg(path, proba)
        data = path.stat().st_size - proba.nbytes
        depth = np.ones((12, 10))
        depth[2:6] = 0.0
        # world y is the image row, so a voxel's center is its row + 0.5
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=12)
        roi = Box3((-1e3, -1.0, 0.0), (1e3, 9.9, 2.0)) if with_roi else None
        reads, preadv = [], os.preadv

        def record(fd, buffers, offset):
            got = preadv(fd, buffers, offset)
            reads.append((offset, got))
            return got

        with bands_of(20, proba):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "preadv", record)
                frame = make_frame(depth, read_probimg(path), intr)
                assert reads == []
                register_frame(frame, 1.0, roi)
            assert_matches_unique_oracle(frame, 1.0, roi)
        band_bytes = 20 * 4 * 4
        assert [((offset - data) // band_bytes, got) for offset, got in reads] == [
            (band, band_bytes) for band in range(6)]
        assert all((offset - data) % band_bytes == 0 for offset, _ in reads)

    def test_a_file_image_is_checked_holding_one_band(self, tmp_path):
        """Building a frame of a 320x240x40 PROBIMG1 image of 12.3 MB reads
        none of it, and registering it, check included, peaks at most one
        band above registering the same image on the heap, while reading
        the whole image takes all of it."""
        rng = np.random.default_rng(13)
        raw = rng.random((240, 320, 40))
        _, intr = probimg_frame_files(tmp_path, raw / raw.sum(axis=2, keepdims=True))
        depth = np.ones((240, 320))
        frame, peak = traced(lambda: make_frame(depth, read_probimg(tmp_path / "p.probimg"), intr))
        assert isinstance(frame.proba, FileImage)
        assert peak < grid._BAND_BYTES // 16
        heap_frame = make_frame(depth, np.asarray(frame.proba), intr)
        (on_file, file_peak), (on_heap, heap_peak) = (traced(lambda: register_frame(f, 0.01))
                                                      for f in (frame, heap_frame))
        assert len(on_file.codes) > 1000 and np.array_equal(on_file.means, on_heap.means)
        assert file_peak - heap_peak <= grid._BAND_BYTES * 9 // 8
        assert traced(lambda: np.asarray(frame.proba))[1] >= raw.size * 4

    def test_register_frame_holds_one_band_more_for_a_file_image(self, tmp_path):
        """Each time register_frame has added a band's rows of a
        320x240x40 PROBIMG1 frame to the voxel sums, while it still holds
        that band, it holds at most one band more than for the same image
        on the heap. 20 cm voxels span 60 image rows, so a voxel's pixels
        lie in several of the 12 bands."""
        rng = np.random.default_rng(15)
        raw = rng.random((240, 320, 40))
        manifest, intr = probimg_frame_files(tmp_path, raw / raw.sum(axis=2, keepdims=True))
        on_file = read_frame_records(manifest)[0].load()
        on_heap = make_frame(on_file.depth, np.asarray(on_file.proba), intr)
        held, add_runs = {}, registration._add_runs
        for frame in (on_file, on_heap):
            held[frame] = []

            def record_sums(sums, rows, pixel, run):
                add_runs(sums, rows, pixel, run)
                held[frame].append(tracemalloc.get_traced_memory()[0])

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(registration, "_add_runs", record_sums)
                result, _ = traced(lambda: register_frame(frame, 0.2))
            assert 1 < len(result.codes) < 100
        assert len(held[on_file]) == len(held[on_heap]) == 12
        extra = np.subtract(held[on_file], held[on_heap])
        assert (extra > grid._BAND_BYTES // 2).all() and (extra <= grid._BAND_BYTES + 4096).all()

    def test_sums_that_take_the_float64_pass_hold_one_band(self, tmp_path):
        """Channel sums 0.8e-5 off 1 are too far off for the float32 pass,
        so the float64 pass decides the frame: it accepts it, summing each
        band of the file as it is read, and register_frame peaks at most a
        quarter band above registering the same image with exact sums."""
        rng = np.random.default_rng(13)
        raw = rng.random((240, 320, 40))
        exact = raw / raw.sum(axis=2, keepdims=True)
        proba = (exact * (1.0 + 0.8e-5)).astype(np.float32)
        assert np.abs(proba.sum(axis=2) - 1.0).max() + 40 * np.finfo(np.float32).eps > 1e-5
        peaks = []
        for name, image in (("off", proba), ("exact", exact)):
            (tmp_path / name).mkdir()
            _, intr = probimg_frame_files(tmp_path / name, image)
            frame = make_frame(np.ones((240, 320)), read_probimg(tmp_path / name / "p.probimg"),
                               intr)
            result, peak = traced(lambda: register_frame(frame, 0.01))
            assert len(result.codes) > 1000
            peaks.append(peak)
        assert peaks[0] - peaks[1] <= grid._BAND_BYTES // 4

    @pytest.mark.parametrize("kind", ["copy-on-write map", "np.memmap mode c", "heap array"])
    def test_writable_images_keep_their_values(self, tmp_path, kind):
        """An image written after mapping it copy-on-write, where reading
        the file would bring its values back, and a heap array register as
        the oracle does and hold their values afterwards."""
        rng = np.random.default_rng(14)
        shape = (30, 40, 4)
        on_disk, written = (random_proba(rng, shape, np.float32, negative_zero=False)
                            for _ in range(2))
        path = tmp_path / "p.probimg"
        write_probimg(path, on_disk)
        if kind == "copy-on-write map":
            with open(path, "rb") as f:
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
            image = np.frombuffer(mapped, "<f4", count=on_disk.size,
                                  offset=len(mapped) - on_disk.nbytes).reshape(shape)
        elif kind == "np.memmap mode c":
            image = np.memmap(path, dtype="<f4", mode="c", shape=shape,
                              offset=path.stat().st_size - on_disk.nbytes)
        else:
            image = np.empty(shape, dtype=np.float32)
        image[...] = written
        voxel = rng.integers(0, 50, size=30 * 40)
        with bands_of(3, image):
            frame = voxel_run_frame(voxel, image)
            assert frame_check(image) == oracle_frame_check(written) is None
            assert_matches_unique_oracle(frame)
        assert np.array_equal(image, written)


class TestFileImage:
    """A PROBIMG1 frame reads the file it was opened from, through a
    descriptor of its own, and registers as the same image on the heap."""

    def test_a_file_replaced_after_loading_registers_the_checked_image(self, tmp_path):
        """After the frame is loaded, its file is replaced by one whose
        channel sums are 3: register_frame still checks and registers the
        image the frame was loaded from, to the bits of its heap copy."""
        proba = random_proba(np.random.default_rng(21), (24, 30, 5), np.float32, False)
        manifest, intr = probimg_frame_files(tmp_path, proba)
        frame = read_frame_records(manifest)[0].load()
        write_probimg(tmp_path / "new.probimg", proba * 3)
        os.replace(tmp_path / "new.probimg", tmp_path / "p.probimg")
        expected = register_frame(make_frame(np.ones((24, 30)), proba, intr), 0.01)
        result = register_frame(frame, 0.01)
        assert len(result.codes) > 50 and np.array_equal(result.codes, expected.codes)
        assert np.array_equal(result.means.view(np.uint64), expected.means.view(np.uint64))

    def test_a_file_truncated_after_loading_raises_naming_it_once(self, tmp_path):
        proba = random_proba(np.random.default_rng(22), (24, 30, 5), np.float32, False)
        manifest, _ = probimg_frame_files(tmp_path, proba)
        frame = read_frame_records(manifest)[0].load()
        path = tmp_path / "p.probimg"
        os.truncate(path, path.stat().st_size // 2)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: truncated at byte "
                                             rf"{path.stat().st_size}$") as info:
            register_frame(frame, 0.01)
        assert str(info.value).count(str(path)) == 1

    def test_a_file_truncated_before_its_check_raises_naming_it_once(self, tmp_path):
        """The header is read whole, then the payload loses its last entry:
        the frame loads, reading no payload, and register_frame raises a
        ValueError at its last band that names the file once."""
        proba = random_proba(np.random.default_rng(23), (24, 30, 5), np.float32, False)
        manifest, _ = probimg_frame_files(tmp_path, proba)
        path, read = tmp_path / "p.probimg", fileio.read_probimg

        def truncating(name, scores):
            image = read(name, scores=scores)
            os.truncate(name, name.stat().st_size - 4)
            return image

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "read_probimg", truncating)
            frame = read_frame_records(manifest)[0].load()
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: truncated at byte "
                                             rf"{path.stat().st_size}$") as info:
            register_frame(frame, 0.01)
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("bad", [1.5, np.nan])
    def test_an_entry_written_after_loading_raises_naming_the_file_once(self, tmp_path, bad):
        """After the frame is loaded, one entry of a pixel that registers is
        overwritten in place: register_frame checks the bytes it sums, so it
        raises instead of averaging the entry into its voxel."""
        proba = random_proba(np.random.default_rng(25), (24, 30, 5), np.float32, False)
        manifest, _ = probimg_frame_files(tmp_path, proba)
        frame = read_frame_records(manifest)[0].load()
        path = tmp_path / "p.probimg"
        entry = np.ravel_multi_index((10, 7, 2), proba.shape)
        with open(path, "r+b") as f:
            f.seek(path.stat().st_size - proba.nbytes + 4 * entry)
            f.write(np.float32(bad).tobytes())
        with pytest.raises(ValueError) as info:
            register_frame(frame, 0.01)
        assert str(info.value) == f"{path}: probability image entries must lie in [0, 1]"

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, pickle.dumps])
    def test_an_image_is_not_copied(self, tmp_path, copier):
        """A copy would share the descriptor, which the first image freed
        closes; the image refuses, naming its file."""
        write_probimg(tmp_path / "p.probimg", np.full((2, 3, 2), 0.5))
        with pytest.raises(TypeError, match=rf"^{re.escape(str(tmp_path / 'p.probimg'))}: "):
            copier(read_probimg(tmp_path / "p.probimg"))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), BAND_ROWS, st.sampled_from([1, 2, 3, 7, 13]),
           st.sampled_from([1, 2, 3, 7, 13]), st.integers(2, 6), st.booleans(),
           st.sampled_from([None, -0.25, 1.5, np.nan]))
    def test_a_file_frame_registers_as_its_heap_copy(self, tmp_path_factory, seed, band, h, w,
                                                     channels, with_roi, bad):
        """Random depths with invalid pixels, poses and rois; bands of one
        pixel row, a prime number of rows or more than the image; images of
        a prime number of pixels: a frame of a PROBIMG1 file and one of the
        same image on the heap register alike: the same error, which names
        the file for the file's frame, or bit-identical codes, means and skip
        counts."""
        rng = np.random.default_rng(seed)
        proba = random_proba(rng, (h, w, channels), np.float32, negative_zero=False)
        if bad is not None:
            proba[rng.integers(h), rng.integers(w), rng.integers(channels)] = bad
        path = tmp_path_factory.mktemp("probimg") / "p.probimg"
        write_probimg(path, proba)
        intr = CameraIntrinsics(fx=rng.uniform(0.5, 50.0), fy=rng.uniform(0.5, 50.0),
                                cx=rng.uniform(0.0, w), cy=rng.uniform(0.0, h), width=w, height=h)
        depth = rng.uniform(0.2, 5.0, size=(h, w))
        depth[rng.random((h, w)) < 0.3] = 0.0
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pose = Pose(rotation * np.sign(np.linalg.det(rotation)), rng.normal(size=3))
        roi = Box3(rng.uniform(-3.0, 0.0, 3), rng.uniform(0.0, 3.0, 3)) if with_roi else None
        resolution, outcomes = rng.uniform(0.05, 0.5), []
        with bands_of(band, proba):
            for image, where in ((read_probimg(path), f"{path}: "), (proba, "")):
                try:
                    result = register_frame(make_frame(depth, image, intr, pose), resolution, roi)
                except ValueError as exc:
                    assert str(exc).startswith(where)
                    outcomes.append(str(exc)[len(where):])
                    continue
                outcomes.append((result.codes.tolist(), result.means.view(np.uint64).tolist(),
                                 result.pixels_skipped_depth, result.pixels_skipped_roi))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_fuse_stream_leaves_no_descriptor_open(self, tmp_path):
        """Four records of one PROBIMG1 file, three of them fused: each
        frame's descriptor is closed before the next frame loads, none is
        left open after, and none is left to the collector."""
        proba = random_proba(np.random.default_rng(24), (24, 30, 5), np.float32, False)
        manifest, _ = probimg_frame_files(tmp_path, proba)
        records = read_manifest(manifest) * 4
        write_manifest(manifest, [dict(record, timestamp=float(i),
                                       pose=dict(record["pose"], timestamp=float(i)))
                                  for i, record in enumerate(records)])
        def open_fds():
            return sorted(os.listdir("/proc/self/fd"))

        before, during = open_fds(), []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = fuse_stream(LabelOccupancyGrid(0.05, 5), read_frame_records(manifest),
                                on_frame=lambda *_: during.append(open_fds()))
        assert stats.frames_fused == 3
        assert during == [before] * 4 and open_fds() == before
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestScoreBands:
    """A PROBIMG1 file of class scores, read as a FileImage with ``scores``,
    softmaxes each band as register_frame reads it, to the bits of
    softmax_image of the whole image on the heap."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), BAND_ROWS, st.sampled_from([2, 3, 5, 7, 13]),
           st.sampled_from([2, 3, 5, 7, 13]), st.sampled_from([2, 3, 40]), st.booleans(),
           st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_a_score_file_registers_as_its_whole_image_softmax(self, tmp_path_factory, seed,
                                                               band, h, w, channels, with_roi,
                                                               bad):
        """Random depths with invalid pixels, poses and rois; bands of one
        pixel row, a prime number of rows or more than the image; images of
        prime heights and widths: codes, means and skip counts equal those
        of softmax_image's heap image, bit for bit. A non-finite score in a
        random band raises naming the file and the score's pixel in the whole
        image, as softmax_image names it."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(scale=5.0, size=(h, w, channels)).astype(np.float32)
        if bad is not None:
            v, u, c = (int(rng.integers(n)) for n in (h, w, channels))
            scores[v, u, c] = bad
        path = tmp_path_factory.mktemp("scores") / "s.probimg"
        write_probimg(path, scores)
        intr = CameraIntrinsics(fx=rng.uniform(0.5, 50.0), fy=rng.uniform(0.5, 50.0),
                                cx=rng.uniform(0.0, w), cy=rng.uniform(0.0, h), width=w, height=h)
        depth = rng.uniform(0.2, 5.0, size=(h, w))
        depth[rng.random((h, w)) < 0.3] = 0.0
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pose = Pose(rotation * np.sign(np.linalg.det(rotation)), rng.normal(size=3))
        roi = Box3(rng.uniform(-3.0, 0.0, 3), rng.uniform(0.0, 3.0, 3)) if with_roi else None
        resolution = rng.uniform(0.05, 0.5)
        image = read_probimg(path, scores=True)
        assert image.dtype == np.float64
        with bands_of(band, image):
            if bad is not None:
                with pytest.raises(ValueError) as info:
                    register_frame(make_frame(depth, image, intr, pose), resolution, roi)
                message = f"non-finite score at pixel (row={v}, col={u}, channel={c})"
                assert str(info.value) == f"{path}: {message}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    softmax_image(scores)
                return
            result, expected = (register_frame(make_frame(depth, proba, intr, pose),
                                               resolution, roi)
                                for proba in (image, softmax_image(scores)))
        assert np.array_equal(result.codes, expected.codes)
        assert np.array_equal(result.means.view(np.uint64), expected.means.view(np.uint64))
        assert (result.pixels_skipped_depth, result.pixels_skipped_roi) == (
            expected.pixels_skipped_depth, expected.pixels_skipped_roi)


def test_a_logits_frame_loads_and_registers_within_two_bands_of_a_proba_frame(tmp_path):
    """Loading and registering a 320x240x40 logits_file frame peaks within
    two float64 bands of the same frame's proba_file: on a 2-core x86-64 VM
    with numpy 2.4, 6.46 MB against 6.44 MB, where softmaxing the whole image
    at load peaked at 37.5 MB."""
    rng = np.random.default_rng(17)
    raw = rng.random((240, 320, 40))
    proba = raw / raw.sum(axis=2, keepdims=True)
    manifest, _ = probimg_frame_files(tmp_path, proba)
    write_probimg(tmp_path / "s.probimg", np.log(proba))
    del raw, proba
    record = read_manifest(manifest)[0]
    logits = {key: value for key, value in record.items() if key != "proba_file"}
    logits["logits_file"] = "s.probimg"
    peaks = []
    for frame_record in (record, logits):
        result, peak = traced(lambda: register_frame(fileio.load_frame(frame_record, tmp_path),
                                                     0.01))
        assert len(result.codes) > 1000
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= 2 * grid._BAND_BYTES
