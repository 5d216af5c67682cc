"""Registration: softmax, pinhole deprojection, frame-to-voxel binning."""

import contextlib
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from labelgrid import (Box3, CameraIntrinsics, Pose, SensorFrame, register_frame,
                       softmax_image)
from labelgrid import grid, registration
from labelgrid.fileio import (pose_record, read_frame_records, write_depth_pgm, write_manifest,
                              write_probimg)
from labelgrid.grid import pack_keys, unpack_codes, voxel_center
from labelgrid.registration import _STEP_ROWS
from oracles import oracle_frame_check, oracle_register

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
            make_frame(depth, proba, intr100)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rejects_nan_on_a_zero_depth_pixel(self, intr100, dtype):
        depth = np.ones((200, 200))
        depth[3, 4] = 0.0
        proba = np.full((200, 200, 2), 0.5, dtype=dtype)
        proba[3, 4, 1] = np.nan
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            make_frame(depth, proba, intr100)

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
    """The float32 channel sums of a 320x240x40 simplex image take 4 traced
    bytes per pixel; float64 sums and their deviations took 24."""
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0, width=320, height=240)
    depth = np.ones((240, 320))
    proba = np.full((240, 320, 40), 0.025, dtype=np.float32)
    make_frame(depth, proba, intr)
    tracemalloc.start()
    try:
        frame = make_frame(depth, proba, intr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.proba is proba
    assert peak / depth.size < 8


@pytest.mark.parametrize("with_roi", [False, True])
def test_register_frame_peak_memory_per_pixel(with_roi):
    """The deprojection fills one (N, 3) float64 buffer in place and drops
    each temporary once it is dead: an all-valid 320x240 frame peaks at
    60-72 traced bytes per pixel, where one temporary per whole-array
    expression peaks at 133-145."""
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0, width=320, height=240)
    c, s = math.cos(0.3), math.sin(0.3)
    pose = Pose(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]), np.array([0.1, 0.2, 0.3]))
    frame = make_frame(np.full((240, 320), 1.0), np.full((240, 320, 2), 0.5, dtype=np.float32),
                       intr, pose)
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
    assert peak / frame.depth.size < 100


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
    intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=3.0, cy=2.0, width=6, height=5)
    raw = rng.uniform(0.0, 1.0, size=(5, 6, channels))
    proba = raw / raw.sum(axis=2, keepdims=True)
    # push some pixels' sums to within a few float32 ulps of the 1e-5 bound
    proba[rng.random((5, 6)) < share] *= 1.0 + side * 1e-5 + jitter
    proba = proba.astype(np.float32)
    assert np.array_equal(proba.sum(axis=2, dtype=np.float64), proba.astype(float).sum(axis=2))
    outcomes = []
    for image in (proba, proba.astype(float)):
        try:
            make_frame(np.ones((5, 6)), image, intr)
            outcomes.append("accepted")
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def frame_check(image):
    """The message of the ``ValueError`` that building a frame of ``image``
    raises, or ``None`` when the frame is built."""
    h, w = image.shape[:2]
    intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=0.0, cy=0.0, width=w, height=h)
    try:
        make_frame(np.ones((h, w)), image, intr)
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
    """Building a frame accepts and rejects exactly the images that the
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
    def test_many_single_pixel_runs(self, dtype):
        rng = np.random.default_rng(6)
        proba = random_proba(rng, (60, 80, 4), dtype, negative_zero=False)
        voxel = rng.permutation(60 * 80)
        voxel[rng.random(60 * 80) < 0.1] = -1
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
def test_pose_transform_is_the_literal_product(quaternion, translation, seed, shape):
    """The contiguous transpose changes no bit, for one point or many."""
    w, x, y, z = np.array(quaternion) / np.linalg.norm(quaternion)
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    pose = Pose(rotation, translation)
    points = np.random.default_rng(seed).normal(scale=3.0, size=shape)
    expected = points @ pose.rotation.T + pose.translation
    assert np.array_equal(pose.transform(points).view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(pose.rotate(points).view(np.uint64),
                          (points @ pose.rotation.T).view(np.uint64))


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


def map_rss(path):
    """Resident bytes of this process's maps of ``path``, from
    /proc/self/smaps, or ``None`` when the file is not mapped."""
    resident, inside, found = 0, False, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            fields = line.split()
            if not fields[0].endswith(":"):
                inside = " ".join(fields[5:]) == str(path)
                found |= inside
            elif inside and fields[0] == "Rss:":
                resident += int(fields[1]) * 1024
    return resident if found else None


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
        which sums the band before the next one is read: the check drops
        each band's pages once, in order."""
        image = pushed_simplex(5, (6, 10, 40), np.float32, 0.8e-5, share=1.0)
        assert np.abs(image.sum(axis=2) - 1.0).max() + 40 * np.finfo(np.float32).eps > 1e-5
        stops, drop = [], registration._drop_pages_before

        def record(rows, stop):
            stops.append(stop)
            drop(rows, stop)

        with bands_of(7, image), pytest.MonkeyPatch.context() as patch:
            patch.setattr(registration, "_drop_pages_before", record)
            assert frame_check(image) is None
        assert stops == [7, 14, 21, 28, 35, 42, 49, 56, 60]

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
    @pytest.mark.parametrize("opener", ["FrameRecord.load", "np.memmap mode r"])
    def test_a_read_only_map_keeps_at_most_one_band_resident(self, tmp_path, opener):
        """A 320x240x40 PROBIMG1 frame maps 12.3 MB. After its check, and
        again after register_frame, at most one band and two pages of it
        are resident; touching every entry brings the whole image back."""
        rng = np.random.default_rng(13)
        raw = rng.random((240, 320, 40))
        manifest, intr = probimg_frame_files(tmp_path, raw / raw.sum(axis=2, keepdims=True))
        path = tmp_path / "p.probimg"
        if opener == "FrameRecord.load":
            frame = read_frame_records(manifest)[0].load()
        else:
            image = np.memmap(path, dtype="<f4", mode="r", shape=raw.shape,
                              offset=path.stat().st_size - raw.size * 4)
            frame = make_frame(np.ones((240, 320)), image, intr)
        bound = grid._BAND_BYTES + 2 * mmap.PAGESIZE
        assert map_rss(path) <= bound
        result = register_frame(frame, 0.01)
        assert len(result.codes) > 1000
        assert map_rss(path) <= bound
        frame.proba.sum(dtype=np.float64)
        assert map_rss(path) >= raw.size * 4

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
    def test_sums_that_take_the_float64_pass_keep_at_most_one_band_resident(self, tmp_path):
        """Channel sums 0.8e-5 off 1 are too far off for the float32 pass,
        so the float64 pass decides the frame: it accepts it, reading the
        map band by band as the first pass does."""
        rng = np.random.default_rng(13)
        raw = rng.random((240, 320, 40))
        proba = (raw / raw.sum(axis=2, keepdims=True) * (1.0 + 0.8e-5)).astype(np.float32)
        assert np.abs(proba.sum(axis=2) - 1.0).max() + 40 * np.finfo(np.float32).eps > 1e-5
        manifest, _ = probimg_frame_files(tmp_path, proba)
        frame = read_frame_records(manifest)[0].load()
        bound = grid._BAND_BYTES + 2 * mmap.PAGESIZE
        assert map_rss(tmp_path / "p.probimg") <= bound
        assert len(register_frame(frame, 0.01).codes) > 1000
        assert map_rss(tmp_path / "p.probimg") <= bound

    @pytest.mark.parametrize("kind", ["copy-on-write map", "heap array"])
    def test_writable_images_keep_their_values(self, tmp_path, kind):
        """An image written after mapping it copy-on-write, where dropping
        pages would bring the file's values back, and a heap array register
        as the oracle does and hold their values afterwards."""
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
        else:
            image = np.empty(shape, dtype=np.float32)
        image[...] = written
        voxel = rng.integers(0, 50, size=30 * 40)
        with bands_of(3, image):
            frame = voxel_run_frame(voxel, image)
            assert frame_check(image) == oracle_frame_check(written) is None
            assert_matches_unique_oracle(frame)
        assert np.array_equal(image, written)
