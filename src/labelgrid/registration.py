"""Convert labeled depth frames into per-voxel measurement probabilities.

A sensor frame carries a depth image, a per-pixel class probability image
and the camera pose. Registration deprojects every valid-depth pixel
through the pinhole model, transforms it to world coordinates, bins it
into a voxel, and averages the probability vectors of pixels that land in
the same voxel so each voxel receives exactly one measurement per frame.
Voxels whose center lies outside the region of interest are dropped here,
the one place the pipeline applies the roi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import Box3, Pose
from .grid import VoxelKey, pack_keys, unpack_codes, voxel_center


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters mapping pixels to 3D rays."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")


def softmax_image(logits) -> np.ndarray:
    """Per-pixel softmax of an (H, W, C) score image, max-subtracted for safety."""
    arr = np.asarray(logits, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected an (H, W, C) score image, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        v, u, c = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite score at pixel (row={v}, col={u}, channel={c})")
    shifted = arr - arr.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=2, keepdims=True)


def deproject(pixel, depth_m: float, intrinsics: CameraIntrinsics) -> Optional[np.ndarray]:
    """Camera-frame 3D point for a pixel, or None when the depth is invalid."""
    u, v = float(pixel[0]), float(pixel[1])
    if not (0 <= u < intrinsics.width and 0 <= v < intrinsics.height):
        raise ValueError(f"pixel ({u}, {v}) outside a {intrinsics.width}x{intrinsics.height} image")
    if not (math.isfinite(depth_m) and depth_m > 0):
        return None
    return np.array([
        (u - intrinsics.cx) * depth_m / intrinsics.fx,
        (v - intrinsics.cy) * depth_m / intrinsics.fy,
        depth_m,
    ])


def project(point_cam, intrinsics: CameraIntrinsics) -> tuple[float, float, float]:
    """Pinhole projection of a camera-frame point, returning (u, v, depth)."""
    x, y, z = (float(c) for c in point_cam)
    if z <= 0:
        raise ValueError(f"point behind the camera, z={z}")
    return (intrinsics.cx + intrinsics.fx * x / z,
            intrinsics.cy + intrinsics.fy * y / z,
            z)


@dataclass(eq=False)
class SensorFrame:
    """One measurement: depth + per-pixel class probabilities + pose.

    ``proba`` must be a per-pixel simplex image: entries in [0, 1], channel
    sums within 1e-5 of 1. A float32 image (as PROBIMG1 decodes) stays
    float32, any other is widened to float64. Raw class scores are turned
    into probabilities with :func:`softmax_image` before a frame is built.
    """

    timestamp: float
    depth: np.ndarray
    pose: Pose
    intrinsics: CameraIntrinsics
    proba: np.ndarray

    def __post_init__(self) -> None:
        self.depth = np.asarray(self.depth, dtype=float)
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.depth.shape != shape:
            raise ValueError(f"depth shape {self.depth.shape} does not match intrinsics {shape}")
        image = np.asarray(self.proba)
        if image.dtype != np.float32:
            image = image.astype(float, copy=False)
        if image.ndim != 3 or image.shape[:2] != shape:
            raise ValueError(f"channel image shape {image.shape} does not match intrinsics {shape}")
        if image.shape[2] < 2:
            raise ValueError("channel image needs at least two classes")
        # written so that a NaN entry, which fails every comparison, is rejected
        if not (image.min() >= 0.0 and image.max() <= 1.0):
            raise ValueError("probability image entries must lie in [0, 1]")
        sums = image.sum(axis=2, dtype=np.float64)
        worst = float(np.abs(sums - 1.0).max())
        if worst > 1e-5:
            raise ValueError(f"probability image channel sums deviate from 1 by {worst:.3g}")
        self.proba = image

    @property
    def num_labels(self) -> int:
        return self.proba.shape[2]

    def load(self) -> "SensorFrame":
        """The frame itself, so a list of frames is a stream for ``fuse_stream``."""
        return self


class VoxelMeasurement(NamedTuple):
    """Aggregated probability vector for one voxel within one frame."""

    key: VoxelKey
    label_p: np.ndarray


@dataclass
class RegistrationResult:
    """Per-voxel mean probabilities of one frame.

    ``codes`` holds the strictly increasing voxel codes (see
    :func:`~labelgrid.grid.pack_key`) and ``means`` the matching
    ``(N, num_labels)`` mean probability rows.
    """

    codes: np.ndarray
    means: np.ndarray
    pixels_skipped_depth: int
    pixels_skipped_roi: int

    @property
    def measurements(self) -> list[VoxelMeasurement]:
        """The result as one (key, probabilities) pair per voxel, in key order."""
        keys = unpack_codes(self.codes).tolist()
        return [VoxelMeasurement(VoxelKey(*k), row) for k, row in zip(keys, self.means)]


# runs longer than this finish with one np.add.accumulate, so the row
# loop in _run_means takes at most this many steps per frame
_STEP_ROWS = 64


def _run_means(rows: np.ndarray, pixel: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """float64 means of ``rows`` over each run ``pixel[starts[i]:starts[i + 1]]``
    (the last run ends at ``len(pixel)``): each run's sum over its length.

    Each sum is ``((+0.0 + r0) + r1) + ...`` in run order, the left-to-right
    sum that adding the rows one at a time into zeros forms: rows are
    widened exactly from float32, and the ``+0.0`` start turns a ``-0.0``
    entry into ``+0.0`` as a zero-initialised sum does. Runs are stepped
    longest first, so step k adds the k-th row of a prefix of them.
    ``np.add.reduceat`` is not used: it regroups runs of 8 or more rows.
    """
    lengths = np.diff(starts, append=pixel.shape[0])
    by_length = np.argsort(-lengths, kind="stable")
    first, length = starts[by_length], lengths[by_length]
    # longer[k] = how many runs have more than k rows (a prefix of by_length)
    steps = min(int(length[0]), _STEP_ROWS)
    longer = np.searchsorted(-length, -np.arange(steps + 1), side="left")
    sums = np.add(rows[pixel[first]], 0.0, dtype=float)
    for k in range(1, steps):
        m = longer[k]
        sums[:m] += rows[pixel[first[:m] + k]]
    # accumulate adds strictly in order, so the partial sums carry on exactly
    for r in range(longer[steps]):
        rest = rows[pixel[first[r] + steps:first[r] + length[r]]]
        sums[r] = np.add.accumulate(np.concatenate((sums[r:r + 1], rest)), axis=0)[-1]
    sums /= length[:, None]
    means = np.empty_like(sums)
    means[by_length] = sums
    return means


def _first_key(predicate) -> int:
    """Smallest int64 k with ``predicate(k)``, for a predicate that never turns
    false as k grows; 2**63 when it holds for no int64 k."""
    lo, hi = -(1 << 63), 1 << 63
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@functools.lru_cache(maxsize=64)
def roi_key_bounds(roi: Box3, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Per axis, the smallest and largest int64 key whose voxel center lies in
    the closed ``roi``, as two read-only int64 3-vectors ``(lo, hi)``.

    The centers are :func:`voxel_center`'s float expression, which never
    decreases as the key grows, so a key's center lies in the roi exactly
    when ``lo <= key <= hi`` on every axis. An axis with no such key gets
    ``lo = 1 > hi = 0``.
    """
    lo, hi = [], []
    for axis in range(3):
        first = _first_key(lambda k: voxel_center(k, resolution) >= roi.min[axis])
        last = _first_key(lambda k: voxel_center(k, resolution) > roi.max[axis]) - 1
        lo.append(first if first <= last else 1)
        hi.append(last if first <= last else 0)
    bounds = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    for b in bounds:
        b.flags.writeable = False
    return bounds


def keys_in_roi(keys, roi: Box3, resolution: float) -> np.ndarray:
    """Mask of the (N, 3) integer keys whose voxel center lies in the closed
    ``roi``: ``roi.contains(voxel_center(keys, resolution))``, tested on the
    keys against :func:`roi_key_bounds`."""
    lo, hi = roi_key_bounds(roi, resolution)
    inside = np.ones(keys.shape[0], dtype=bool)
    # one column at a time: several times faster than an (N, 3) mask and .all()
    for axis in range(3):
        column = keys[:, axis]
        inside &= (column >= lo[axis]) & (column <= hi[axis])
    return inside


def register_frame(frame: SensorFrame, resolution: float,
                   roi: Optional[Box3] = None) -> RegistrationResult:
    """Bin every valid-depth pixel of a frame into world-space voxels.

    Pixels landing in the same voxel are averaged (one measurement per
    voxel per frame). Voxels whose center falls outside ``roi`` are
    dropped and counted; the test runs on the integer keys against
    :func:`roi_key_bounds` and gives the same answer as
    testing the float centers. Output is sorted by voxel key and
    deterministic: each voxel's sum starts at ``+0.0`` and adds its
    pixels' probability rows in float64, one at a time, in pixel
    row-major order, then divides by the pixel count. A kept voxel key
    outside [-2**20, 2**20) on any axis raises ``ValueError``.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    intr = frame.intrinsics
    depth = frame.depth
    valid = np.isfinite(depth) & (depth > 0)
    skipped_depth = int(depth.size - np.count_nonzero(valid))

    def empty(skipped_roi: int) -> RegistrationResult:
        return RegistrationResult(np.empty(0, dtype=np.int64), np.empty((0, frame.num_labels)),
                                  skipped_depth, skipped_roi)

    if skipped_depth == depth.size:
        return empty(0)

    vv, uu = np.nonzero(valid)
    d = depth[vv, uu]
    cam = np.stack([
        (uu - intr.cx) * d / intr.fx,
        (vv - intr.cy) * d / intr.fy,
        d,
    ], axis=1)
    world = frame.pose.transform(cam)
    keys = np.floor(world / resolution).astype(np.int64)
    # the flat pixel index stands in for the probability row until the sums
    pixel = vv * intr.width + uu

    skipped_roi = 0
    if roi is not None:
        keep = keys_in_roi(keys, roi, resolution)
        skipped_roi = int(keys.shape[0] - np.count_nonzero(keep))
        keys, pixel = keys[keep], pixel[keep]
    if keys.shape[0] == 0:
        return empty(skipped_roi)

    codes = pack_keys(keys)
    # stable, so same-voxel pixels keep their row-major order in the sums
    order = np.argsort(codes, kind="stable")
    codes, pixel = codes[order], pixel[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    means = _run_means(frame.proba.reshape(-1, frame.num_labels), pixel, starts)
    return RegistrationResult(codes[starts], means, skipped_depth, skipped_roi)
