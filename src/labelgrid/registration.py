"""Convert labeled depth frames into per-voxel measurement probabilities.

A sensor frame carries a depth image, a per-pixel class probability image
and the camera pose. Registration deprojects every valid-depth pixel
through the pinhole model, transforms it to world coordinates, bins it
into a voxel, and averages the probability vectors of pixels that land in
the same voxel so each voxel receives exactly one measurement per frame.
"""

from __future__ import annotations

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


def register_frame(frame: SensorFrame, resolution: float,
                   roi: Optional[Box3] = None) -> RegistrationResult:
    """Bin every valid-depth pixel of a frame into world-space voxels.

    Pixels landing in the same voxel are averaged (one measurement per
    voxel per frame). Voxels whose center falls outside ``roi`` are
    dropped and counted. Output is sorted by voxel key and deterministic:
    same-voxel contributions accumulate in pixel row-major order. A kept
    voxel key outside [-2**20, 2**20) on any axis raises ``ValueError``.
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

    skipped_roi = 0
    if roi is not None:
        keep = roi.contains(voxel_center(keys, resolution))
        skipped_roi = int(keys.shape[0] - np.count_nonzero(keep))
        keys, vv, uu = keys[keep], vv[keep], uu[keep]
    if keys.shape[0] == 0:
        return empty(skipped_roi)

    codes = pack_keys(keys)
    # stable, so same-voxel pixels keep their row-major order in the sums
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    # widen only the gathered rows: the sums are the same as from a float64
    # image, and np.add.at takes its fast path only when the dtypes match
    probs = frame.proba[vv[order], uu[order]].astype(float, copy=False)
    # np.add.at adds the rows one at a time, in order, so each sum is the
    # plain left-to-right sum; np.add.reduceat would regroup runs of 8 or
    # more rows and move the mean by an ulp
    first = np.concatenate(([True], codes[1:] != codes[:-1]))
    voxel = np.cumsum(first) - 1
    sums = np.zeros((int(voxel[-1]) + 1, probs.shape[1]))
    np.add.at(sums, voxel, probs)
    counts = np.bincount(voxel)
    return RegistrationResult(codes[first], sums / counts[:, None], skipped_depth, skipped_roi)
