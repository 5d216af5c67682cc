"""Axis-aligned boxes and rigid camera poses shared across the toolkit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class Box3:
    """Axis-aligned world-space box with strictly positive extent."""

    min: Vec3
    max: Vec3

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.min)
        hi = tuple(float(v) for v in self.max)
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError("Box3 corners must be 3-vectors")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError("Box3 corners must be finite")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError(f"Box3 min {lo} must be strictly below max {hi} on every axis")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.max, self.min)))

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.min) + np.asarray(self.max)) / 2.0

    def contains(self, points) -> np.ndarray | bool:
        """Closed-box membership for a single point or an (N, 3) array."""
        pts = np.asarray(points, dtype=float)
        inside = np.all((pts >= np.asarray(self.min)) & (pts <= np.asarray(self.max)), axis=-1)
        return bool(inside) if pts.ndim == 1 else inside


@dataclass(eq=False)
class Pose:
    """Camera-to-world rigid transform: p_world = rotation @ p_camera + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = np.array(self.translation, dtype=float).reshape(3)
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("pose entries must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise ValueError("rotation matrix is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation determinant must be +1 within 1e-9")
        self.rotation = r
        self.translation = t

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def rotate(self, points: np.ndarray) -> np.ndarray:
        """Rotate points with shape (..., 3): ``points @ rotation.T``, bit for bit.

        Several points are multiplied by a contiguous copy of the transpose,
        which BLAS multiplies several times faster than the strided view and
        rounds the same way. A single point is a matrix-vector product, whose
        two layouts round differently, so it keeps the view.
        """
        pts = np.asarray(points, dtype=float)
        rotation_t = self.rotation.T
        if pts.ndim > 1 and pts.shape[-2] > 1:
            rotation_t = np.ascontiguousarray(rotation_t)
        return pts @ rotation_t

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map camera-frame points with shape (..., 3) into the world frame:
        ``points @ rotation.T + translation``, bit for bit (see :meth:`rotate`)."""
        return self.rotate(points) + self.translation

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        """Map world-frame points back into the camera frame."""
        pts = np.asarray(points, dtype=float)
        return (pts - self.translation) @ self.rotation


def rotation_angle(rotation: np.ndarray) -> float:
    """Axis-angle magnitude of a rotation matrix, in radians."""
    tr = float(np.trace(np.asarray(rotation, dtype=float)))
    return math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))


def look_at(eye, target, up=(0.0, 1.0, 0.0)) -> Pose:
    """Build a camera pose at ``eye`` whose optical axis points at ``target``.

    Camera axes follow the pinhole convention used throughout: x along
    increasing pixel column, y along increasing pixel row, z forward.
    """
    eye = np.asarray(eye, dtype=float)
    target = np.asarray(target, dtype=float)
    up = np.asarray(up, dtype=float)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm == 0.0:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    x_axis = np.cross(-up, forward)
    x_norm = np.linalg.norm(x_axis)
    if x_norm < 1e-12:
        raise ValueError("view direction is parallel to the up vector")
    x_axis = x_axis / x_norm
    y_axis = np.cross(forward, x_axis)
    rotation = np.column_stack([x_axis, y_axis, forward])
    return Pose(rotation, eye)
