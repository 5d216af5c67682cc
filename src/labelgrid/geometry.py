"""Axis-aligned boxes and rigid camera poses shared across the toolkit."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

Vec3 = tuple[float, float, float]


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer or an integral real number
    at or above ``low`` and, when ``high`` is given, below it; otherwise a
    ``ValueError`` naming ``name``. A bool, which ``int()`` would turn into
    0 or 1, is not an integer, nor is NaN or inf."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or float(value).is_integer())
            and low <= value and (high is None or value < high)):
        return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def positive_finite(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``0 < value < inf``;
    the comparison is written so that NaN, which fails it, is rejected."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


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
        """Rotate points with shape (..., 3) by a contiguous copy of ``rotation.T``: a
        point gets the bits of its row in any batch, and two or more rows get those
        of ``points @ rotation.T``."""
        return np.asarray(points, dtype=float) @ np.ascontiguousarray(self.rotation.T)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map camera-frame points with shape (..., 3) into the world frame: :meth:`rotate`,
        then the translation added in place one column at a time, so a point's world
        bits, too, depend only on the point and the pose, not on its batch."""
        world = self.rotate(points)
        for axis in range(3):
            world[..., axis] += self.translation[axis]
        return world


def rotation_angle(rotation: np.ndarray) -> float:
    """Axis-angle magnitude of a rotation matrix, in radians."""
    tr = float(np.trace(np.asarray(rotation, dtype=float)))
    return math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))


def _quaternion(rotation: np.ndarray) -> np.ndarray:
    """Unit quaternion ``(x, y, z, w)`` of a rotation matrix, by Shepperd's
    method: the largest of the trace and the diagonal picks the pivot, so
    no component is found by dividing by a small one."""
    r = np.asarray(rotation, dtype=float)
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    i = int(np.argmax([r[0, 0], r[1, 1], r[2, 2], trace]))
    q = np.empty(4)
    if i == 3:
        q[:] = r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1], 1.0 + trace
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q[i] = 1.0 - trace + 2.0 * r[i, i]
        q[j] = r[j, i] + r[i, j]
        q[k] = r[k, i] + r[i, k]
        q[3] = r[k, j] - r[j, k]
    return q / np.linalg.norm(q)


def _quaternion_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of ``(..., 4)`` quaternions stored ``(x, y, z, w)``."""
    pv, pw = p[..., :3], p[..., 3:]
    qv, qw = q[..., :3], q[..., 3:]
    return np.concatenate([pw * qv + qw * pv + np.cross(pv, qv),
                           pw * qw - np.sum(pv * qv, axis=-1, keepdims=True)], axis=-1)


def _rotation_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices ``(..., 3, 3)`` of unit quaternions ``(..., 4)``."""
    x, y, z, w = np.moveaxis(q, -1, 0)
    xx, yy, zz, ww = x * x, y * y, z * z, w * w
    xy, xz, xw, yz, yw, zw = x * y, x * z, x * w, y * z, y * w, z * w
    return np.stack([
        np.stack([xx - yy - zz + ww, 2.0 * (xy - zw), 2.0 * (xz + yw)], axis=-1),
        np.stack([2.0 * (xy + zw), -xx + yy - zz + ww, 2.0 * (yz - xw)], axis=-1),
        np.stack([2.0 * (xz - yw), 2.0 * (yz + xw), -xx - yy + zz + ww], axis=-1),
    ], axis=-2)


def slerp(r0: np.ndarray, r1: np.ndarray, fractions) -> np.ndarray:
    """Spherical linear interpolation between two rotation matrices
    (Shoemake, SIGGRAPH 1985): one ``(3, 3)`` rotation per fraction, with 0
    giving ``r0`` and 1 giving ``r1``, along the shorter arc.

    It evaluates ``q0 · exp(f · log(q0⁻¹ q1))`` on unit quaternions. The
    angle comes from ``atan2``, which stays accurate for nearly equal
    rotations, where ``acos(w)`` loses half its digits. At exactly 180° both
    arcs are equally short and either may be taken.
    """
    q0 = _quaternion(r0)
    step = _quaternion_product(q0 * [-1.0, -1.0, -1.0, 1.0], _quaternion(r1))
    if step[3] < 0.0:
        step = -step
    norm = float(np.linalg.norm(step[:3]))
    axis = step[:3] / norm if norm > 0.0 else np.zeros(3)
    half = np.asarray(fractions, dtype=float).reshape(-1, 1) * math.atan2(norm, step[3])
    return _rotation_matrix(_quaternion_product(
        q0, np.concatenate([axis * np.sin(half), np.cos(half)], axis=-1)))


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
