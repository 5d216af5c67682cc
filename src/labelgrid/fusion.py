"""Time-ordered frame fusion with a camera-velocity gate.

Frames are fused into the grid only while the camera is at rest: a frame
passes the gate when it and the preceding ``settle_frames - 1`` frames
all show linear and angular velocity at or below the configured
thresholds. The very first frame of a stream counts as stationary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .geometry import Pose, rotation_angle
from .grid import LabelOccupancyGrid
from .registration import SensorFrame, register_frame

DEFAULT_P_MIN = 1e-3


@dataclass(frozen=True)
class GateConfig:
    """Velocity thresholds plus the number of consecutive still frames required."""

    linear_eps: float = 1e-3
    angular_eps: float = 1e-3
    settle_frames: int = 2

    def __post_init__(self) -> None:
        if self.linear_eps < 0 or self.angular_eps < 0 or math.isnan(self.linear_eps) \
                or math.isnan(self.angular_eps):
            raise ValueError("velocity thresholds must be >= 0")
        if int(self.settle_frames) < 1:
            raise ValueError("settle_frames must be >= 1")
        object.__setattr__(self, "settle_frames", int(self.settle_frames))

    @classmethod
    def disabled(cls) -> "GateConfig":
        """Gate that fuses every frame regardless of motion."""
        return cls(math.inf, math.inf, 1)


@dataclass
class FusionStats:
    frames_total: int = 0
    frames_fused: int = 0
    frames_gated: int = 0
    pixels_skipped_depth: int = 0
    pixels_skipped_roi: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def camera_velocity(prev_pose: Pose, prev_time: float,
                    curr_pose: Pose, curr_time: float) -> tuple[float, float]:
    """Linear (m/s) and angular (rad/s) velocity between two stamped poses."""
    if curr_time <= prev_time:
        raise ValueError(f"time must advance, got {prev_time} -> {curr_time}")
    dt = curr_time - prev_time
    linear = float(np.linalg.norm(curr_pose.translation - prev_pose.translation)) / dt
    angular = rotation_angle(prev_pose.rotation.T @ curr_pose.rotation) / dt
    return linear, angular


def fuse_stream(grid: LabelOccupancyGrid,
                frames: Iterable[SensorFrame],
                gate: GateConfig = GateConfig(),
                p_min: float = DEFAULT_P_MIN,
                on_frame: Optional[Callable[[int, SensorFrame, bool], None]] = None) -> FusionStats:
    """Fuse a timestamp-ordered frame stream into ``grid``.

    Measurement probabilities are clamped to [p_min, 1 - p_min] before the
    log-odds update so saturated classifier outputs stay finite. The
    optional ``on_frame(index, frame, fused)`` callback runs after each
    frame is processed, e.g. to snapshot the grid per frame.
    """
    if not 0.0 < p_min < 0.5:
        raise ValueError(f"p_min must lie in (0, 0.5), got {p_min}")
    stats = FusionStats()
    prev: Optional[SensorFrame] = None
    stationary_run = 0
    for index, frame in enumerate(frames):
        if prev is not None and frame.timestamp <= prev.timestamp:
            raise ValueError(
                f"frame {index} timestamp {frame.timestamp} is not after "
                f"frame {index - 1} ({prev.timestamp})")
        if prev is None:
            stationary = True
        else:
            linear, angular = camera_velocity(prev.pose, prev.timestamp,
                                              frame.pose, frame.timestamp)
            stationary = linear <= gate.linear_eps and angular <= gate.angular_eps
        stationary_run = stationary_run + 1 if stationary else 0

        stats.frames_total += 1
        fused = stationary and stationary_run >= gate.settle_frames
        if fused:
            result = register_frame(frame, grid.resolution, grid.roi)
            stats.pixels_skipped_depth += result.pixels_skipped_depth
            stats.pixels_skipped_roi += result.pixels_skipped_roi
            grid.update(result.codes, np.clip(result.means, p_min, 1.0 - p_min))
            stats.frames_fused += 1
        else:
            stats.frames_gated += 1
        if on_frame is not None:
            on_frame(index, frame, fused)
        prev = frame
    return stats
