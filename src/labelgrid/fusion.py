"""Time-ordered frame fusion with a camera-velocity gate.

Frames are fused into the grid only while the camera is at rest: a frame
passes the gate when it and the preceding ``settle_frames - 1`` frames
all show linear and angular velocity at or below the configured
thresholds; the very first frame of a stream counts as stationary. Every
frame's time must be finite and later than the last. :func:`gate_step`
advances the gate by one frame, from ``GateState()`` at the start of a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Protocol

import numpy as np

from .geometry import Pose, integer, rotation_angle
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
        # written so that a NaN threshold fails too
        if not (self.linear_eps >= 0 and self.angular_eps >= 0):
            raise ValueError("velocity thresholds must be >= 0")
        object.__setattr__(self, "settle_frames", integer("settle_frames", self.settle_frames, 1))

    @classmethod
    def disabled(cls) -> "GateConfig":
        """Gate that fuses every frame regardless of motion."""
        return cls(math.inf, math.inf, 1)


class StreamItem(Protocol):
    """A frame of a stream: the pose is at hand, the images load on demand.

    :class:`~labelgrid.registration.SensorFrame` loads to itself, and
    :class:`~labelgrid.fileio.FrameRecord` decodes its files.
    """

    timestamp: float
    pose: Pose

    def load(self) -> SensorFrame: ...


@dataclass
class FusionStats:
    frames_total: int = 0
    frames_fused: int = 0
    frames_gated: int = 0
    pixels_skipped_depth: int = 0
    pixels_skipped_roi: int = 0


def camera_velocity(prev_pose: Pose, prev_time: float,
                    curr_pose: Pose, curr_time: float) -> tuple[float, float]:
    """Linear (m/s) and angular (rad/s) velocity between two stamped poses."""
    # written so that a NaN time fails too
    if not curr_time > prev_time:
        raise ValueError(f"time must advance, got {prev_time} -> {curr_time}")
    dt = curr_time - prev_time
    linear = float(np.linalg.norm(curr_pose.translation - prev_pose.translation)) / dt
    angular = rotation_angle(prev_pose.rotation.T @ curr_pose.rotation) / dt
    return linear, angular


class GateState(NamedTuple):
    """The last frame's timestamp and pose, and the run of still frames it ends."""

    timestamp: Optional[float] = None
    pose: Optional[Pose] = None
    still_run: int = 0


def gate_step(state: GateState, timestamp: float, pose: Pose,
              gate: GateConfig) -> tuple[GateState, bool]:
    """The gate's state after a frame at ``timestamp`` and ``pose``, and
    whether that frame fuses; a non-finite time, or one not after ``state``, is an error."""
    if not math.isfinite(timestamp):
        raise ValueError(f"time must be finite, got {timestamp}")
    if state.pose is None:
        still = True
    else:
        linear, angular = camera_velocity(state.pose, state.timestamp, pose, timestamp)
        still = linear <= gate.linear_eps and angular <= gate.angular_eps
    run = state.still_run + 1 if still else 0
    return GateState(timestamp, pose, run), run >= gate.settle_frames


def fuse_stream(grid: LabelOccupancyGrid,
                frames: Iterable[StreamItem],
                gate: GateConfig = GateConfig(),
                p_min: float = DEFAULT_P_MIN,
                on_frame: Optional[Callable[[int, StreamItem, bool], None]] = None) -> FusionStats:
    """Fuse a timestamp-ordered frame stream into ``grid``.

    The gate reads only each item's ``timestamp`` and ``pose``; ``load()``
    is called only for the frames it passes, and the loaded frame is
    dropped once registered, so a stream of lazy items holds at most one
    decoded frame. A loaded frame must have the grid's label count.
    Measurement probabilities are clamped to [p_min, 1 - p_min] before
    the log-odds update so saturated classifier outputs stay finite. The
    optional ``on_frame(index, item, fused)`` callback runs after each
    item is processed, with the item as the stream gave it, e.g. to
    snapshot the grid per frame.
    """
    if not 0.0 < p_min < 0.5:
        raise ValueError(f"p_min must lie in (0, 0.5), got {p_min}")
    stats = FusionStats()
    state = GateState()
    for index, item in enumerate(frames):
        try:
            state, fused = gate_step(state, item.timestamp, item.pose, gate)
        except ValueError as exc:
            raise ValueError(f"frame {index}: {exc}") from None
        stats.frames_total += 1
        if fused:
            frame = item.load()
            if frame.num_labels != grid.num_labels:
                raise ValueError(f"frame {index} has {frame.num_labels} labels, "
                                 f"but the grid has {grid.num_labels}")
            result = register_frame(frame, grid.resolution, grid.roi)
            # drop the frame, and below its result, before the next one loads
            del frame
            stats.pixels_skipped_depth += result.pixels_skipped_depth
            stats.pixels_skipped_roi += result.pixels_skipped_roi
            # in place: the result is this loop's own
            grid.update(result.codes, np.clip(result.means, p_min, 1.0 - p_min,
                                              out=result.means))
            del result
            stats.frames_fused += 1
        else:
            stats.frames_gated += 1
        if on_frame is not None:
            on_frame(index, item, fused)
    return stats
