"""Synthetic shelf-bin scene renderer standing in for robot, camera and net.

Scenes are collections of axis-aligned boxes: labeled objects plus
label-0 occluders (bin walls, lip). Depth is rendered analytically with
the slab method, per-pixel label probabilities come from a deterministic
noise model, and a waypoint trajectory expands into stationary hold
frames optionally interleaved with interpolated moving frames that the
fusion gate is expected to reject.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .geometry import Box3, Pose, integer, look_at, positive_finite, slerp
from .registration import CameraIntrinsics, SensorFrame


@dataclass(frozen=True)
class NoiseModel:
    """Synthetic classifier: confidence for the top label, occasional flips.

    ``confidence`` is the probability mass assigned to the rendered (or
    flipped) top label; the remainder is spread evenly over the other
    labels. Each pixel's top label is replaced by a uniformly random
    wrong label with probability ``flip_rate``. Randomness is a pure
    function of (seed, frame key, pixel index).
    """

    confidence: float = 0.8
    flip_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.5 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0.5, 1), got {self.confidence}")
        if not 0.0 <= self.flip_rate < 0.5:
            raise ValueError(f"flip_rate must lie in [0, 0.5), got {self.flip_rate}")
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, 2 ** 64))


@dataclass
class Scene:
    """Labeled object boxes, label-0 occluder boxes, and the bin-interior roi."""

    objects: list[tuple[int, Box3]]
    occluders: list[Box3]
    roi: Box3

    def __post_init__(self) -> None:
        # label 0 is the background
        self.objects = [(integer("object label", label, 1), box) for label, box in self.objects]
        if len({label for label, _ in self.objects}) != len(self.objects):
            raise ValueError("object labels must be unique within a scene")

    @property
    def max_label(self) -> int:
        return max((label for label, _ in self.objects), default=0)


@dataclass(frozen=True)
class Waypoint:
    pose: Pose
    timestamp: float
    hold_frames: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError(f"waypoint timestamp must be finite, got {self.timestamp!r}")
        object.__setattr__(self, "hold_frames", integer("hold_frames", self.hold_frames, 1))


@dataclass
class Trajectory:
    """Camera waypoints with dwell counts plus optional moving frames.

    Each waypoint emits ``hold_frames`` frames at its pose, spaced
    ``frame_dt`` apart starting at the waypoint timestamp. Between
    consecutive waypoints, ``transition_frames`` interpolated frames are
    inserted at evenly spaced times (rotation slerp, translation lerp).
    """

    waypoints: list[Waypoint]
    frame_dt: float = 0.25
    transition_frames: int = 0

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        positive_finite("frame_dt", self.frame_dt)
        self.transition_frames = integer("transition_frames", self.transition_frames, 0)
        for prev, curr in zip(self.waypoints, self.waypoints[1:]):
            prev_end = prev.timestamp + (prev.hold_frames - 1) * self.frame_dt
            if curr.timestamp <= prev_end:
                raise ValueError(
                    f"waypoint at t={curr.timestamp} starts before the previous "
                    f"waypoint finishes holding at t={prev_end}")


@dataclass(frozen=True)
class ScheduledFrame:
    pose: Pose
    timestamp: float
    moving: bool


def expand_trajectory(trajectory: Trajectory) -> list[ScheduledFrame]:
    """Full frame schedule: hold frames plus interpolated transitions."""
    schedule: list[ScheduledFrame] = []
    wps = trajectory.waypoints
    for i, wp in enumerate(wps):
        for j in range(wp.hold_frames):
            schedule.append(ScheduledFrame(wp.pose, wp.timestamp + j * trajectory.frame_dt, False))
        if i + 1 < len(wps) and trajectory.transition_frames > 0:
            nxt = wps[i + 1]
            start_t = wp.timestamp + (wp.hold_frames - 1) * trajectory.frame_dt
            n = trajectory.transition_frames
            fractions = [k / (n + 1) for k in range(1, n + 1)]
            rotations = slerp(wp.pose.rotation, nxt.pose.rotation, fractions)
            for frac, rotation in zip(fractions, rotations):
                translation = (1.0 - frac) * wp.pose.translation + frac * nxt.pose.translation
                schedule.append(ScheduledFrame(Pose(rotation, translation),
                                               start_t + frac * (nxt.timestamp - start_t), True))
    return schedule


# --- rendering -------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _pixel_rays(intrinsics: CameraIntrinsics) -> np.ndarray:
    """Camera-frame ray directions through every pixel, z normalized to 1.

    Built once per intrinsics and shared, so the array is read-only.
    """
    uu, vv = np.meshgrid(np.arange(intrinsics.width, dtype=float),
                         np.arange(intrinsics.height, dtype=float))
    rays = np.stack([(uu - intrinsics.cx) / intrinsics.fx,
                     (vv - intrinsics.cy) / intrinsics.fy,
                     np.ones_like(uu)], axis=-1).reshape(-1, 3)
    rays.flags.writeable = False
    return rays


def _ray_box_depth(origin: np.ndarray, dirs: np.ndarray, box: Box3) -> np.ndarray:
    """Slab-method (Kay & Kajiya) hit parameter per ray, inf for misses.

    ``dirs`` holds one contiguous row per axis, shape ``(3, N)``. Directions
    have camera-z component 1, so the parameter equals the camera-frame z
    depth of the hit point. Slab bounds divide by the direction: multiplying
    by its inverse would round differently and change depth bits.
    """
    t_enter = t_exit = None
    for axis in range(3):
        o, lo, hi, d = origin[axis], box.min[axis], box.max[axis], dirs[axis]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t1 = (lo - o) / d
            t2 = (hi - o) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2, out=t1)
        # axis-parallel rays: hit the slab for all t or not at all
        parallel = d == 0.0
        if parallel.any():
            inside = lo <= o <= hi
            near[parallel] = -np.inf if inside else np.inf
            far[parallel] = np.inf if inside else -np.inf
        if t_enter is None:
            t_enter, t_exit = near, far
        else:
            np.maximum(t_enter, near, out=t_enter)
            np.minimum(t_exit, far, out=t_exit)
    hit = (t_enter <= t_exit) & (t_exit > 0.0)
    t = np.where(t_enter > 0.0, t_enter, t_exit)
    t[~hit] = np.inf
    return t


def render_scene(scene: Scene, pose: Pose, intrinsics: CameraIntrinsics
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Depth (camera-z meters, 0 = miss) and true label image in one pass."""
    dirs = np.ascontiguousarray(pose.rotate(_pixel_rays(intrinsics)).T)
    origin = pose.translation
    best_t = np.full(dirs.shape[1], np.inf)
    best_label = np.zeros(dirs.shape[1], dtype=np.int32)
    boxes = [(label, box) for label, box in scene.objects]
    boxes += [(0, box) for box in scene.occluders]
    for label, box in boxes:
        t = _ray_box_depth(origin, dirs, box)
        closer = t < best_t
        np.copyto(best_t, t, where=closer)
        best_label[closer] = label
    best_t[np.isinf(best_t)] = 0.0
    shape = (intrinsics.height, intrinsics.width)
    return best_t.reshape(shape), best_label.reshape(shape)


def frame_noise_key(timestamp: float) -> int:
    """Stable per-frame noise stream id: the timestamp's float64 bit pattern.

    Keying noise by time rather than stream position keeps a frame's
    rendered probabilities unchanged when moving frames are inserted or
    removed elsewhere in the stream.
    """
    return int(np.float64(timestamp).view(np.uint64))


def _noisy_top_labels(labels: np.ndarray, noise: NoiseModel, num_labels: int,
                      frame_key: int) -> np.ndarray:
    """Flat top label per pixel: the true label, or a flipped wrong one."""
    if labels.ndim != 2:
        raise ValueError(f"label image must be 2-D, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_labels:
        raise ValueError(f"labels must lie in [0, {num_labels - 1}]")
    n = labels.size
    rng = np.random.Generator(np.random.Philox(
        key=np.array([noise.seed, frame_key], dtype=np.uint64)))
    flips = rng.random(n) < noise.flip_rate
    wrong_draw = rng.integers(0, num_labels - 1, size=n)

    top = labels.ravel().astype(np.int64)
    wrong = wrong_draw + (wrong_draw >= top)
    return np.where(flips, wrong, top)


def _proba_table(noise: NoiseModel, num_labels: int) -> np.ndarray:
    """``(L, L)`` float64 table whose row k is the vector of a top-k pixel.

    Row k gets ``noise.confidence`` at k and an equal share of the rest
    elsewhere; the float sum of the row is then corrected to 1 within one
    ulp at k.
    """
    integer("num_labels", num_labels, 2)
    share = (1.0 - noise.confidence) / (num_labels - 1)
    table = np.full((num_labels, num_labels), share)
    diag = np.arange(num_labels)
    table[diag, diag] = noise.confidence
    table[diag, diag] += 1.0 - table.sum(axis=1)
    return table


def render_proba(true_labels, noise: NoiseModel, num_labels: int,
                 frame_key: int = 0) -> np.ndarray:
    """Per-pixel class probability image for a true label image.

    The top label receives ``noise.confidence``; every other label gets an
    equal share of the remainder; the float sum of each pixel's vector is
    corrected to 1 within one ulp. Deterministic per
    (seed, frame_key, pixel index) via a counter-based generator.
    """
    labels = np.asarray(true_labels)
    table = _proba_table(noise, num_labels)
    top = _noisy_top_labels(labels, noise, num_labels, frame_key)
    return table[top].reshape(labels.shape + (num_labels,))


# --- frame emission ---------------------------------------------------------

def _render_frames(scene: Scene, trajectory: Trajectory, intrinsics: CameraIntrinsics,
                   noise: NoiseModel, num_labels: int):
    """Check the label count now, then return a generator of
    ``(schedule, depth, proba)`` for every scheduled frame.

    Geometry is rendered once per pose: hold frames share their waypoint's
    ``Pose`` and reuse its depth and label images. Noise is drawn per frame.
    ``proba`` is the float32 :func:`render_proba` image.
    """
    if num_labels <= scene.max_label:
        raise ValueError(f"num_labels={num_labels} too small for scene labels "
                         f"up to {scene.max_label}")
    table = _proba_table(noise, num_labels).astype(np.float32)

    def frames():
        pose = None
        for sched in expand_trajectory(trajectory):
            if sched.pose is not pose:
                pose = sched.pose
                depth, labels = render_scene(scene, pose, intrinsics)
            top = _noisy_top_labels(labels, noise, num_labels,
                                    frame_noise_key(sched.timestamp))
            yield sched, depth, table[top].reshape(labels.shape + (num_labels,))
    return frames()


def simulate_frames(scene: Scene, trajectory: Trajectory, intrinsics: CameraIntrinsics,
                    noise: NoiseModel, num_labels: int) -> list[SensorFrame]:
    """Render the trajectory into in-memory sensor frames.

    Depth and probabilities carry the same quantization the on-disk
    formats apply (millimeter depth, float32 probabilities), so a loaded
    frame stream compares equal to the in-memory one.
    """
    return [SensorFrame(timestamp=sched.timestamp,
                        depth=fileio.quantize_depth_mm(depth).astype(float) / 1000.0,
                        pose=sched.pose, intrinsics=intrinsics,
                        proba=proba)
            for sched, depth, proba in _render_frames(scene, trajectory, intrinsics,
                                                      noise, num_labels)]


def simulate(scene: Scene, trajectory: Trajectory, intrinsics: CameraIntrinsics,
             noise: NoiseModel, out_dir, num_labels: int) -> Path:
    """Render the trajectory to PGM/PROBIMG1 files plus a manifest.

    Returns the manifest path. Output is byte-deterministic for identical
    (scene, trajectory, intrinsics, noise.seed).
    """
    frames = _render_frames(scene, trajectory, intrinsics, noise, num_labels)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for index, (sched, depth, proba) in enumerate(frames):
        depth_name = f"depth_{index:04d}.pgm"
        proba_name = f"proba_{index:04d}.probimg"
        fileio.write_depth_pgm(out / depth_name, depth)
        fileio.write_probimg(out / proba_name, proba)
        records.append({
            "depth_file": depth_name,
            "proba_file": proba_name,
            "timestamp": sched.timestamp,
            "pose": fileio.pose_record(sched.pose, intrinsics, sched.timestamp),
        })
    manifest = out / "manifest.json"
    fileio.write_manifest(manifest, records)
    return manifest


# --- scene / trajectory JSON -------------------------------------------------

def scene_from_json(obj: dict) -> Scene:
    """Parse {objects: [{label, min, max}], occluders: [{min, max}], roi: {min, max}}.

    A missing field or one of the wrong JSON type raises ``ValueError``
    naming the field.
    """
    fileio._object(obj)
    objects = (fileio._list(obj, "objects", fileio.labeled_box_from_json)
               if "objects" in obj else [])
    occluders = fileio._list(obj, "occluders", fileio.box_from_json) if "occluders" in obj else []
    roi = fileio._nested("roi", fileio.box_from_json, fileio._field(obj, "roi"))
    return Scene(objects=objects, occluders=occluders, roi=roi)


def load_scene(path) -> Scene:
    return fileio.parse_json_file(path, scene_from_json)


def _waypoint_from_json(obj: dict) -> Waypoint:
    fileio._object(obj)
    if "eye" in obj:
        up = fileio._numbers(obj, "up", 3) if "up" in obj else (0.0, 1.0, 0.0)
        pose = look_at(fileio._numbers(obj, "eye", 3), fileio._numbers(obj, "look_at", 3), up)
    else:
        pose = fileio.pose_from_json(obj)
    hold_frames = (fileio._integer(obj, "hold_frames") if "hold_frames" in obj
                   else Waypoint.hold_frames)
    return Waypoint(pose=pose, timestamp=fileio._number(obj, "timestamp"),
                    hold_frames=hold_frames)


def trajectory_from_json(obj: dict) -> tuple[Trajectory, CameraIntrinsics]:
    """Parse a trajectory file: intrinsics, frame timing, and waypoints.

    Waypoints specify either rotation (9 row-major numbers) + translation
    or eye + look_at (+ optional up). A missing field or one of the wrong
    JSON type raises ``ValueError`` naming the field.
    """
    fileio._object(obj)
    intrinsics = fileio._nested("intrinsics", fileio.intrinsics_from_json,
                                fileio._field(obj, "intrinsics"))
    trajectory = Trajectory(
        waypoints=fileio._list(obj, "waypoints", _waypoint_from_json),
        frame_dt=fileio._number(obj, "frame_dt") if "frame_dt" in obj else Trajectory.frame_dt,
        transition_frames=(fileio._integer(obj, "transition_frames")
                           if "transition_frames" in obj else Trajectory.transition_frames),
    )
    return trajectory, intrinsics


def load_trajectory(path) -> tuple[Trajectory, CameraIntrinsics]:
    return fileio.parse_json_file(path, trajectory_from_json)
