"""Benchmark workloads: the canonical occluded-bin scene at three shapes.

Every workload renders the same scene (five bin walls, the front lip
hanging into the opening, one label-1 target deep inside, and the
0.3 x 0.3 x 0.4 m roi) from the same four viewpoints, with 40 labels and
the noise model at confidence 0.8 and flip rate 0.05. They differ in image
size, voxel size and frame schedule, so that a different layer of the
pipeline does most of the work in each. The program sees only the JSON
files written by :func:`write_inputs`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

NUM_LABELS = 40
CONFIDENCE = 0.8
FLIP_RATE = 0.05
TARGET_LABEL = 1
TARGET_BOX = ((0.0815, 0.0, 0.2815), (0.2185, 0.2015, 0.3815))
ROI = ((0.0, 0.0, 0.0), (0.30, 0.30, 0.40))
BIN_WALLS = [
    ((-0.02, -0.02, -0.02), (0.32, 0.0, 0.42)),   # floor
    ((-0.02, 0.30, -0.02), (0.32, 0.32, 0.42)),   # roof
    ((-0.02, 0.0, -0.02), (0.0, 0.30, 0.42)),     # left wall
    ((0.30, 0.0, -0.02), (0.32, 0.30, 0.42)),     # right wall
    ((-0.02, -0.02, 0.40), (0.32, 0.32, 0.42)),   # back wall
    ((-0.02, 0.07, -0.02), (0.32, 0.32, 0.0)),    # front lip
]
# (eye, look_at): frontal (mostly blocked by the lip), low and close looking
# up under the lip, then left and right obliques
VIEWPOINTS = [
    ((0.15, 0.10, -0.30), (0.15, 0.10, 0.33)),
    ((0.15, 0.02, -0.08), (0.15, 0.14, 0.33)),
    ((-0.02, 0.03, -0.14), (0.10, 0.08, 0.33)),
    ((0.32, 0.03, -0.14), (0.20, 0.08, 0.33)),
]
FRAME_DT = 0.25
WAYPOINT_SPACING = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    resolution: float
    hold_frames: int
    transition_frames: int
    per_frame_snapshots: bool


WORKLOADS = {w.name: w for w in [
    # The reference 320x240 stream with moving frames: 22 frames, 9 fused and
    # 13 gated, about 263 MB on disk. Every frame is decoded before the gate
    # runs, so decode, registration and peak RSS dominate fuse; snapshot I/O
    # and eval are negligible. Pose-first streaming and a registration
    # rewrite show here.
    Workload("transit-320", 320, 240, 0.005, hold_frames=4, transition_frames=2,
             per_frame_snapshots=False),
    # Long dwells on a fine 2.5 mm grid: 32 frames, 25 fused, no moving
    # frames. The per-voxel grid update does most of the fuse work and
    # decode is small, so a batched grid update shows here and pose-first
    # streaming should barely move it. Not listed in BENCHMARK.json, which
    # keeps two workloads so that each run can measure for longer within the
    # benchmark's time budget; the grid update is also 40-45 % of fuse on
    # the other two workloads.
    Workload("dwell-fine-160", 160, 120, 0.0025, hold_frames=8, transition_frames=0,
             per_frame_snapshots=False),
    # Short holds, long transitions, one snapshot per frame: 42 frames, 5
    # fused, 43 snapshots written by fuse and read back by eval as a CSV IoU
    # curve. Snapshot write/read and segment/centroid/IoU dominate, so a
    # snapshot format change or the double segment() in eval shows here.
    Workload("curve-160", 160, 120, 0.0025, hold_frames=3, transition_frames=10,
             per_frame_snapshots=True),
]}


def _box(lo, hi) -> dict:
    return {"min": list(lo), "max": list(hi)}


def scene_json() -> dict:
    return {
        "objects": [{"label": TARGET_LABEL, **_box(*TARGET_BOX)}],
        "occluders": [_box(lo, hi) for lo, hi in BIN_WALLS],
        "roi": _box(*ROI),
    }


def trajectory_json(w: Workload) -> dict:
    # focal length equals image width, principal point at the image centre
    return {
        "intrinsics": {"fx": float(w.width), "fy": float(w.width),
                       "cx": w.width / 2, "cy": w.height / 2,
                       "width": w.width, "height": w.height},
        "frame_dt": FRAME_DT,
        "transition_frames": w.transition_frames,
        "waypoints": [{"eye": list(eye), "look_at": list(at),
                       "timestamp": WAYPOINT_SPACING * i, "hold_frames": w.hold_frames}
                      for i, (eye, at) in enumerate(VIEWPOINTS)],
    }


def boxes_json() -> list:
    return [{"label": TARGET_LABEL, **_box(*TARGET_BOX)}]


def roi_arg() -> str:
    return ",".join(str(v) for v in ROI[0] + ROI[1])


def write_inputs(w: Workload, out_dir: Path) -> dict[str, Path]:
    """Write the scene, trajectory and ground-truth JSON; returns their paths."""
    paths = {"scene": out_dir / "scene.json",
             "trajectory": out_dir / "trajectory.json",
             "boxes": out_dir / "boxes.json"}
    paths["scene"].write_text(json.dumps(scene_json(), indent=2))
    paths["trajectory"].write_text(json.dumps(trajectory_json(w), indent=2))
    paths["boxes"].write_text(json.dumps(boxes_json(), indent=2))
    return paths
