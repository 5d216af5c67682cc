"""Shared fixtures: the canonical occluded-bin scene and camera trajectory.

The scene is a shelf bin (five walls plus a front lip hanging into the
opening) with one labeled target box deep inside. The lip hides most of
the target from the frontal viewpoint; the three remaining viewpoints
peek under and around it. Box faces are deliberately offset from the
5 mm voxel lattice the way real objects would be.
"""

import json

import numpy as np
import pytest

from labelgrid import Box3, CameraIntrinsics, look_at
from labelgrid.simulator import NoiseModel, Scene, Trajectory, Waypoint

NUM_LABELS = 40
TARGET_LABEL = 1
TARGET_BOX = Box3((0.0815, 0.0, 0.2815), (0.2185, 0.2015, 0.3815))
BIN_ROI = Box3((0.0, 0.0, 0.0), (0.30, 0.30, 0.40))
RESOLUTION = 0.005

BIN_WALLS = [
    Box3((-0.02, -0.02, -0.02), (0.32, 0.0, 0.42)),   # floor
    Box3((-0.02, 0.30, -0.02), (0.32, 0.32, 0.42)),   # roof
    Box3((-0.02, 0.0, -0.02), (0.0, 0.30, 0.42)),     # left wall
    Box3((0.30, 0.0, -0.02), (0.32, 0.30, 0.42)),     # right wall
    Box3((-0.02, -0.02, 0.40), (0.32, 0.32, 0.42)),   # back wall
    Box3((-0.02, 0.07, -0.02), (0.32, 0.32, 0.0)),    # front lip
]

# (eye, look_at) per view: frontal (mostly blocked by the lip), low and
# close looking up under the lip, then left and right obliques
VIEWPOINTS = [
    ((0.15, 0.10, -0.30), (0.15, 0.10, 0.33)),
    ((0.15, 0.02, -0.08), (0.15, 0.14, 0.33)),
    ((-0.02, 0.03, -0.14), (0.10, 0.08, 0.33)),
    ((0.32, 0.03, -0.14), (0.20, 0.08, 0.33)),
]

HOLD_FRAMES = 4
FRAME_DT = 0.25
WAYPOINT_SPACING = 2.0


def make_bin_scene(with_occluders: bool = True) -> Scene:
    return Scene(objects=[(TARGET_LABEL, TARGET_BOX)],
                 occluders=list(BIN_WALLS) if with_occluders else [],
                 roi=BIN_ROI)


def make_trajectory(transition_frames: int = 0) -> Trajectory:
    waypoints = [Waypoint(pose=look_at(eye, at), timestamp=WAYPOINT_SPACING * i,
                          hold_frames=HOLD_FRAMES)
                 for i, (eye, at) in enumerate(VIEWPOINTS)]
    return Trajectory(waypoints=waypoints, frame_dt=FRAME_DT,
                      transition_frames=transition_frames)


def view_end_times() -> list[float]:
    """Timestamp of the last hold frame of each waypoint."""
    return [WAYPOINT_SPACING * i + FRAME_DT * (HOLD_FRAMES - 1)
            for i in range(len(VIEWPOINTS))]


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)


@pytest.fixture
def bin_scene() -> Scene:
    return make_bin_scene()


@pytest.fixture
def noise_model() -> NoiseModel:
    return NoiseModel(confidence=0.8, flip_rate=0.05, seed=42)


def scene_json() -> dict:
    return {
        "objects": [{"label": TARGET_LABEL,
                     "min": list(TARGET_BOX.min), "max": list(TARGET_BOX.max)}],
        "occluders": [{"min": list(b.min), "max": list(b.max)} for b in BIN_WALLS],
        "roi": {"min": list(BIN_ROI.min), "max": list(BIN_ROI.max)},
    }


def trajectory_json(transition_frames: int = 0) -> dict:
    return {
        "intrinsics": {"fx": 64.0, "fy": 64.0, "cx": 32.0, "cy": 32.0,
                       "width": 64, "height": 64},
        "frame_dt": FRAME_DT,
        "transition_frames": transition_frames,
        "waypoints": [{"eye": list(eye), "look_at": list(at),
                       "timestamp": WAYPOINT_SPACING * i, "hold_frames": HOLD_FRAMES}
                      for i, (eye, at) in enumerate(VIEWPOINTS)],
    }


def gt_boxes_json() -> list:
    return [{"label": TARGET_LABEL,
             "min": list(TARGET_BOX.min), "max": list(TARGET_BOX.max)}]


def write_cli_inputs(tmp_path, transition_frames: int = 0) -> dict:
    """Write scene/trajectory/gt JSON files; returns their paths."""
    paths = {
        "scene": tmp_path / "scene.json",
        "trajectory": tmp_path / "trajectory.json",
        "boxes": tmp_path / "boxes.json",
    }
    paths["scene"].write_text(json.dumps(scene_json(), indent=2))
    paths["trajectory"].write_text(json.dumps(trajectory_json(transition_frames), indent=2))
    paths["boxes"].write_text(json.dumps(gt_boxes_json(), indent=2))
    return paths


def write_logits_stream(manifest):
    """A copy of a ``proba_file`` manifest, beside it, whose records name
    ``logits_file`` images of the float32 logs of their probabilities; returns
    its path."""
    from labelgrid.fileio import read_manifest, read_probimg, write_manifest, write_probimg

    records = read_manifest(manifest)
    for record in records:
        name = record.pop("proba_file")
        record["logits_file"] = f"logits_{name}"
        write_probimg(manifest.parent / record["logits_file"],
                      np.log(np.asarray(read_probimg(manifest.parent / name))))
    write_manifest(manifest.with_name("logits.json"), records)
    return manifest.with_name("logits.json")
