"""The message of each input check that no other test reaches.

Every case gives one invalid input and pins the exception type and the
start of its message; the CLI cases pin exit code 2 and the message on
stderr.
"""

import json

import numpy as np
import pytest

from conftest import gt_boxes_json
from labelgrid import (Box3, CameraIntrinsics, Pose, SensorFrame, fileio, look_at,
                       softmax_image)
from labelgrid.cli import main
from labelgrid.grid import LabelOccupancyGrid, pack_keys
from labelgrid.metrics import ConfusionMatrix
from labelgrid.simulator import NoiseModel, Scene, Trajectory, render_proba

UNIT = Box3((0, 0, 0), (1, 1, 1))
INTR4 = CameraIntrinsics(fx=4.0, fy=4.0, cx=2.0, cy=2.0, width=4, height=4)


def frame(proba):
    return SensorFrame(timestamp=0.0, depth=np.ones((4, 4)), pose=Pose.identity(),
                       intrinsics=INTR4, proba=proba)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: fileio.write_ply(tmp / "x.ply", np.zeros((2, 3)), [0.5]),
     ValueError, "points and probabilities must have matching lengths"),
    (lambda tmp: fileio.write_depth_pgm(tmp / "x.pgm", np.ones((2, 2, 2))),
     ValueError, "depth image must be 2-D, got shape (2, 2, 2)"),
    (lambda tmp: fileio.write_probimg(tmp / "x.probimg", np.ones((2, 2))),
     ValueError, "channel image must be (H, W, C), got shape (2, 2)"),
    (lambda tmp: Box3((0, 0), (1, 1)), ValueError, "Box3 corners must be 3-vectors"),
    (lambda tmp: Pose(np.eye(3), [np.nan, 0, 0]), ValueError, "pose entries must be finite"),
    (lambda tmp: Pose(2 * np.eye(3), np.zeros(3)),
     ValueError, "rotation matrix is not orthonormal within 1e-9"),
    (lambda tmp: Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3)),
     ValueError, "rotation determinant must be +1 within 1e-9"),
    (lambda tmp: look_at((0, 0, 1), (0, 0, 1)), ValueError, "eye and target coincide"),
    (lambda tmp: look_at((0, 0, 0), (0, 2, 0)),
     ValueError, "view direction is parallel to the up vector"),
    (lambda tmp: Scene(objects=[(1, UNIT), (1, UNIT)], occluders=[], roi=UNIT),
     ValueError, "object labels must be unique within a scene"),
    (lambda tmp: Trajectory(waypoints=[]), ValueError, "trajectory needs at least one waypoint"),
    (lambda tmp: frame(np.full((4, 5, 2), 0.5)),
     ValueError, "channel image shape (4, 5, 2) does not match intrinsics (4, 4)"),
    (lambda tmp: frame(np.ones((4, 4, 1))), ValueError, "channel image needs at least two classes"),
    (lambda tmp: render_proba(np.zeros((2, 2, 2), dtype=int), NoiseModel(), 3),
     ValueError, "label image must be 2-D, got shape (2, 2, 2)"),
    (lambda tmp: render_proba(np.full((2, 2), 3), NoiseModel(), 3),
     ValueError, "labels must lie in [0, 2]"),
    (lambda tmp: LabelOccupancyGrid(0.01, 2).set_cells([1, 2], np.zeros((2, 3))),
     ValueError, "expected 2 x 2 log-odds values, got shape (2, 3)"),
    (lambda tmp: ConfusionMatrix(np.zeros((2, 3), dtype=np.int64)),
     ValueError, "confusion matrix must be square, got shape (2, 3)"),
    (lambda tmp: LabelOccupancyGrid(0.01, 2).set_cells(np.zeros((1, 1), dtype=np.int64),
                                                       np.zeros((1, 2))),
     ValueError, "codes must be a 1-D integer array, got int64 (1, 1)"),
    (lambda tmp: LabelOccupancyGrid(0.01, 2).update(np.zeros(1), np.full((1, 2), 0.5)),
     ValueError, "codes must be a 1-D integer array, got float64 (1,)"),
    (lambda tmp: LabelOccupancyGrid(0.01, 2).update([-1], np.full((1, 2), 0.5)),
     ValueError, "invalid voxel code -1"),
    (lambda tmp: softmax_image(np.zeros((2, 2))),
     ValueError, "expected an (H, W, C) score image, got shape (2, 2)"),
    (lambda tmp: pack_keys(np.zeros((1, 3))),
     TypeError, "voxel keys must be integers, got dtype float64"),
    (lambda tmp: LabelOccupancyGrid(0.01, 2, roi=(0, 0, 0)),
     TypeError, "roi must be a Box3 or None"),
])
def test_invalid_input_raises_its_message(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("command, message", [
    ("eval-empty-directory", "snaps: no .lgrid snapshots found"),
    ("fuse-manifest-object", "manifest.json: manifest must be a JSON array"),
    ("eval-boxes-object", "boxes.json: ground-truth file must be a JSON array"),
])
def test_invalid_cli_input_exits_2_with_its_message(tmp_path, capsys, command, message):
    boxes = tmp_path / "boxes.json"
    boxes.write_text(json.dumps(gt_boxes_json()))
    if command == "eval-empty-directory":
        (tmp_path / "snaps").mkdir()
        argv = ["eval", tmp_path / "snaps", "--boxes", boxes]
    elif command == "fuse-manifest-object":
        (tmp_path / "manifest.json").write_text("{}")
        argv = ["fuse", tmp_path / "manifest.json", "--out", tmp_path / "grid.lgrid"]
    else:
        boxes.write_text(json.dumps({"label": 1}))
        argv = ["eval", tmp_path / "grid.lgrid", "--boxes", boxes]
    assert main([str(a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
