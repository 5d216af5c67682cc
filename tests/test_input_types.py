"""Wrong JSON types in any input field exit 0 or 2, never with a traceback.

Each value of ``VALUES`` is written, one at a time, into every field path
of four small inputs: the canonical scene, a 16x16 trajectory of two
waypoints with two hold frames each, the 4-record manifest simulated from
them, and the ground-truth boxes. The command that reads the input then
runs in-process through ``cli.main``. An input the program rejects must
exit 2; one it accepts (``5`` is a fine focal length) exits 0. Exit code 1
would mean an exception such as a ``TypeError`` escaped the input checks.
"""

import copy
import json

import pytest

from conftest import VIEWPOINTS, gt_boxes_json, scene_json
from labelgrid.cli import main

# JSON texts: each is written in place of one value. 1e400 parses as inf.
VALUES = ("null", "true", '"x"', "5", "-1", "0", "2.5", "[]", "{}", "[1, 2]", "[[1, 2, 3]]",
          "1e400", "NaN")
MARKER = "@value@"


def field_paths(value, path=()):
    """Every path to a value inside a JSON document, the whole document's ``()`` first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from field_paths(item, path + (key,))


def with_value(document, path, text: str) -> str:
    """JSON text of ``document`` with the value at ``path`` replaced by ``text``."""
    if not path:
        return text
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = MARKER
    return json.dumps(document).replace(json.dumps(MARKER), text)


def small_trajectory_json() -> dict:
    return {
        "intrinsics": {"fx": 16.0, "fy": 16.0, "cx": 8.0, "cy": 8.0, "width": 16, "height": 16},
        "frame_dt": 0.25,
        "transition_frames": 0,
        "waypoints": [{"eye": list(eye), "look_at": list(at), "timestamp": 2.0 * i,
                       "hold_frames": 2}
                      for i, (eye, at) in enumerate(VIEWPOINTS[:2])],
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The four inputs, written and run once unchanged; returns the file paths."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {"root": root, "scene": root / "scene.json", "trajectory": root / "trajectory.json",
             "boxes": root / "boxes.json", "stream": root / "stream"}
    paths["scene"].write_text(json.dumps(scene_json()))
    paths["trajectory"].write_text(json.dumps(small_trajectory_json()))
    paths["boxes"].write_text(json.dumps(gt_boxes_json()))
    assert main(["simulate", "--scene", str(paths["scene"]), "--trajectory",
                 str(paths["trajectory"]), "--out", str(paths["stream"])]) == 0
    paths["manifest"] = paths["stream"] / "manifest.json"
    paths["grid"] = root / "grid.lgrid"
    assert main(["fuse", str(paths["manifest"]), "--out", str(paths["grid"])]) == 0
    return paths


def _command(paths, name: str, bad) -> list:
    """The command that reads input ``name``, with ``bad`` in its place."""
    if name == "scene":
        return ["simulate", "--scene", bad, "--trajectory", paths["trajectory"],
                "--out", paths["root"] / "out"]
    if name == "trajectory":
        return ["simulate", "--scene", paths["scene"], "--trajectory", bad,
                "--out", paths["root"] / "out"]
    if name == "manifest":
        return ["fuse", bad, "--out", paths["root"] / "out.lgrid"]
    if name == "boxes":
        return ["eval", paths["grid"], "--boxes", bad]
    return ["eval", paths["grid"], "--boxes", bad, "--label", "1"]


@pytest.mark.parametrize("name", ["scene", "trajectory", "manifest", "boxes", "boxes --label"])
def test_wrong_json_types_exit_0_or_2(inputs, capsys, name):
    source = inputs[name.split()[0]]
    document = json.loads(source.read_text())
    # the manifest's image names are relative to its directory
    bad = source.parent / f"bad_{source.name}"
    codes, escaped = set(), []
    for path in field_paths(document):
        for text in VALUES:
            bad.write_text(with_value(document, path, text))
            try:
                code = main([str(a) for a in _command(inputs, name, bad)])
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            capsys.readouterr()
            codes.add(code)
            if code not in (0, 2):
                escaped.append((path, text, code))
    assert escaped == []
    # the table reaches both outcomes, so it does run the commands
    assert codes == {0, 2}
