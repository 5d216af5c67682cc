"""CLI workflows: simulate | fuse | eval | export round trips."""

import errno
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import labelgrid
from conftest import TARGET_BOX, TARGET_LABEL, write_cli_inputs, write_logits_stream
from labelgrid import Box3, fileio, fusion, look_at
from labelgrid.cli import main
from labelgrid.fileio import load_grid, read_manifest, save_grid, write_manifest
from labelgrid.grid import LabelOccupancyGrid, unpack_codes, voxel_center


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_stream(tmp_path, capsys, transition_frames=0):
    """Simulate the bin stream with ``transition_frames`` moving frames per
    view change into ``tmp_path``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = write_cli_inputs(tmp_path, transition_frames)
    out = tmp_path / "stream"
    code, _, err = run_cli(capsys, "simulate",
                           "--scene", paths["scene"],
                           "--trajectory", paths["trajectory"],
                           "--seed", 42, "--confidence", 0.8, "--flip-rate", 0.05,
                           "--num-labels", 40, "--out", out)
    assert code == 0, err
    return {"paths": paths, "stream": out, "manifest": out / "manifest.json"}


@pytest.fixture
def sim_run(tmp_path, capsys):
    return simulate_stream(tmp_path, capsys)


class TestSimulate:
    def test_writes_manifest_and_files(self, sim_run):
        records = read_manifest(sim_run["manifest"])
        assert len(records) == 16
        for record in records:
            assert (sim_run["stream"] / record["depth_file"]).exists()
            assert (sim_run["stream"] / record["proba_file"]).exists()

    def test_malformed_scene_json_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text('{\n  "objects": [,]\n}\n')
        trajectory = tmp_path / "traj.json"
        trajectory.write_text("{}")
        code, _, err = run_cli(capsys, "simulate", "--scene", scene,
                               "--trajectory", trajectory, "--out", tmp_path / "o")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("which, edit, message", [
        ("scene", lambda s: s["objects"][0].update(min=5),
         "scene.json: objects[0]: field 'min' must be a list of 3 numbers, got 5"),
        ("trajectory", lambda t: t.update(waypoints=5),
         "trajectory.json: field 'waypoints' must be a list, got 5"),
        ("scene", lambda s: s["roi"]["max"].__setitem__(0, math.nan),
         "scene.json: roi: field 'max' must be a list of 3 numbers, got [nan, "),
        ("trajectory", lambda t: t["waypoints"][1].update(timestamp=math.inf),
         "trajectory.json: waypoints[1]: field 'timestamp' must be a number, got inf"),
    ])
    def test_mistyped_input_exits_2_naming_file_and_field(self, tmp_path, capsys,
                                                          which, edit, message):
        paths = write_cli_inputs(tmp_path)
        obj = json.loads(paths[which].read_text())
        edit(obj)
        paths[which].write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "simulate", "--scene", paths["scene"],
                               "--trajectory", paths["trajectory"], "--out", tmp_path / "o")
        assert code == 2
        assert message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_exits_2_before_writing(self, tmp_path, capsys, seed):
        paths = write_cli_inputs(tmp_path)
        code, _, err = run_cli(capsys, "simulate", "--scene", paths["scene"],
                               "--trajectory", paths["trajectory"],
                               "--seed", seed, "--out", tmp_path / "o")
        assert code == 2
        assert f"seed must be an integer in [0, {2 ** 64}), got {seed}" in err
        assert not (tmp_path / "o").exists()

    def test_rerun_same_seed_identical_bytes(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "simulate", "--scene", paths["scene"],
                                 "--trajectory", paths["trajectory"],
                                 "--seed", 7, "--out", out)
            assert code == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]

    def test_rotation_translation_waypoints_match_eye_look_at(self, tmp_path, capsys):
        """The README's two waypoint forms give the same stream, byte for byte."""
        paths = write_cli_inputs(tmp_path)
        trajectory = json.loads(paths["trajectory"].read_text())
        for waypoint in trajectory["waypoints"]:
            pose = look_at(waypoint.pop("eye"), waypoint.pop("look_at"))
            waypoint["rotation"] = pose.rotation.ravel().tolist()
            waypoint["translation"] = pose.translation.tolist()
        rigid = tmp_path / "rigid.json"
        rigid.write_text(json.dumps(trajectory))
        blobs = []
        for name, path in (("eye", paths["trajectory"]), ("rigid", rigid)):
            out = tmp_path / name
            code, _, err = run_cli(capsys, "simulate", "--scene", paths["scene"],
                                   "--trajectory", path, "--out", out)
            assert code == 0, err
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(blobs[0]) == 33
        assert blobs[0] == blobs[1]


class TestFuse:
    def test_empty_manifest_gives_empty_snapshot(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        write_manifest(manifest, [])
        snapshot = tmp_path / "empty.lgrid"
        code, out, _ = run_cli(capsys, "fuse", manifest, "--out", snapshot)
        assert code == 0
        grid = load_grid(snapshot)
        assert len(grid) == 0
        stats = json.loads(out)
        assert stats["stats"]["frames_total"] == 0

    @pytest.mark.parametrize("roi", [None, [0.0, 0.0, 0.0, 0.3, 0.3, 0.4]])
    def test_config_block_lists_every_setting(self, tmp_path, capsys, roi):
        manifest = tmp_path / "manifest.json"
        write_manifest(manifest, [])
        argv = ["fuse", manifest, "--out", tmp_path / "g.lgrid", "--resolution", 0.01,
                "--num-labels", 7, "--clamp", 2.5, "--p-min", 0.01, "--linear-eps", 0.002,
                "--angular-eps", 0.003, "--settle-frames", 3]
        if roi is not None:
            argv += ["--roi", ",".join(map(str, roi))]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert list(json.loads(out)["config"].items()) == [
            ("resolution", 0.01), ("num_labels", 7), ("clamp", 2.5), ("p_min", 0.01),
            ("linear_eps", 0.002), ("angular_eps", 0.003), ("settle_frames", 3),
            ("roi", roi)]

    def test_fuse_records_config_and_stats(self, sim_run, tmp_path, capsys):
        snapshot = tmp_path / "grid.lgrid"
        code, out, _ = run_cli(capsys, "fuse", sim_run["manifest"],
                               "--resolution", 0.005, "--num-labels", 40,
                               "--roi", "0,0,0,0.3,0.3,0.4",
                               "--out", snapshot)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["resolution"] == 0.005
        assert payload["config"]["p_min"] == 1e-3
        assert payload["stats"]["frames_total"] == 16
        assert payload["stats"]["frames_fused"] == 9
        assert payload["cells"] == len(load_grid(snapshot))

    def test_cli_snapshot_matches_library_pipeline(self, sim_run, tmp_path, capsys):
        """The CLI file path and the in-memory library path agree to the byte."""
        from conftest import (NUM_LABELS, RESOLUTION, make_bin_scene,
                              make_trajectory)
        from labelgrid import CameraIntrinsics, GateConfig, fuse_stream
        from labelgrid.fileio import grid_to_bytes
        from labelgrid.simulator import NoiseModel, simulate_frames

        snapshot = tmp_path / "grid.lgrid"
        code, _, _ = run_cli(capsys, "fuse", sim_run["manifest"],
                             "--resolution", RESOLUTION, "--num-labels", NUM_LABELS,
                             "--roi", "0,0,0,0.3,0.3,0.4", "--out", snapshot)
        assert code == 0

        scene = make_bin_scene()
        intr = CameraIntrinsics(fx=64.0, fy=64.0, cx=32.0, cy=32.0,
                                width=64, height=64)
        frames = simulate_frames(scene, make_trajectory(0), intr,
                                 NoiseModel(confidence=0.8, flip_rate=0.05, seed=42),
                                 NUM_LABELS)
        grid = LabelOccupancyGrid(RESOLUTION, NUM_LABELS, clamp=3.5, roi=scene.roi)
        fuse_stream(grid, frames, GateConfig())
        assert snapshot.read_bytes() == grid_to_bytes(grid)

    def test_per_frame_snapshots(self, sim_run, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        code, _, _ = run_cli(capsys, "fuse", sim_run["manifest"],
                             "--roi", "0,0,0,0.3,0.3,0.4",
                             "--per-frame-snapshots", snapdir,
                             "--out", tmp_path / "grid.lgrid")
        assert code == 0
        snaps = sorted(snapdir.glob("*.lgrid"))
        assert len(snaps) == 16
        # final per-frame snapshot equals the emitted snapshot
        assert snaps[-1].read_bytes() == (tmp_path / "grid.lgrid").read_bytes()

    def test_snapshot_directory_holding_a_curve_exits_2(self, sim_run, tmp_path, capsys):
        # eval reads every .lgrid in the directory: a second run would mix two curves
        snapdir = tmp_path / "snaps"
        argv = ["fuse", sim_run["manifest"], "--per-frame-snapshots", snapdir]
        assert run_cli(capsys, *argv, "--out", tmp_path / "a.lgrid")[0] == 0
        before = {path: path.read_bytes() for path in snapdir.iterdir()}
        code, _, err = run_cli(capsys, *argv, "--settle-frames", 1, "--out", tmp_path / "b.lgrid")
        assert code == 2
        assert f"--per-frame-snapshots: {snapdir} already holds .lgrid files" in err
        assert {path: path.read_bytes() for path in snapdir.iterdir()} == before
        assert not (tmp_path / "b.lgrid").exists()

    @pytest.mark.parametrize("out", ["snaps/final.lgrid", "snaps/../snaps/final.lgrid"])
    def test_out_inside_the_snapshot_directory_exits_2(self, sim_run, tmp_path, capsys, out):
        # eval would read the final grid as one more frame of the curve
        out = tmp_path / out
        code, _, err = run_cli(capsys, "fuse", sim_run["manifest"],
                               "--per-frame-snapshots", tmp_path / "snaps", "--out", out)
        assert code == 2
        assert (f"--out: {out} lies in the --per-frame-snapshots directory {tmp_path / 'snaps'}"
                in err)
        assert not (tmp_path / "snaps").exists()

    def test_out_in_a_subdirectory_of_the_snapshot_directory_is_accepted(self, sim_run,
                                                                         tmp_path, capsys):
        # eval reads only the .lgrid files directly inside the directory
        snapdir = tmp_path / "snaps"
        (snapdir / "final").mkdir(parents=True)
        code, _, err = run_cli(capsys, "fuse", sim_run["manifest"], "--per-frame-snapshots",
                               snapdir, "--out", snapdir / "final" / "grid.lgrid")
        assert code == 0, err
        assert len(list(snapdir.glob("*.lgrid"))) == 16

    def test_failed_fuse_deletes_its_snapshots(self, sim_run, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", sim_run["manifest"], "--num-labels", 5,
                               "--per-frame-snapshots", snapdir, "--out", tmp_path / "g.lgrid")
        assert code == 2
        # frame 0 is written before frame 1, the first fused one, fails
        assert "frame 1 has 40 labels, but the grid has 5" in err
        assert list(snapdir.glob("*.lgrid")) == []
        assert not snapdir.exists()

    def test_failed_fuse_keeps_a_snapshot_directory_it_did_not_make(self, sim_run, tmp_path,
                                                                    capsys):
        """A directory that was there before the run stays, empty, and so do
        the parents that the run made for its own directory."""
        kept, made = tmp_path / "kept", tmp_path / "parent" / "snaps"
        kept.mkdir()
        for snapdir in (kept, made):
            code, _, err = run_cli(capsys, "fuse", sim_run["manifest"], "--num-labels", 5,
                                   "--per-frame-snapshots", snapdir, "--out", tmp_path / "g.lgrid")
            assert code == 2 and "frame 1 has 40 labels, but the grid has 5" in err
        assert kept.is_dir() and list(kept.iterdir()) == []
        assert not made.exists() and made.parent.is_dir()

    def test_failed_fuse_keeps_a_directory_it_made_that_another_writer_filled(self, sim_run,
                                                                             tmp_path, capsys):
        """A file written into the run's new directory during the run keeps
        the directory, and fuse still reports its own error."""
        snapdir = tmp_path / "snaps"

        def writing(frame, *args):
            (snapdir / "notes.txt").write_text("another writer")
            raise ValueError("the first fused frame fails")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fusion, "register_frame", writing)
            code, _, err = run_cli(capsys, "fuse", sim_run["manifest"], "--per-frame-snapshots",
                                   snapdir, "--out", tmp_path / "g.lgrid")
        assert code == 2
        assert err == "error: the first fused frame fails\n"
        assert [p.name for p in snapdir.iterdir()] == ["notes.txt"]


    def test_out_on_a_hard_link_leaves_the_linked_snapshot_alone(self, sim_run, tmp_path,
                                                                 capsys):
        """``--out`` replaces its path, so a hard link to another run's curve
        snapshot gets the new grid and the snapshot keeps its bytes."""
        argv = ["fuse", sim_run["manifest"], "--roi", ROI_ARG]
        code, _, err = run_cli(capsys, *argv, "--per-frame-snapshots", tmp_path / "curve",
                               "--out", tmp_path / "first.lgrid")
        assert code == 0, err
        # frame 0 is gated, so its snapshot holds the empty grid
        snapshot = sorted((tmp_path / "curve").glob("*.lgrid"))[0]
        before = snapshot.read_bytes()
        link = tmp_path / "link.lgrid"
        os.link(snapshot, link)
        code, _, err = run_cli(capsys, *argv, "--out", link)
        assert code == 0, err
        assert snapshot.read_bytes() == before
        assert link.read_bytes() == (tmp_path / "first.lgrid").read_bytes() != before
        assert not list(tmp_path.glob(".*.tmp"))

    def test_keys_past_the_range_exit_2(self, tmp_path, capsys):
        from labelgrid import CameraIntrinsics, Pose
        from labelgrid.fileio import pose_record, write_depth_pgm, write_probimg

        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=2.0, cy=2.0, width=4, height=4)
        write_depth_pgm(tmp_path / "d.pgm", np.full((4, 4), 1.0))
        write_probimg(tmp_path / "p.probimg", np.full((4, 4, 2), 0.5))
        # 20 km out: past 2**20 voxels of 5 mm on the z axis
        pose = Pose(np.eye(3), [0.0, 0.0, 20_000.0])
        write_manifest(tmp_path / "manifest.json", [{
            "depth_file": "d.pgm", "proba_file": "p.probimg", "timestamp": 0.0,
            "pose": pose_record(pose, intr, 0.0)}])
        common = ["fuse", tmp_path / "manifest.json", "--num-labels", 2, "--settle-frames", 1]
        code, _, err = run_cli(capsys, *common, "--out", tmp_path / "far.lgrid")
        assert code == 2
        assert "outside" in err
        code, out, _ = run_cli(capsys, *common, "--roi", "0,0,0,0.3,0.3,0.4",
                               "--out", tmp_path / "clipped.lgrid")
        assert code == 0
        assert json.loads(out)["cells"] == 0

    @pytest.mark.parametrize("roi, message", [
        ("a,0,0,1,1,1", "could not convert string to float: 'a'"),
        ("nan,0,0,1,1,1", "Box3 corners must be finite"),
        ("1,1,1,0,0,0", "Box3 min (1.0, 1.0, 1.0) must be strictly below max"),
        ("0,0,0,1,1", "expects 6 comma-separated numbers"),
    ])
    def test_bad_roi_exits_2_naming_the_flag(self, tmp_path, capsys, roi, message):
        manifest = tmp_path / "manifest.json"
        write_manifest(manifest, [])
        code, _, err = run_cli(capsys, "fuse", manifest, "--roi", roi,
                               "--out", tmp_path / "g.lgrid")
        assert code == 2
        assert err.startswith(f"error: --roi: {message}")


ROI_ARG = "0,0,0,0.3,0.3,0.4"


class TestStreamingFuse:
    @pytest.mark.parametrize("field, value, message", [
        (None, 5, "record 3: must be a JSON object, got 5"),
        ("pose", 5, "record 3: pose: must be a JSON object"),
        ("rotation", ["one"] * 9, "record 3: pose: field 'rotation' must be a list of 9 numbers"),
        ("timestamp", math.nan, "record 3: pose: field 'timestamp' must be a number, got nan"),
        ("fx", math.inf, "record 3: pose: field 'fx' must be a number, got inf"),
    ])
    def test_mistyped_record_exits_2_before_any_snapshot(self, sim_run, tmp_path, capsys,
                                                         field, value, message):
        records = read_manifest(sim_run["manifest"])
        if field is None:
            records[3] = value
        elif field == "pose":
            records[3]["pose"] = value
        else:
            records[3]["pose"][field] = value
        manifest = sim_run["stream"] / "bad.json"
        write_manifest(manifest, records)
        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", manifest, "--per-frame-snapshots", snapdir,
                               "--out", tmp_path / "grid.lgrid")
        assert code == 2
        assert message in err
        assert not snapdir.exists()

    def test_backwards_top_level_timestamps_exit_2(self, sim_run, tmp_path, capsys):
        records = read_manifest(sim_run["manifest"])
        for i, record in enumerate(records):
            record["timestamp"] = 100.0 - i
        manifest = sim_run["stream"] / "bad.json"
        write_manifest(manifest, records)
        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", manifest, "--per-frame-snapshots", snapdir,
                               "--out", tmp_path / "grid.lgrid")
        assert code == 2
        assert "record 0: field 'timestamp' is 100.0 but pose.timestamp is 0.0" in err
        assert not snapdir.exists()

    def test_a_stalled_clock_exits_2_naming_the_frame(self, sim_run, tmp_path, capsys):
        """Record 2 repeats record 1's time in both fields, so the records
        agree and the gate's order check fails after frames 0 and 1 are
        written; their snapshots and the directory go."""
        records = read_manifest(sim_run["manifest"])
        stalled = records[1]["pose"]["timestamp"]
        records[2]["pose"]["timestamp"] = records[2]["timestamp"] = stalled
        manifest = sim_run["stream"] / "bad.json"
        write_manifest(manifest, records)
        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", manifest, "--per-frame-snapshots", snapdir,
                               "--out", tmp_path / "grid.lgrid")
        assert code == 2
        assert f"frame 2: time must advance, got {stalled} -> {stalled}" in err
        assert not snapdir.exists()
        assert not (tmp_path / "grid.lgrid").exists()

    def test_nan_probability_in_a_fused_frame_exits_2_naming_the_file(self, sim_run,
                                                                       tmp_path, capsys):
        path = sim_run["stream"] / read_manifest(sim_run["manifest"])[-1]["proba_file"]
        proba = np.asarray(fileio.read_probimg(path))
        proba[0, 0, 5] = np.nan
        fileio.write_probimg(path, proba)
        code, _, err = run_cli(capsys, "fuse", sim_run["manifest"],
                               "--out", tmp_path / "grid.lgrid")
        assert code == 2
        assert f"{path}: probability image entries must lie in [0, 1]" in err

    def test_an_image_truncated_before_registration_exits_2_naming_the_file(self, sim_run,
                                                                           tmp_path, capsys):
        """The first fused frame loads, then its image is cut to half before
        it is registered: fuse exits 2, naming the file once."""
        # the default gate fuses from the second still frame on
        path = sim_run["stream"] / read_manifest(sim_run["manifest"])[1]["proba_file"]
        register_frame = fusion.register_frame

        def truncating(frame, *args):
            os.truncate(path, path.stat().st_size // 2)
            return register_frame(frame, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fusion, "register_frame", truncating)
            code, _, err = run_cli(capsys, "fuse", sim_run["manifest"],
                                   "--out", tmp_path / "grid.lgrid")
        assert code == 2
        assert err.startswith(f"error: {path}: truncated at byte ") and err.count(str(path)) == 1
        assert not (tmp_path / "grid.lgrid").exists()

    @pytest.mark.parametrize("bad", [1.5, np.nan])
    def test_an_entry_written_before_registration_exits_2_naming_the_file(self, sim_run, tmp_path,
                                                                         capsys, bad):
        """The first fused frame loads, then one entry of a pixel with valid
        depth is overwritten in place before it is registered: the check
        reads the bytes that are summed, so fuse exits 2, naming the file,
        and leaves no snapshot behind."""
        record = read_manifest(sim_run["manifest"])[1]
        path = sim_run["stream"] / record["proba_file"]
        depth = fileio.read_depth_pgm(sim_run["stream"] / record["depth_file"])
        shape = np.asarray(fileio.read_probimg(path)).shape
        pixel = np.flatnonzero(depth > 0)[depth.size // 3]
        offset = path.stat().st_size - 4 * math.prod(shape) + 4 * (pixel * shape[2] + 5)
        register_frame = fusion.register_frame

        def overwriting(frame, *args):
            with open(path, "r+b") as f:
                f.seek(offset)
                f.write(np.float32(bad).tobytes())
            return register_frame(frame, *args)

        snapdir = tmp_path / "snaps"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fusion, "register_frame", overwriting)
            code, _, err = run_cli(capsys, "fuse", sim_run["manifest"], "--per-frame-snapshots",
                                   snapdir, "--out", tmp_path / "grid.lgrid")
        assert code == 2
        assert err == f"error: {path}: probability image entries must lie in [0, 1]\n"
        assert not snapdir.exists() and not (tmp_path / "grid.lgrid").exists()

    def test_a_non_finite_score_in_a_fused_frame_exits_2_naming_the_file_once(self, sim_run,
                                                                              tmp_path, capsys):
        """The logits twin of the NaN probability above: the score is read
        where the first fused frame is registered, in its second band, and
        fuse exits 2 naming the file once and leaving no snapshot behind."""
        manifest = write_logits_stream(sim_run["manifest"])
        # the default gate fuses from the second still frame on
        path = manifest.parent / read_manifest(manifest)[1]["logits_file"]
        scores = np.asarray(fileio.read_probimg(path))
        scores[60, 3, 4] = np.inf
        fileio.write_probimg(path, scores)
        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", manifest, "--per-frame-snapshots", snapdir,
                               "--out", tmp_path / "grid.lgrid")
        assert code == 2
        assert err == f"error: {path}: non-finite score at pixel (row=60, col=3, channel=4)\n"
        assert not snapdir.exists() and not (tmp_path / "grid.lgrid").exists()

    def test_label_count_mismatch_exits_2_naming_the_frame(self, sim_run, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fuse", sim_run["manifest"], "--num-labels", 5,
                               "--out", tmp_path / "grid.lgrid")
        assert code == 2
        # the default gate fuses from the second still frame on
        assert err == "error: frame 1 has 40 labels, but the grid has 5\n"
        assert not (tmp_path / "grid.lgrid").exists()

    def test_memory_does_not_grow_with_gated_frames(self, tmp_path, capsys):
        """One decoded frame is held at a time: six moving frames per view
        change instead of one add 15 frames but no decoded image."""
        peaks, stats = [], []
        for transition_frames in (1, 6):
            manifest = simulate_stream(tmp_path / f"t{transition_frames}", capsys,
                                       transition_frames)["manifest"]
            tracemalloc.start()
            try:
                code = main(["fuse", str(manifest), "--roi", ROI_ARG,
                             "--out", str(manifest.parent / "grid.lgrid")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            stats.append(json.loads(capsys.readouterr().out)["stats"])
        assert [s["frames_total"] for s in stats] == [19, 34]
        assert stats[0]["frames_fused"] == stats[1]["frames_fused"]
        one_frame = 64 * 64 * 40 * 8
        assert abs(peaks[1] - peaks[0]) < one_frame

    def test_gated_frames_are_never_decoded(self, tmp_path, capsys, monkeypatch):
        manifest = simulate_stream(tmp_path, capsys, 1)["manifest"]
        decoded = []
        load_frame = fileio.load_frame

        def counting_load_frame(record, base_dir):
            decoded.append(record["proba_file"])
            return load_frame(record, base_dir)

        monkeypatch.setattr(fileio, "load_frame", counting_load_frame)
        argv = ["fuse", manifest, "--roi", ROI_ARG, "--out", tmp_path / "grid.lgrid"]
        code, clean, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(decoded) == json.loads(clean)["stats"]["frames_fused"] == 9
        gated = [r["proba_file"] for r in read_manifest(manifest)
                 if r["proba_file"] not in decoded]
        assert len(gated) == 10

        def truncate(name):
            path = manifest.parent / name
            path.write_bytes(path.read_bytes()[:-4])

        truncate(gated[-1])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == clean
        truncate(decoded[0])
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert decoded[0] in err

    def test_streaming_matches_eager_oracle(self, tmp_path, capsys):
        """Pose-first streaming with float32 images writes the same per-frame
        and final snapshots as decoding every frame to float64 up front."""
        from conftest import BIN_ROI, NUM_LABELS, RESOLUTION
        from labelgrid import GateConfig
        from oracles import oracle_eager_fuse

        manifest = simulate_stream(tmp_path, capsys, 2)["manifest"]
        snapdir = tmp_path / "snaps"
        code, _, _ = run_cli(capsys, "fuse", manifest, "--roi", ROI_ARG,
                             "--per-frame-snapshots", snapdir, "--out", tmp_path / "grid.lgrid")
        assert code == 0
        grid = LabelOccupancyGrid(RESOLUTION, NUM_LABELS, clamp=3.5, roi=BIN_ROI)
        expected = oracle_eager_fuse(manifest, grid, GateConfig(), p_min=1e-3)
        assert len(expected) == 22
        assert [p.read_bytes() for p in sorted(snapdir.glob("*.lgrid"))] == expected
        assert (tmp_path / "grid.lgrid").read_bytes() == expected[-1]

    def test_a_logits_stream_matches_the_whole_image_softmax_oracle(self, tmp_path, capsys):
        """Scores softmaxed band by band as register_frame reads them write the
        per-frame and final snapshots of softmaxing each image whole."""
        from conftest import BIN_ROI, NUM_LABELS, RESOLUTION
        from labelgrid import GateConfig
        from oracles import oracle_logits_fuse

        manifest = write_logits_stream(simulate_stream(tmp_path, capsys, 2)["manifest"])
        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", manifest, "--roi", ROI_ARG,
                               "--per-frame-snapshots", snapdir, "--out", tmp_path / "grid.lgrid")
        assert code == 0, err
        grid = LabelOccupancyGrid(RESOLUTION, NUM_LABELS, clamp=3.5, roi=BIN_ROI)
        expected = oracle_logits_fuse(manifest, grid, GateConfig(), p_min=1e-3)
        assert len(expected) == 22 and len(set(expected)) > 2
        assert [p.read_bytes() for p in sorted(snapdir.glob("*.lgrid"))] == expected
        assert (tmp_path / "grid.lgrid").read_bytes() == expected[-1]

    def test_gated_snapshots_repeat_the_previous_grid(self, tmp_path, capsys):
        """Every per-frame file holds the grid as it stood after its frame,
        also where a gated frame follows a fused one and its snapshot is
        linked to the file before it."""
        from conftest import BIN_ROI, NUM_LABELS, RESOLUTION
        from labelgrid import GateConfig, fuse_stream
        from labelgrid.fileio import grid_to_bytes, read_frame_records

        manifest = simulate_stream(tmp_path, capsys, 1)["manifest"]
        grid = LabelOccupancyGrid(RESOLUTION, NUM_LABELS, clamp=3.5, roi=BIN_ROI)
        expected, fused = [], []

        def capture(index, item, was_fused):
            expected.append(grid_to_bytes(grid))
            fused.append(was_fused)

        fuse_stream(grid, read_frame_records(manifest), GateConfig(), on_frame=capture)
        assert any(a and not b for a, b in zip(fused, fused[1:]))
        assert len(set(expected)) > 2

        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", manifest, "--roi", ROI_ARG,
                               "--per-frame-snapshots", snapdir, "--out", tmp_path / "grid.lgrid")
        assert code == 0, err
        snaps = sorted(snapdir.glob("*.lgrid"))
        assert [p.read_bytes() for p in snaps] == expected
        # a gated frame's snapshot links the file before it; frame 0 and
        # each fused frame's snapshot is a new inode
        inodes = [(p.stat().st_dev, p.stat().st_ino) for p in snaps]
        for i, was_fused in enumerate(fused):
            if i == 0 or was_fused:
                assert inodes[i] not in inodes[:i]
            else:
                assert inodes[i] == inodes[i - 1]

    @pytest.mark.parametrize("error", [PermissionError(errno.EPERM, "Operation not permitted"),
                                       OSError(errno.EMLINK, "Too many links")],
                             ids=["EPERM", "EMLINK"])
    def test_gated_snapshots_are_copies_where_links_fail(self, tmp_path, capsys, monkeypatch,
                                                        error):
        """A file system without hard links, or an inode at its link limit,
        gets byte copies of the same grids."""
        from labelgrid import cli

        manifest = simulate_stream(tmp_path, capsys, 1)["manifest"]
        argv = ["fuse", manifest, "--roi", ROI_ARG]
        code, _, err = run_cli(capsys, *argv, "--per-frame-snapshots", tmp_path / "linked",
                               "--out", tmp_path / "linked.lgrid")
        assert code == 0, err
        linked = sorted((tmp_path / "linked").glob("*.lgrid"))
        assert any(p.stat().st_nlink > 1 for p in linked)

        def refuse(src, dst):
            raise error

        monkeypatch.setattr(cli.os, "link", refuse)
        code, _, err = run_cli(capsys, *argv, "--per-frame-snapshots", tmp_path / "copied",
                               "--out", tmp_path / "copied.lgrid")
        assert code == 0, err
        copied = sorted((tmp_path / "copied").glob("*.lgrid"))
        assert ({p.name: p.read_bytes() for p in copied}
                == {p.name: p.read_bytes() for p in linked})
        assert all(p.stat().st_nlink == 1 for p in copied)


class TestEval:
    def fuse(self, sim_run, tmp_path, capsys, **kw):
        snapshot = tmp_path / "grid.lgrid"
        code, _, _ = run_cli(capsys, "fuse", sim_run["manifest"],
                             "--roi", "0,0,0,0.3,0.3,0.4", "--out", snapshot)
        assert code == 0
        return snapshot

    def test_empty_grid_scores_zero(self, tmp_path, capsys):
        snapshot = tmp_path / "empty.lgrid"
        save_grid(snapshot, LabelOccupancyGrid(0.005, 40))
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"label": 1, "min": [0, 0, 0], "max": [1, 1, 1]}]))
        code, out, _ = run_cli(capsys, "eval", snapshot, "--boxes", boxes, "--label", 1)
        assert code == 0
        report = json.loads(out)
        assert report["iou"] == 0.0
        assert report["centroid"] is None
        assert report["voxel_count"] == 0

    def test_report_schema(self, sim_run, tmp_path, capsys):
        snapshot = self.fuse(sim_run, tmp_path, capsys)
        code, out, _ = run_cli(capsys, "eval", snapshot,
                               "--boxes", sim_run["paths"]["boxes"],
                               "--label", TARGET_LABEL)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"label", "v_tp", "v_fp", "v_fn", "iou",
                               "centroid", "voxel_count"}
        assert report["iou"] > 0.0
        assert len(report["centroid"]) == 3

    def test_perfect_fill_near_one(self, tmp_path, capsys):
        # voxels exactly tiling the box; IoU hits 1 within discretization
        grid = LabelOccupancyGrid(0.1, 3)
        for ix in range(10):
            for iy in range(10):
                for iz in range(10):
                    grid.update_voxel((ix, iy, iz), 1, 0.9)
        snapshot = tmp_path / "full.lgrid"
        save_grid(snapshot, grid)
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"label": 1, "min": [0, 0, 0], "max": [1, 1, 1]}]))
        code, out, _ = run_cli(capsys, "eval", snapshot, "--boxes", boxes, "--label", 1)
        assert code == 0
        assert json.loads(out)["iou"] == pytest.approx(1.0, abs=1e-9)

    def test_snapshot_directory_emits_csv_curve(self, sim_run, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        code, _, _ = run_cli(capsys, "fuse", sim_run["manifest"],
                             "--roi", "0,0,0,0.3,0.3,0.4",
                             "--per-frame-snapshots", snapdir,
                             "--out", tmp_path / "grid.lgrid")
        assert code == 0
        code, out, _ = run_cli(capsys, "eval", snapdir,
                               "--boxes", sim_run["paths"]["boxes"],
                               "--label", TARGET_LABEL)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snapshot,label,iou,v_tp,v_fp,v_fn,voxel_count"
        assert len(lines) == 1 + 16
        ious = [float(line.split(",")[2]) for line in lines[1:]]
        # individual frames may dip a voxel in and out; across views the
        # curve is non-decreasing (last hold frame per waypoint)
        per_view = [ious[i] for i in (3, 7, 11, 15)]
        assert all(b >= a for a, b in zip(per_view, per_view[1:]))
        assert per_view[-1] > per_view[0] > 0.0

    def test_curve_stays_in_frame_order_past_frame_9999(self, tmp_path, capsys):
        """10,001 frames name their snapshots with five digits, so the
        curve's name order is frame order up to the last frame."""
        from labelgrid import CameraIntrinsics, Pose
        from labelgrid.fileio import pose_record, write_depth_pgm, write_probimg

        intr = CameraIntrinsics(fx=2.0, fy=2.0, cx=1.0, cy=1.0, width=2, height=2)
        write_depth_pgm(tmp_path / "d.pgm", np.full((2, 2), 1.0))
        write_probimg(tmp_path / "p.probimg", np.full((2, 2, 2), 0.5))
        write_manifest(tmp_path / "manifest.json", [
            {"depth_file": "d.pgm", "proba_file": "p.probimg",
             "pose": pose_record(Pose.identity(), intr, 0.1 * i)} for i in range(10_001)])
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"label": 1, "min": [0, 0, 0], "max": [1, 1, 1]}]))
        snapdir = tmp_path / "snaps"
        # no frame passes the gate: frame 0 is saved and every later one copied
        code, _, err = run_cli(capsys, "fuse", tmp_path / "manifest.json", "--num-labels", 2,
                               "--settle-frames", 10_002, "--per-frame-snapshots", snapdir,
                               "--out", tmp_path / "grid.lgrid")
        assert code == 0, err
        code, out, err = run_cli(capsys, "eval", snapdir, "--boxes", boxes)
        assert code == 0, err
        names = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert names == [f"frame_{i:05d}.lgrid" for i in range(10_001)]

    def test_curve_rescores_each_change_of_bytes(self, tmp_path, capsys):
        """A, A, B, B, A with B the size of A but one later cell changed: the
        curve equals scoring every file on its own."""
        from labelgrid.cli import _evaluate

        a = LabelOccupancyGrid(0.1, 3)
        for ix in range(10):
            a.update_voxel((ix, 0, 0), 1, 0.8 if ix < 9 else 0.3)
            a.update_voxel((ix, 0, 0), 2, 0.6)
        b = LabelOccupancyGrid(0.1, 3)
        b.set_cells(a.codes, a.log_odds_matrix)
        b.update_voxel((9, 0, 0), 1, 0.9)  # one more measurement of the last cell
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        for i, grid in enumerate([a, a, b, b, a]):
            save_grid(snapdir / f"frame_{i:04d}.lgrid", grid)
        paths = sorted(snapdir.glob("*.lgrid"))
        assert len({p.stat().st_size for p in paths}) == 1
        # only the last 24-byte cell differs
        assert paths[0].read_bytes()[:-24] == paths[2].read_bytes()[:-24]
        boxes = [(1, Box3((0.0, 0.0, 0.0), (1.0, 0.1, 0.1))),
                 (2, Box3((0.0, 0.0, 0.0), (0.5, 0.1, 0.1)))]
        boxes_path = tmp_path / "boxes.json"
        boxes_path.write_text(json.dumps([{"label": label, "min": list(box.min),
                                           "max": list(box.max)} for label, box in boxes]))

        code, out, err = run_cli(capsys, "eval", snapdir, "--boxes", boxes_path)
        assert code == 0, err
        rows = {p.name: [_evaluate(load_grid(p), label, box) for label, box in boxes]
                for p in paths}
        assert rows["frame_0000.lgrid"] != rows["frame_0002.lgrid"]
        expected = ["snapshot,label,iou,v_tp,v_fp,v_fn,voxel_count"] + [
            f"{name},{r['label']},{r['iou']!r},{r['v_tp']!r},{r['v_fp']!r},{r['v_fn']!r},"
            f"{r['voxel_count']}" for name, file_rows in rows.items() for r in file_rows]
        assert out.splitlines() == expected

    def test_curve_reads_each_inode_once(self, tmp_path, capsys, monkeypatch):
        """A gated frame's link is not read again; a copy of the curve, whose
        files are all distinct inodes, gives the same CSV."""
        sim = simulate_stream(tmp_path, capsys, 1)
        snapdir = tmp_path / "snaps"
        code, _, err = run_cli(capsys, "fuse", sim["manifest"], "--roi", ROI_ARG,
                               "--per-frame-snapshots", snapdir, "--out", tmp_path / "g.lgrid")
        assert code == 0, err
        paths = sorted(snapdir.glob("*.lgrid"))
        inodes = {(p.stat().st_dev, p.stat().st_ino) for p in paths}
        assert len(inodes) < len(paths)

        read = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            if path.suffix == ".lgrid":
                read.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        argv = ["--boxes", sim["paths"]["boxes"], "--label", TARGET_LABEL]
        code, linked_csv, err = run_cli(capsys, "eval", snapdir, *argv)
        assert code == 0, err
        assert len(read) == len(inodes)

        shutil.copytree(snapdir, tmp_path / "copy")
        assert all(p.stat().st_nlink == 1 for p in (tmp_path / "copy").glob("*.lgrid"))
        parsed = []
        parse = fileio.grid_from_file_bytes
        monkeypatch.setattr(fileio, "grid_from_file_bytes",
                            lambda path, raw: parsed.append(path) or parse(path, raw))
        code, copied_csv, err = run_cli(capsys, "eval", tmp_path / "copy", *argv)
        assert code == 0, err
        assert copied_csv == linked_csv
        # the copies are told apart by their bytes: each grid is parsed once
        assert len(parsed) == len(inodes)

    def test_truncated_snapshot_in_a_curve_exits_2_naming_it(self, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        for i in range(3):
            save_grid(snapdir / f"frame_{i:04d}.lgrid", LabelOccupancyGrid(0.005, 40))
        bad = snapdir / "frame_0001.lgrid"
        bad.write_bytes(bad.read_bytes()[:-1])
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"label": 1, "min": [0, 0, 0], "max": [1, 1, 1]}]))
        code, _, err = run_cli(capsys, "eval", snapdir, "--boxes", boxes)
        assert code == 2
        assert err == f"error: {bad}: truncated LGRID1 snapshot\n"

    def test_mistyped_boxes_exit_2_naming_file_and_field(self, tmp_path, capsys):
        snapshot = tmp_path / "empty.lgrid"
        save_grid(snapshot, LabelOccupancyGrid(0.005, 40))
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"label": 1, "min": [0, 0, 0], "max": [1, 1, 1]},
                                     {"label": 2, "min": [0, 0, 0], "max": "far"}]))
        code, _, err = run_cli(capsys, "eval", snapshot, "--boxes", boxes)
        assert code == 2
        assert f"{boxes}: entry 1: field 'max' must be a list of 3 numbers" in err

    def test_missing_label_errors(self, tmp_path, capsys):
        snapshot = tmp_path / "empty.lgrid"
        save_grid(snapshot, LabelOccupancyGrid(0.005, 40))
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"label": 1, "min": [0, 0, 0], "max": [1, 1, 1]}]))
        code, _, err = run_cli(capsys, "eval", snapshot, "--boxes", boxes, "--label", 5)
        assert code == 2
        assert "label 5" in err


class TestExport:
    def test_empty_segment_yields_empty_ply(self, tmp_path, capsys):
        snapshot = tmp_path / "empty.lgrid"
        save_grid(snapshot, LabelOccupancyGrid(0.005, 4))
        ply = tmp_path / "out.ply"
        code, _, _ = run_cli(capsys, "export", snapshot, "--label", 1, "--out", ply)
        assert code == 0
        assert "element vertex 0" in ply.read_text()

    def test_single_voxel_vertex_at_center(self, tmp_path, capsys):
        grid = LabelOccupancyGrid(1.0, 4)
        grid.update_voxel((0, 0, 0), 2, 0.9)
        snapshot = tmp_path / "one.lgrid"
        save_grid(snapshot, grid)
        ply = tmp_path / "out.ply"
        code, _, _ = run_cli(capsys, "export", snapshot, "--label", 2, "--out", ply)
        assert code == 0
        lines = ply.read_text().splitlines()
        assert lines[2] == "element vertex 1"
        x, y, z, p = (float(v) for v in lines[-1].split())
        assert (x, y, z) == (0.5, 0.5, 0.5)
        assert p == pytest.approx(0.9, abs=1e-6)

    def test_vertex_count_equals_segment_size(self, tmp_path, capsys):
        rng = np.random.default_rng(15)
        grid = LabelOccupancyGrid(0.5, 3)
        for _ in range(100):
            grid.update_voxel(tuple(rng.integers(0, 5, size=3)),
                              int(rng.integers(0, 3)),
                              float(rng.uniform(0.2, 0.9)))
        snapshot = tmp_path / "g.lgrid"
        save_grid(snapshot, grid)
        loaded = load_grid(snapshot)
        ply = tmp_path / "out.ply"
        code, _, _ = run_cli(capsys, "export", snapshot, "--label", 1, "--out", ply)
        assert code == 0
        header = ply.read_text().splitlines()[2]
        assert header == f"element vertex {len(loaded.segment(1))}"

    def test_vertices_match_per_voxel_probabilities(self, tmp_path, capsys):
        rng = np.random.default_rng(16)
        grid = LabelOccupancyGrid(0.25, 3)
        for _ in range(300):
            grid.update_voxel(tuple(rng.integers(-4, 4, size=3)), int(rng.integers(0, 3)),
                              float(rng.uniform(0.05, 0.95)))
        snapshot = tmp_path / "g.lgrid"
        save_grid(snapshot, grid)
        loaded = load_grid(snapshot)
        ply = tmp_path / "out.ply"
        code, _, _ = run_cli(capsys, "export", snapshot, "--label", 2,
                             "--threshold", 0.4, "--out", ply)
        assert code == 0
        expected = []
        for key in unpack_codes(loaded.codes).tolist():
            p = loaded.voxel_probability(key, 2)
            if p > 0.4:
                x, y, z = voxel_center(key, loaded.resolution)
                expected.append(f"{float(x)!r} {float(y)!r} {float(z)!r} {p!r}")
        assert expected
        assert ply.read_text().splitlines()[8:] == expected

    @pytest.mark.parametrize("threshold", ["nan", "inf", "1.5", "-0.1"])
    def test_threshold_outside_the_unit_interval_exits_2(self, tmp_path, capsys, threshold):
        grid = LabelOccupancyGrid(1.0, 4)
        grid.update_voxel((0, 0, 0), 1, 0.9)
        snapshot = tmp_path / "one.lgrid"
        save_grid(snapshot, grid)
        ply = tmp_path / "out.ply"
        code, out, err = run_cli(capsys, "export", snapshot, "--label", 1,
                                 "--threshold", threshold, "--out", ply)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --threshold must lie in [0, 1]")
        assert not ply.exists()


def modules_after(statements: str, package: str, env: dict | None = None) -> list[str]:
    """The modules of ``package`` loaded after running ``statements`` in a
    fresh interpreter, sorted; ``env`` replaces the child's environment."""
    src = str(Path(labelgrid.__file__).parents[1])
    code = (f"import json, sys; sys.path.insert(0, {src!r}); {statements}; "
            f"print(json.dumps(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r})))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def env_with_blas_threads(value: str | None) -> dict:
    """This environment with ``OPENBLAS_NUM_THREADS`` set to ``value``, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return env if value is None else {**env, "OPENBLAS_NUM_THREADS": value}


def test_importing_the_package_leaves_numpy_unloaded():
    """The root names load lazily, so ``python -m labelgrid.cli`` reaches the
    thread default in cli.py before anything imports numpy."""
    assert modules_after("import labelgrid", "numpy") == []
    assert modules_after("import labelgrid", "labelgrid") == ["labelgrid"]


def test_root_names_are_the_objects_of_their_modules():
    modules = ("fusion", "geometry", "grid", "metrics", "registration")
    statements = (
        "import importlib, labelgrid; "
        f"mods = [importlib.import_module('labelgrid.' + m) for m in {modules!r}]; "
        "found = {n: [getattr(m, n) for m in mods if hasattr(m, n)] for n in labelgrid.__all__}; "
        "assert all(len(v) >= 1 and all(getattr(labelgrid, n) is o for o in v) "
        "for n, v in found.items()), found; "
        "ns = {}; exec('from labelgrid import *', ns); "
        "assert set(ns) - {'__builtins__'} == set(labelgrid.__all__)")
    modules_after(statements, "labelgrid")


def test_dir_lists_every_root_name():
    names = dir(labelgrid)
    assert names == sorted(names) and set(labelgrid.__all__) <= set(names)


def readme_block(after: str, language: str) -> str:
    """The first fenced ``language`` block of README.md after the line ``after``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rest = text[text.index(after):]
    start = rest.index(f"```{language}\n") + len(language) + 4
    return rest[start:rest.index("```\n", start)]


def test_readme_library_example_runs_and_finds_the_box():
    namespace = {}
    exec(readme_block("## Library use", "python"), namespace)
    assert namespace["stats"].frames_fused > 0
    assert namespace["report"].iou > 0
    # the example and the scene JSON both use the canonical target box
    assert namespace["scene"].objects == [(TARGET_LABEL, TARGET_BOX)]
    scene = json.loads(readme_block("A scene file lists", "json"))
    assert fileio.labeled_box_from_json(scene["objects"][0]) == (TARGET_LABEL, TARGET_BOX)


def test_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        labelgrid.no_such_name
    modules_after("import labelgrid; assert not hasattr(labelgrid, 'no_such_name')",
                  "labelgrid")


def test_submodules_import_from_the_package_root():
    loaded = modules_after("from labelgrid import simulator, fileio; "
                           "assert simulator.Scene and fileio.load_grid", "labelgrid")
    assert {"labelgrid.simulator", "labelgrid.fileio"} <= set(loaded)


def test_cli_defaults_openblas_to_one_thread():
    """Importing numpy with OpenBLAS's default starts a worker thread the CLI
    never uses; the CLI sets the variable before numpy loads."""
    statements = "import os, labelgrid.cli; assert os.environ['OPENBLAS_NUM_THREADS'] == '1'"
    modules_after(statements, "labelgrid", env=env_with_blas_threads(None))
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads")
    modules_after(statements + "; assert len(os.listdir('/proc/self/task')) == 1",
                  "labelgrid", env=env_with_blas_threads(None))


def test_cli_keeps_a_user_set_blas_thread_count():
    statements = "import os, labelgrid.cli; assert os.environ['OPENBLAS_NUM_THREADS'] == '2'"
    modules_after(statements, "labelgrid", env=env_with_blas_threads("2"))


def test_cli_leaves_the_environment_alone_after_numpy_loaded():
    """A program that imported numpy first already has its thread pool."""
    statements = ("import os, numpy, labelgrid.cli; "
                  "assert 'OPENBLAS_NUM_THREADS' not in os.environ")
    modules_after(statements, "labelgrid", env=env_with_blas_threads(None))


def test_cli_freezes_its_import_time_heap():
    """The collector's passes at exit skip the objects the imports left."""
    modules_after("import labelgrid.cli, gc; assert gc.get_freeze_count() > 0", "labelgrid")


def test_cli_leaves_the_collector_alone_after_numpy_loaded():
    """A program that imported numpy first keeps its collector as it is."""
    modules_after("import numpy, labelgrid.cli, gc; assert gc.get_freeze_count() == 0",
                  "labelgrid")


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy is a test-only dependency: the runtime needs numpy alone, and
    importing it would cost every command about half a second."""
    assert modules_after("import labelgrid.cli", "scipy") == []


def test_importing_the_cli_leaves_the_simulator_unloaded():
    """Only ``simulate`` renders: fuse, eval and export never import the renderer."""
    loaded = modules_after("import labelgrid.cli", "labelgrid")
    assert "labelgrid.cli" in loaded
    assert "labelgrid.simulator" not in loaded


def test_simulating_moving_frames_leaves_scipy_unloaded(tmp_path):
    """Moving frames are interpolated by the numpy slerp in geometry."""
    paths = write_cli_inputs(tmp_path, transition_frames=2)
    argv = ["simulate", "--scene", str(paths["scene"]),
            "--trajectory", str(paths["trajectory"]), "--out", str(tmp_path / "stream")]
    assert modules_after(
        f"from labelgrid.cli import main; assert main({argv!r}) == 0", "scipy") == []
    assert len(read_manifest(tmp_path / "stream" / "manifest.json")) == 22


def test_internal_key_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    """Input errors are ValueErrors naming the file and field; a KeyError is
    a bug and must surface as one, not exit 2 as "missing required field"."""
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr("labelgrid.cli.cmd_export", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["export", str(tmp_path / "g.lgrid"), "--label", "1",
              "--out", str(tmp_path / "out.ply")])
