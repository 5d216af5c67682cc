"""Command-line entry point: simulate | fuse | eval | export."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import shutil
import sys
from pathlib import Path

# On a multi-core machine, importing numpy starts an OpenBLAS worker
# thread that labelgrid never uses: its only BLAS calls are (N, 3) @ (3, 3)
# rotations and 3x3 products. On a 2-core VM the thread cost every command
# 70-90 ms of CPU (a child ``import labelgrid.cli`` took 0.28 s, against
# 0.19 s single-threaded, medians of 30). The default must be set before
# numpy loads, so it comes before the imports below; a value the user set
# is kept, and a program that imported numpy first keeps its threads.
_STARTS_THE_PROCESS = "numpy" not in sys.modules
if _STARTS_THE_PROCESS:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import fileio
from .fusion import DEFAULT_P_MIN, GateConfig, fuse_stream
from .geometry import Box3
from .grid import DEFAULT_CLAMP, LabelOccupancyGrid, probability, unpack_codes, voxel_center
from .metrics import iou_3d

# The imports leave about 22,000 objects for the cyclic collector to track,
# none of them garbage, and interpreter exit walks them in several full
# passes: a child that imported the CLI took 28 ms to exit, against 9 ms
# with those objects frozen out of the collector's generations (medians of
# 20 on a 2-core VM). A program that imported numpy first keeps its
# collector as it is.
if _STARTS_THE_PROCESS:
    gc.freeze()


def _parse_roi(text: str) -> Box3:
    """The ``--roi`` box; a ``ValueError`` names the flag."""
    try:
        parts = [float(v) for v in text.split(",")]
        if len(parts) != 6:
            raise ValueError("expects 6 comma-separated numbers: x0,y0,z0,x1,y1,z1")
        return Box3(tuple(parts[:3]), tuple(parts[3:]))
    except ValueError as exc:
        raise ValueError(f"--roi: {exc}") from None


def cmd_simulate(args) -> int:
    # only this command needs the renderer, so the others never import it
    from .simulator import NoiseModel, load_scene, load_trajectory, simulate

    scene = load_scene(args.scene)
    trajectory, intrinsics = load_trajectory(args.trajectory)
    noise = NoiseModel(confidence=args.confidence, flip_rate=args.flip_rate, seed=args.seed)
    manifest = simulate(scene, trajectory, intrinsics, noise, args.out,
                        num_labels=args.num_labels)
    print(manifest)
    return 0


def cmd_fuse(args) -> int:
    # every record is checked here; images are read only for fused frames
    records = fileio.read_frame_records(args.manifest)
    roi = _parse_roi(args.roi) if args.roi else None
    grid = LabelOccupancyGrid(args.resolution, args.num_labels, clamp=args.clamp, roi=roi)
    gate = GateConfig(args.linear_eps, args.angular_eps, args.settle_frames)

    on_frame, written, made = None, [], False
    if args.per_frame_snapshots:
        snap_dir = Path(args.per_frame_snapshots)
        # eval reads every .lgrid in the directory, so it holds one run's curve
        out = Path(args.out)
        if out.match("*.lgrid") and out.parent.resolve() == snap_dir.resolve():
            raise ValueError(f"--out: {out} lies in the --per-frame-snapshots directory "
                             f"{snap_dir}, where eval would read it as a frame of the curve")
        if any(snap_dir.glob("*.lgrid")):
            raise ValueError(f"--per-frame-snapshots: {snap_dir} already holds .lgrid files")
        made = not snap_dir.exists()
        snap_dir.mkdir(parents=True, exist_ok=True)
        # one width per run, so that eval's name order is frame order
        digits = max(4, len(str(len(records) - 1)))

        def on_frame(index, item, fused):
            # a gated frame leaves the grid as it was: link the last snapshot,
            # or copy it where the file system refuses the link (EPERM) or
            # the inode is at its link limit (EMLINK)
            path = snap_dir / f"frame_{index:0{digits}d}.lgrid"
            written.append(path)
            if fused or index == 0:
                fileio.save_grid(path, grid)
                return
            try:
                os.link(written[-2], path)
            except OSError:
                shutil.copyfile(written[-2], path)

    try:
        stats = fuse_stream(grid, records, gate, p_min=args.p_min, on_frame=on_frame)
        fileio.save_grid(args.out, grid)
    except BaseException:
        # a failed run leaves no partial curve, nor the empty directory it made (its parents stay)
        for path in written:
            path.unlink(missing_ok=True)
        if made:
            with contextlib.suppress(OSError):
                snap_dir.rmdir()
        raise
    config = {"resolution": grid.resolution, "num_labels": grid.num_labels,
              "clamp": grid.clamp, "p_min": args.p_min, **dataclasses.asdict(gate),
              "roi": None if roi is None else list(roi.min + roi.max)}
    print(json.dumps({
        "config": config,
        "stats": dataclasses.asdict(stats),
        "cells": len(grid),
        # registration drops every voxel outside the roi, so the grid
        # discards nothing; the key stays because perfbench/run.py checks it
        # against perfbench/reference.json
        "updates_discarded": 0,
    }, indent=2))
    return 0


def _evaluate(grid: LabelOccupancyGrid, label: int, box: Box3) -> dict:
    segment = grid.segment(label)
    report = iou_3d(segment, grid.resolution, box)
    centroid = grid.centroid(label)
    return {
        "label": label,
        **dataclasses.asdict(report),
        "centroid": None if centroid is None else [float(c) for c in centroid],
        "voxel_count": len(segment),
    }


def cmd_eval(args) -> int:
    boxes = fileio.load_gt_boxes(args.boxes)
    if args.label is not None:
        boxes = [(label, box) for label, box in boxes if label == args.label]
        if not boxes:
            raise ValueError(f"no ground-truth box with label {args.label}")
    snapshot = Path(args.snapshot)

    if snapshot.is_dir():
        paths = sorted(snapshot.glob("*.lgrid"))
        if not paths:
            raise ValueError(f"{snapshot}: no .lgrid snapshots found")
        lines = ["snapshot,label,iou,v_tp,v_fp,v_fn,voxel_count"]
        previous, previous_inode, rows = None, None, []
        for path in paths:
            # a gated frame's snapshot repeats the one before it, as a link
            # to the same inode or as a copy; only a change from the previous
            # file's bytes is parsed and scored, and a link is not even read
            info = path.stat()
            inode = (info.st_dev, info.st_ino)
            if inode != previous_inode:
                raw = path.read_bytes()
                if raw != previous:
                    grid = fileio.grid_from_file_bytes(path, raw)
                    rows = [_evaluate(grid, label, box) for label, box in boxes]
                    previous = raw
                previous_inode = inode
            for row in rows:
                lines.append(f"{path.name},{row['label']},{row['iou']!r},{row['v_tp']!r},"
                             f"{row['v_fp']!r},{row['v_fn']!r},{row['voxel_count']}")
        text = "\n".join(lines) + "\n"
    else:
        grid = fileio.load_grid(snapshot)
        reports = [_evaluate(grid, label, box) for label, box in boxes]
        payload = reports[0] if args.label is not None and len(reports) == 1 else reports
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_export(args) -> int:
    # written so that a NaN, which fails every comparison, is rejected
    if not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"--threshold must lie in [0, 1], got {args.threshold}")
    grid = fileio.load_grid(args.snapshot)
    # the scalar sigmoid keeps the printed probabilities bit-exact
    probs = np.array([probability(v) for v in grid.label_log_odds(args.label).tolist()])
    keep = probs > args.threshold
    points = voxel_center(unpack_codes(grid.codes[keep]), grid.resolution)
    fileio.write_ply(args.out, points, probs[keep])
    print(f"wrote {np.count_nonzero(keep)} vertices to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelgrid",
        description="Fuse multi-view label probability images into a sparse "
                    "3D label occupancy grid and evaluate the segmentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic scene to a frame stream")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--trajectory", required=True, help="trajectory JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--confidence", type=float, default=0.8,
                   help="probability assigned to the top label")
    p.add_argument("--flip-rate", type=float, default=0.05,
                   help="chance a pixel's top label is replaced by a wrong one")
    p.add_argument("--num-labels", type=int, default=40)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse a frame stream into a grid snapshot")
    p.add_argument("manifest", help="frame stream manifest JSON")
    p.add_argument("--out", required=True, help="LGRID1 snapshot output path")
    p.add_argument("--per-frame-snapshots", help="directory for one snapshot per processed frame")
    p.add_argument("--resolution", type=float, default=0.005, help="voxel edge in meters")
    p.add_argument("--num-labels", type=int, default=40,
                   help="total classes including background")
    p.add_argument("--clamp", type=float, default=DEFAULT_CLAMP, help="log-odds saturation bound")
    p.add_argument("--p-min", type=float, default=DEFAULT_P_MIN,
                   help="measurement probability clamp before the logit")
    p.add_argument("--linear-eps", type=float, default=GateConfig.linear_eps,
                   help="stationary linear velocity threshold (m/s)")
    p.add_argument("--angular-eps", type=float, default=GateConfig.angular_eps,
                   help="stationary angular velocity threshold (rad/s)")
    p.add_argument("--settle-frames", type=int, default=GateConfig.settle_frames,
                   help="consecutive still frames required before fusing")
    p.add_argument("--roi", help="bin-interior clip box: x0,y0,z0,x1,y1,z1")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="score a snapshot against ground-truth boxes")
    p.add_argument("snapshot", help="LGRID1 file, or a directory of them for a CSV curve")
    p.add_argument("--boxes", required=True, help="ground-truth boxes JSON")
    p.add_argument("--label", type=int, help="restrict to one label")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="export a segment as an ASCII PLY point cloud")
    p.add_argument("snapshot", help="LGRID1 file")
    p.add_argument("--label", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.5,
                   help="keep voxels with probability strictly above this")
    p.add_argument("--out", required=True, help="PLY output path")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
