"""Binary and JSON interchange formats.

Depth images are 16-bit big-endian PGM (P5, maxval 65535) holding
millimeters, 0 meaning no return. Probability images use the PROBIMG1
raw format: an ASCII header line ``PROBIMG1 <H> <W> <C>`` followed by
little-endian float32 values in row-major, channel-fastest order. Grid
snapshots use the LGRID1 binary layout with cells sorted by key so equal
grids serialize to equal bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import Box3, Pose
from .grid import LabelOccupancyGrid, pack_keys, unpack_codes
from .registration import CameraIntrinsics, SensorFrame

LGRID_MAGIC = b"LGRID1\n"
PROBIMG_MAGIC = b"PROBIMG1"


# --- depth images (PGM P5, millimeters) ---------------------------------

def quantize_depth_mm(depth_m) -> np.ndarray:
    """Quantize a metric depth image to uint16 millimeters; invalid -> 0."""
    d = np.asarray(depth_m, dtype=float)
    mm = np.rint(np.where(np.isfinite(d) & (d > 0), d, 0.0) * 1000.0)
    if (mm > 65535).any():
        raise ValueError("depth exceeds the 65.535 m PGM range")
    return mm.astype(np.uint16)


def write_depth_pgm(path, depth_m) -> None:
    mm = quantize_depth_mm(depth_m)
    if mm.ndim != 2:
        raise ValueError(f"depth image must be 2-D, got shape {mm.shape}")
    height, width = mm.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + mm.astype(">u2").tobytes())


def read_depth_pgm(path) -> np.ndarray:
    """Read a 16-bit PGM depth image back to meters (0 stays 0 = invalid)."""
    raw = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace byte separating header and raster
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval != 65535:
        raise ValueError(f"{path}: expected maxval 65535, got {maxval}")
    expected = width * height * 2
    data = raw[pos:pos + expected]
    if len(data) != expected:
        raise ValueError(f"{path}: raster has {len(data)} bytes, expected {expected}")
    mm = np.frombuffer(data, dtype=">u2").reshape(height, width)
    return mm.astype(float) / 1000.0


# --- probability / logit images (PROBIMG1) ------------------------------

def write_probimg(path, values) -> None:
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"channel image must be (H, W, C), got shape {arr.shape}")
    h, w, c = arr.shape
    header = f"PROBIMG1 {h} {w} {c}\n".encode("ascii")
    Path(path).write_bytes(header + np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_probimg(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: missing PROBIMG1 header line")
    fields = raw[:newline].split()
    if len(fields) != 4 or fields[0] != PROBIMG_MAGIC:
        raise ValueError(f"{path}: malformed PROBIMG1 header {raw[:newline]!r}")
    h, w, c = (int(f) for f in fields[1:])
    data = raw[newline + 1:]
    expected = h * w * c * 4
    if len(data) != expected:
        raise ValueError(f"{path}: payload has {len(data)} bytes, expected {expected}")
    return np.frombuffer(data, dtype="<f4").reshape(h, w, c).astype(float)


# --- grid snapshots (LGRID1) ---------------------------------------------

def _lgrid_cell_dtype(num_labels: int) -> np.dtype:
    """One LGRID1 cell: the voxel key as 3 x i32, then one f32 log-odds per label."""
    return np.dtype([("key", "<i4", (3,)), ("log_odds", "<f4", (num_labels,))])


def grid_to_bytes(grid: LabelOccupancyGrid) -> bytes:
    parts = [LGRID_MAGIC, struct.pack("<dId", grid.resolution, grid.num_labels, grid.clamp)]
    if grid.roi is not None:
        parts.append(struct.pack("<B", 1))
        parts.append(struct.pack("<6d", *grid.roi.min, *grid.roi.max))
    else:
        parts.append(struct.pack("<B", 0))
    parts.append(struct.pack("<Q", len(grid)))
    # code order is key order, and every key fits in 21 bits, so in int32
    cells = np.empty(len(grid), dtype=_lgrid_cell_dtype(grid.num_labels))
    cells["key"] = unpack_codes(grid.codes)
    cells["log_odds"] = grid.log_odds_matrix
    parts.append(cells.tobytes())
    return b"".join(parts)


def save_grid(path, grid: LabelOccupancyGrid) -> None:
    Path(path).write_bytes(grid_to_bytes(grid))


def grid_from_bytes(raw: bytes) -> LabelOccupancyGrid:
    if raw[:len(LGRID_MAGIC)] != LGRID_MAGIC:
        raise ValueError(f"not an LGRID1 snapshot (magic {raw[:7]!r})")
    pos = len(LGRID_MAGIC)

    def unpack(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(raw):
            raise ValueError("truncated LGRID1 snapshot")
        out = struct.unpack_from(fmt, raw, pos)
        pos += size
        return out

    resolution, num_labels, clamp = unpack("<dId")
    (roi_present,) = unpack("<B")
    roi: Optional[Box3] = None
    if roi_present:
        coords = unpack("<6d")
        roi = Box3(coords[:3], coords[3:])
    (count,) = unpack("<Q")
    grid = LabelOccupancyGrid(resolution, num_labels, clamp=clamp, roi=roi)
    # Python ints: a huge count fails here, before anything is allocated
    payload = count * (12 + 4 * num_labels)
    if pos + payload > len(raw):
        raise ValueError("truncated LGRID1 snapshot")
    if pos + payload != len(raw):
        raise ValueError(f"{len(raw) - pos - payload} trailing bytes after LGRID1 payload")
    if count:
        cells = np.frombuffer(raw, dtype=_lgrid_cell_dtype(num_labels), count=count, offset=pos)
        grid.set_cells(pack_keys(cells["key"]), cells["log_odds"])
    return grid


def load_grid(path) -> LabelOccupancyGrid:
    return grid_from_bytes(Path(path).read_bytes())


# --- JSON records ---------------------------------------------------------

def load_json(path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e


def pose_record(pose: Pose, intrinsics: CameraIntrinsics, timestamp: float) -> dict:
    """Per-frame pose + intrinsics JSON object."""
    return {
        "timestamp": float(timestamp),
        "fx": intrinsics.fx, "fy": intrinsics.fy,
        "cx": intrinsics.cx, "cy": intrinsics.cy,
        "width": intrinsics.width, "height": intrinsics.height,
        "rotation": [float(v) for v in pose.rotation.ravel()],
        "translation": [float(v) for v in pose.translation],
    }


def parse_pose_record(obj: dict) -> tuple[Pose, CameraIntrinsics, float]:
    intr = CameraIntrinsics(fx=float(obj["fx"]), fy=float(obj["fy"]),
                            cx=float(obj["cx"]), cy=float(obj["cy"]),
                            width=int(obj["width"]), height=int(obj["height"]))
    rotation = np.asarray(obj["rotation"], dtype=float).reshape(3, 3)
    pose = Pose(rotation, np.asarray(obj["translation"], dtype=float))
    return pose, intr, float(obj["timestamp"])


def write_manifest(path, records: list[dict]) -> None:
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def read_manifest(path) -> list[dict]:
    records = load_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: manifest must be a JSON array")
    return records


def load_frame(record: dict, base_dir) -> SensorFrame:
    """Materialize one manifest record into a SensorFrame."""
    base = Path(base_dir)
    pose, intr, timestamp = parse_pose_record(record["pose"])
    depth = read_depth_pgm(base / record["depth_file"])
    if "proba_file" in record:
        return SensorFrame(timestamp=timestamp, depth=depth, pose=pose,
                           intrinsics=intr, proba=read_probimg(base / record["proba_file"]))
    if "logits_file" in record:
        return SensorFrame(timestamp=timestamp, depth=depth, pose=pose,
                           intrinsics=intr, logits=read_probimg(base / record["logits_file"]))
    raise ValueError("manifest record needs a proba_file or logits_file")


def box_from_json(obj: dict) -> Box3:
    return Box3(tuple(obj["min"]), tuple(obj["max"]))


def load_gt_boxes(path) -> list[tuple[int, Box3]]:
    """Ground-truth boxes: JSON array of {label, min, max}."""
    entries = load_json(path)
    if not isinstance(entries, list):
        raise ValueError(f"{path}: ground-truth file must be a JSON array")
    return [(int(e["label"]), box_from_json(e)) for e in entries]


# --- PLY export ------------------------------------------------------------

def write_ply(path, points, probabilities) -> None:
    """ASCII PLY point cloud with a per-vertex probability attribute."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    probs = np.asarray(probabilities, dtype=float).reshape(-1)
    if pts.shape[0] != probs.shape[0]:
        raise ValueError("points and probabilities must have matching lengths")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {pts.shape[0]}",
        "property float x",
        "property float y",
        "property float z",
        "property float probability",
        "end_header",
    ]
    for (x, y, z), p in zip(pts, probs):
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r} {float(p)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
