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
import os
import re
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Box3, Pose
from .grid import LabelOccupancyGrid, pack_keys, unpack_codes
from .registration import CameraIntrinsics, FileImage, SensorFrame

LGRID_MAGIC = b"LGRID1\n"
# magic, resolution, label count, clamp, roi flag; then :func:`_lgrid_tail`
_LGRID_HEAD = struct.Struct("<7sdIdB")
PROBIMG_MAGIC = b"PROBIMG1"
# header line bound in bytes; the longest valid one with single spaces is 66
_PROBIMG_HEADER_MAX = 1024
# magic, width, height and maxval, separated by whitespace and "#" comments that run
# through a line end, then the one whitespace byte before the raster
_PGM_GAP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PGM_HEADER = re.compile(rb"\s*([^\s#]+)%b([^\s#]+)%b([^\s#]+)%b(\S+)\s?" % ((_PGM_GAP,) * 3))


# --- depth images (PGM P5, millimeters) ---------------------------------

def quantize_depth_mm(depth_m) -> np.ndarray:
    """Quantize a metric depth image to uint16 millimeters; invalid -> 0."""
    d = np.asarray(depth_m, dtype=float)
    mm = np.rint(np.where(np.isfinite(d) & (d > 0), d, 0.0) * 1000.0)
    if (mm > 65535).any():
        raise ValueError("depth exceeds the 65.535 m PGM range")
    return mm.astype(np.uint16)


def _check_sizes(path, names: tuple, shape: tuple) -> None:
    """Refuse to write an image with a zero size, which its reader rejects."""
    for name, size in zip(names, shape):
        if size == 0:
            raise ValueError(f"{path}: cannot write an image with {name} 0 (shape {shape})")


def write_depth_pgm(path, depth_m) -> None:
    mm = quantize_depth_mm(depth_m)
    if mm.ndim != 2:
        raise ValueError(f"depth image must be 2-D, got shape {mm.shape}")
    _check_sizes(path, ("height", "width"), mm.shape)
    height, width = mm.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + mm.astype(">u2").tobytes())


def _header_size(path, name: str, token: bytes) -> int:
    """A positive decimal size field of an image header, or ``ValueError``
    naming the file and the field."""
    # ASCII digits only: int() would also take a sign, spaces and underscores
    if not (token.isdigit() and len(token) <= 18 and int(token) > 0):
        raise ValueError(f"{path}: {name} must be a positive integer below 10**18, "
                         f"got {token[:40]!r}")
    return int(token)


def read_depth_pgm(path) -> np.ndarray:
    """Read a 16-bit PGM depth image back to meters (0 stays 0 = invalid)."""
    raw = Path(path).read_bytes()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: truncated PGM header")
    magic, *sizes = header.groups()
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    width, height, maxval = (_header_size(path, name, token)
                             for name, token in zip(("width", "height", "maxval"), sizes))
    if maxval != 65535:
        raise ValueError(f"{path}: expected maxval 65535, got {maxval}")
    expected = width * height * 2
    data = raw[header.end():header.end() + expected]
    if len(data) != expected:
        raise ValueError(f"{path}: raster has {len(data)} bytes, expected {expected}")
    mm = np.frombuffer(data, dtype=">u2").reshape(height, width)
    return np.divide(mm, 1000.0)


# --- probability / logit images (PROBIMG1) ------------------------------

def write_probimg(path, values) -> None:
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"channel image must be (H, W, C), got shape {arr.shape}")
    _check_sizes(path, ("height", "width", "channels"), arr.shape)
    h, w, c = arr.shape
    with Path(path).open("wb") as f:
        f.write(f"PROBIMG1 {h} {w} {c}\n".encode("ascii"))
        f.write(np.ascontiguousarray(arr, dtype="<f4"))


def read_probimg(path, scores: bool = False) -> FileImage:
    """A PROBIMG1 image as an ``(H, W, C)`` :class:`~labelgrid.registration.FileImage`, or with
    ``scores`` its per-pixel softmax; only the header is read, and ``np.asarray`` reads the rest."""
    with open(path, "rb") as f:
        line = f.readline(_PROBIMG_HEADER_MAX)
        if not line.endswith(b"\n"):
            raise ValueError(f"{path}: missing PROBIMG1 header line")
        fields = line.split()
        if len(fields) != 4 or fields[0] != PROBIMG_MAGIC:
            raise ValueError(f"{path}: malformed PROBIMG1 header {line[:-1]!r}")
        h, w, c = (_header_size(path, name, field)
                   for name, field in zip(("height", "width", "channels"), fields[1:]))
        size, expected = os.fstat(f.fileno()).st_size - len(line), h * w * c * 4
        if size != expected:
            raise ValueError(f"{path}: payload has {size} bytes, expected {expected}")
        return FileImage(path, os.dup(f.fileno()), len(line), (h, w, c), scores)


# --- grid snapshots (LGRID1) ---------------------------------------------

def _lgrid_cell_dtype(num_labels: int) -> np.dtype:
    """One LGRID1 cell: the voxel key as 3 x i32, then one f32 log-odds per label."""
    # numpy sizes a structured dtype in a C int
    if 12 + 4 * num_labels > 2 ** 31 - 1:
        raise ValueError(f"an LGRID1 cell of {num_labels} labels exceeds 2 GiB")
    return np.dtype([("key", "<i4", (3,)), ("log_odds", "<f4", (num_labels,))])


def _lgrid_tail(roi_flag: int) -> struct.Struct:
    """The header part after ``_LGRID_HEAD``: the six roi coordinates
    when the flag is 1, then the u64 cell count."""
    return struct.Struct(f"<{6 * roi_flag}dQ")


def _lgrid_parts(grid: LabelOccupancyGrid) -> tuple[bytes, np.ndarray]:
    """The LGRID1 header and cell array of ``grid``."""
    roi = () if grid.roi is None else (*grid.roi.min, *grid.roi.max)
    flag = int(grid.roi is not None)
    header = (_LGRID_HEAD.pack(LGRID_MAGIC, grid.resolution, grid.num_labels, grid.clamp, flag)
              + _lgrid_tail(flag).pack(*roi, len(grid)))
    # code order is key order, and every key fits in 21 bits, so in int32
    cells = np.empty(len(grid), dtype=_lgrid_cell_dtype(grid.num_labels))
    cells["key"] = unpack_codes(grid.codes)
    # a value beyond the float32 range would be written as inf, which the reader rejects
    with np.errstate(over="raise"):
        try:
            cells["log_odds"] = grid.log_odds_matrix
        except FloatingPointError:
            raise ValueError("a log-odds value exceeds the float32 range of LGRID1") from None
    return header, cells


def grid_to_bytes(grid: LabelOccupancyGrid) -> bytes:
    return b"".join(_lgrid_parts(grid))


def save_grid(path, grid: LabelOccupancyGrid) -> None:
    """Write an LGRID1 snapshot; a ``ValueError`` names the file and leaves
    no file behind.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``: other hard links to an old ``path`` keep their
    bytes, and a failed write leaves the old file whole.
    """
    header, cells = _nested(str(path), _lgrid_parts, grid)
    path = Path(path)
    # not *.lgrid, so that eval never reads a half-written snapshot
    temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        f = open(temporary, "xb")
    except OSError as exc:
        # name the snapshot, as opening it in place did
        exc.filename = str(path)
        raise
    try:
        with f:
            f.write(header)
            f.write(cells)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def _check_cells(log_odds: np.ndarray, clamp: float) -> None:
    """Every float32 cell finite and within +-float32(clamp).

    Cells are written as float32 of values clamped in float64, so the
    bound is compared in float32: a float64 one would reject a clamp such
    as 0.1 that rounds up in float32.
    """
    bound = np.float32(min(clamp, float(np.finfo(np.float32).max)))
    # one comparison: NaN fails it, and +-inf fails it because the bound is finite
    ok = np.abs(log_odds) <= bound
    if not ok.all():
        cell, label = np.unravel_index(np.argmin(ok), ok.shape)
        value = log_odds[cell, label]
        problem = "is not finite" if not np.isfinite(value) else f"exceeds the clamp {clamp}"
        raise ValueError(f"cell {cell} label {label}: log-odds {value!s} {problem}")


def grid_from_bytes(raw: bytes) -> LabelOccupancyGrid:
    if raw[:len(LGRID_MAGIC)] != LGRID_MAGIC:
        raise ValueError(f"not an LGRID1 snapshot (magic {raw[:7]!r})")
    if len(raw) < _LGRID_HEAD.size:
        raise ValueError("truncated LGRID1 snapshot")
    _, resolution, num_labels, clamp, roi_flag = _LGRID_HEAD.unpack_from(raw)
    if roi_flag not in (0, 1):
        raise ValueError(f"roi flag must be 0 or 1, got {roi_flag}")
    tail = _lgrid_tail(roi_flag)
    pos = _LGRID_HEAD.size + tail.size
    if len(raw) < pos:
        raise ValueError("truncated LGRID1 snapshot")
    *coords, count = tail.unpack_from(raw, _LGRID_HEAD.size)
    roi = Box3(coords[:3], coords[3:]) if roi_flag else None
    grid = LabelOccupancyGrid(resolution, num_labels, clamp=clamp, roi=roi)
    cell_dtype = _lgrid_cell_dtype(num_labels)
    # Python ints: a huge count fails here, before anything is allocated
    payload = count * cell_dtype.itemsize
    if pos + payload > len(raw):
        raise ValueError("truncated LGRID1 snapshot")
    if pos + payload != len(raw):
        raise ValueError(f"{len(raw) - pos - payload} trailing bytes after LGRID1 payload")
    cells = np.frombuffer(raw, dtype=cell_dtype, count=count, offset=pos)
    _check_cells(cells["log_odds"], clamp)
    grid.set_cells(pack_keys(cells["key"]), cells["log_odds"])
    return grid


def grid_from_file_bytes(path, raw: bytes) -> LabelOccupancyGrid:
    """:func:`grid_from_bytes` of the bytes read from ``path``; a
    ``ValueError`` names the file."""
    return _nested(str(path), grid_from_bytes, raw)


def load_grid(path) -> LabelOccupancyGrid:
    """Read an LGRID1 snapshot; a ``ValueError`` names the file."""
    return grid_from_file_bytes(path, Path(path).read_bytes())


# --- JSON records ---------------------------------------------------------

def load_json(path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e


def parse_json_file(path, parse):
    """``parse`` of a JSON file's value; a ``ValueError`` it raises names the file."""
    return _nested(str(path), parse, load_json(path))


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


def _is_number(value) -> bool:
    """Whether a JSON value is a number, not a bool, and finite as a float64."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"must be a JSON object, got {value!r}")
    return value


def _nested(where: str, parse, value):
    """``parse(value)``, with the message of a ``ValueError`` prefixed by ``where``."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _list(obj: dict, name: str, parse) -> list:
    """``parse`` of every entry of the list field ``name``; an error names the entry."""
    value = _field(obj, name)
    if not isinstance(value, list):
        raise ValueError(f"field {name!r} must be a list, got {value!r}")
    return [_nested(f"{name}[{i}]", parse, item) for i, item in enumerate(value)]


def _field(obj: dict, name: str):
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    return obj[name]


def _number(obj: dict, name: str) -> float:
    value = _field(obj, name)
    if not _is_number(value):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def _integer(obj: dict, name: str) -> int:
    value = _number(obj, name)
    if not value.is_integer():
        raise ValueError(f"field {name!r} must be an integer, got {obj[name]!r}")
    return int(value)


def _numbers(obj: dict, name: str, count: int) -> np.ndarray:
    value = _field(obj, name)
    if not (isinstance(value, list) and len(value) == count and all(map(_is_number, value))):
        raise ValueError(f"field {name!r} must be a list of {count} numbers, got {value!r}")
    return np.array(value, dtype=float)


def intrinsics_from_json(obj: dict) -> CameraIntrinsics:
    """``{fx, fy, cx, cy, width, height}`` as camera intrinsics.

    A missing field or one of the wrong JSON type raises ``ValueError``
    naming the field.
    """
    _object(obj)
    return CameraIntrinsics(fx=_number(obj, "fx"), fy=_number(obj, "fy"),
                            cx=_number(obj, "cx"), cy=_number(obj, "cy"),
                            width=_integer(obj, "width"), height=_integer(obj, "height"))


def pose_from_json(obj: dict) -> Pose:
    """``{rotation: 9 row-major numbers, translation: 3}`` as a pose; a
    malformed one raises ``ValueError`` naming the field."""
    _object(obj)
    return Pose(_numbers(obj, "rotation", 9).reshape(3, 3), _numbers(obj, "translation", 3))


def write_manifest(path, records: list[dict]) -> None:
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def read_manifest(path) -> list[dict]:
    records = load_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: manifest must be a JSON array")
    return records


def _check_frame_record(record) -> tuple[Pose, CameraIntrinsics, float, str]:
    """Pose, intrinsics, timestamp and image field name of a manifest record,
    checked without opening its files; a ``ValueError`` names the bad field."""
    _object(record)
    intr, pose, timestamp = _nested("pose", lambda p: (
        intrinsics_from_json(p), pose_from_json(p), _number(p, "timestamp")), record.get("pose"))
    if "timestamp" in record:
        top_level = _number(record, "timestamp")
        if top_level != timestamp:
            raise ValueError(f"field 'timestamp' is {top_level!r} but "
                             f"pose.timestamp is {timestamp!r}")
    if "proba_file" not in record and "logits_file" not in record:
        raise ValueError("needs a proba_file or logits_file")
    image = "proba_file" if "proba_file" in record else "logits_file"
    for name in ("depth_file", image):
        if not isinstance(record.get(name), str):
            raise ValueError(f"field {name!r} must be a file name, got {record.get(name)!r}")
    return pose, intr, timestamp, image


def load_frame(record: dict, base_dir) -> SensorFrame:
    """Materialize one manifest record into a SensorFrame.

    This is the one place frame images are opened. Either stays a ``FileImage``,
    read band by band where ``register_frame`` checks it; a ``logits_file``'s
    bands are softmaxed as they are read. A bad record raises ``ValueError`` naming
    the field, a depth image of the wrong size one naming that image, and any other
    invalid frame one naming the probability or logit image.
    """
    base = Path(base_dir)
    pose, intr, timestamp, image = _check_frame_record(record)
    depth_path = base / record["depth_file"]
    depth = read_depth_pgm(depth_path)
    if depth.shape != (intr.height, intr.width):
        raise ValueError(f"{depth_path}: depth shape {depth.shape} does not match "
                         f"intrinsics {(intr.height, intr.width)}")
    image_path = base / record[image]
    proba = read_probimg(image_path, scores=image == "logits_file")
    try:
        return SensorFrame(timestamp=timestamp, depth=depth, pose=pose, intrinsics=intr,
                           proba=proba)
    except ValueError as exc:
        raise ValueError(f"{image_path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """One manifest record with its pose parsed and its images not yet read.

    :func:`~labelgrid.fusion.fuse_stream` gates on ``timestamp`` and
    ``pose`` and calls :meth:`load` only for the frames it fuses.
    """

    record: dict
    base_dir: Path
    timestamp: float
    pose: Pose

    def load(self) -> SensorFrame:
        return load_frame(self.record, self.base_dir)


def read_frame_records(path) -> list[FrameRecord]:
    """Every record of a manifest, parsed and checked; no image is read."""
    base_dir, records = Path(path).parent, []
    for i, record in enumerate(read_manifest(path)):
        pose, _, timestamp, _ = _nested(f"{path}: record {i}", _check_frame_record, record)
        records.append(FrameRecord(record, base_dir, timestamp, pose))
    return records


def box_from_json(obj: dict) -> Box3:
    """A ``{min, max}`` object as a box; a malformed one raises ``ValueError``."""
    _object(obj)
    return Box3(_numbers(obj, "min", 3), _numbers(obj, "max", 3))


def labeled_box_from_json(obj: dict) -> tuple[int, Box3]:
    """A ``{label, min, max}`` object as ``(label, box)``."""
    return _integer(_object(obj), "label"), box_from_json(obj)


def _gt_boxes_from_json(entries) -> list[tuple[int, Box3]]:
    if not isinstance(entries, list):
        raise ValueError("ground-truth file must be a JSON array")
    return [_nested(f"entry {i}", labeled_box_from_json, e) for i, e in enumerate(entries)]


def load_gt_boxes(path) -> list[tuple[int, Box3]]:
    """Ground-truth boxes: JSON array of {label, min, max}."""
    return parse_json_file(path, _gt_boxes_from_json)


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
