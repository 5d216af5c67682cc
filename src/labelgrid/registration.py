"""Convert labeled depth frames into per-voxel measurement probabilities.

A sensor frame carries a depth image, a per-pixel class probability image
and the camera pose. Registration maps every valid-depth pixel to a
camera point through the pinhole model, transforms it to world
coordinates, bins it into a voxel, and averages the probability vectors
of pixels that land in the same voxel so each voxel receives exactly one
measurement per frame. Voxels whose center lies outside the closed
region of interest are dropped here, the one place the pipeline applies
the roi; the float centers are tested one axis at a time.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Box3, Pose, integer, positive_finite
from .grid import _bands, pack_keys, unpack_codes, voxel_center


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters mapping pixels to 3D rays."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 1))
        positive_finite("fx", self.fx)
        positive_finite("fy", self.fy)
        # also rejects a NaN or infinite principal point
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def softmax_image(logits) -> np.ndarray:
    """Per-pixel softmax of an (H, W, C) score image, max-subtracted, in place on a float64 copy."""
    arr = np.array(logits, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected an (H, W, C) score image, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        v, u, c = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite score at pixel (row={v}, col={u}, channel={c})")
    arr -= arr.max(axis=2, keepdims=True)
    np.exp(arr, out=arr)
    arr /= arr.sum(axis=2, keepdims=True)
    return arr


class FileImage:
    """An ``(H, W, C)`` float32 image that :func:`~labelgrid.fileio.read_probimg` opened, read
    on demand through its own descriptor, closed when the image is freed: :func:`register_frame`
    reads and checks each band once, and ``np.asarray`` reads it whole. A short read, from a
    file truncated since, raises ``ValueError`` naming the file."""

    dtype = np.dtype("<f4")

    def __init__(self, path, fd: int, offset: int, shape: tuple[int, int, int]) -> None:
        self.path, self.offset, self.shape, self._fd = path, offset, shape, fd
        weakref.finalize(self, os.close, fd)

    def read(self, out: np.ndarray, start: int) -> np.ndarray:
        """``out``, C-contiguous rows, read from row ``start`` on in as many reads as needed."""
        view = out.reshape(-1).view(np.uint8)
        offset = self.offset + start * self.shape[2] * self.dtype.itemsize
        while view.size:
            got = os.preadv(self._fd, [view], offset)
            if got == 0:
                raise ValueError(f"{self.path}: truncated at byte {offset}")
            view, offset = view[got:], offset + got
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.read(np.empty(self.shape, self.dtype), 0)

    def __reduce__(self):
        raise TypeError(f"{self.path}: an image read through a descriptor cannot be copied")


@dataclass(eq=False)
class SensorFrame:
    """One measurement: depth + per-pixel class probabilities + pose.

    ``proba`` is an ``(H, W, C)`` image of C >= 2 class probabilities. A
    float32 image (as PROBIMG1 decodes) stays float32, any other is
    widened to float64. Building a frame checks shapes, not values, and
    reads no probability: :func:`register_frame` checks that each pixel is
    a simplex as it reads the image. Raw class scores are turned into
    probabilities with :func:`softmax_image` before a frame is built.
    """

    timestamp: float
    depth: np.ndarray
    pose: Pose
    intrinsics: CameraIntrinsics
    proba: np.ndarray | FileImage

    def __post_init__(self) -> None:
        # a NaN timestamp would make the gate treat every later frame as moving
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp!r}")
        self.depth = np.asarray(self.depth, dtype=float)
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.depth.shape != shape:
            raise ValueError(f"depth shape {self.depth.shape} does not match intrinsics {shape}")
        image = self.proba if isinstance(self.proba, FileImage) else np.asarray(self.proba)
        if image.dtype not in (np.float32, FileImage.dtype):
            image = image.astype(float, copy=False)
        if len(image.shape) != 3 or image.shape[:2] != shape:
            raise ValueError(f"channel image shape {image.shape} does not match intrinsics {shape}")
        if image.shape[2] < 2:
            raise ValueError("channel image needs at least two classes")
        self.proba = image

    @property
    def num_labels(self) -> int:
        return self.proba.shape[2]

    def load(self) -> "SensorFrame":
        """The frame itself, so a list of frames is a stream for ``fuse_stream``."""
        return self


@dataclass
class RegistrationResult:
    """Per-voxel mean probabilities of one frame.

    ``codes`` holds the strictly increasing voxel codes (see
    :func:`~labelgrid.grid.pack_key`) and ``means`` the matching
    ``(N, num_labels)`` mean probability rows.
    """

    codes: np.ndarray
    means: np.ndarray
    pixels_skipped_depth: int
    pixels_skipped_roi: int

    @property
    def measurements(self) -> list[tuple[tuple[int, int, int], np.ndarray]]:
        """One ``(key, probabilities)`` pair per voxel, in key order. Only the
        benchmark harness reads it; the pipeline uses ``codes`` and ``means``."""
        return [(tuple(k), row) for k, row in zip(unpack_codes(self.codes).tolist(), self.means)]


# runs longer than this finish with one np.add.accumulate, so the row loop in
# _add_runs takes at most this many steps per call, one call per band read
_STEP_ROWS = 64


def _band_reader(image):
    """A reader of pixel rows ``start:stop``: views of an array, or reads into one band buffer."""
    if not isinstance(image, FileImage):
        rows = image.reshape(-1, image.shape[2])
        return lambda start, stop: rows[start:stop]
    start, stop = next(_bands(image))
    buffer = np.empty((stop - start, image.shape[2]), image.dtype)
    return lambda start, stop: image.read(buffer[:stop - start], start)


def _add_runs(sums: np.ndarray, rows: np.ndarray, pixel: np.ndarray, run: np.ndarray) -> None:
    """Add the float64 rows ``rows[pixel]`` onto ``sums[run]``, for indices
    ``run`` >= 0 in any order; a run is the pixels of one index, in the
    order they are given.

    Each run's rows are added one at a time, in order, onto its running
    sum, as a loop over them would: rows are widened exactly from float32,
    and a sum that starts at ``+0.0`` turns a ``-0.0`` entry into ``+0.0``.
    Runs are stepped longest first, so step k adds the k-th row of a prefix
    of them. ``np.add.reduceat`` is not used: it regroups runs of 8 or more
    rows.
    """
    # stable, so each run keeps its pixels' order; keys of 16 bits or fewer radix-sort
    order = np.argsort(run.astype(np.min_scalar_type(sums.shape[0])), kind="stable")
    pixel, run = pixel[order], run[order]
    del order
    starts = np.flatnonzero(np.diff(run, prepend=-1))
    lengths = np.diff(starts, append=pixel.shape[0])
    by_length = np.argsort((-lengths).astype(np.min_scalar_type(-pixel.shape[0])),
                           kind="stable")
    first, length = starts[by_length], lengths[by_length]
    target = run[first]
    # longer[k] = how many runs have more than k rows (a prefix of by_length)
    steps = min(int(length[0]), _STEP_ROWS)
    longer = np.searchsorted(-length, -np.arange(steps + 1), side="left")
    # np.take gathers the same rows as fancy indexing, in less time
    acc = np.take(sums, target, axis=0)
    for k in range(steps):
        m = longer[k]
        acc[:m] += np.take(rows, pixel[first[:m] + k], axis=0)
    # accumulate adds strictly in order, so the partial sums carry on exactly
    for r in range(longer[steps]):
        rest = np.take(rows, pixel[first[r] + steps:first[r] + length[r]], axis=0)
        acc[r] = np.add.accumulate(np.concatenate((acc[r:r + 1], rest)), axis=0)[-1]
    sums[target] = acc


def register_frame(frame: SensorFrame, resolution: float,
                   roi: Optional[Box3] = None) -> RegistrationResult:
    """Bin every valid-depth pixel of a frame into world-space voxels.

    Pixels landing in the same voxel are averaged (one measurement per
    voxel per frame). Voxels whose center falls outside ``roi`` are
    dropped and counted; the closed roi is tested on the float centers,
    one axis at a time. Output is sorted by voxel key and
    deterministic: each voxel's sum starts at ``+0.0`` and adds its
    pixels' probability rows in float64, one at a time, in pixel
    row-major order, then divides by the pixel count. A kept voxel key
    outside [-2**20, 2**20) on any axis raises ``ValueError``.

    Pixels are deprojected and binned one band of about 1 MiB at a time,
    in row-major order, so a key-range error comes first. Then each band
    of the probability image is read once, into one buffer for a
    :class:`FileImage`, and checked before its kept pixels' rows join the
    voxel sums carried from band to band. The check raises ``ValueError``,
    naming a FileImage's path, unless every entry lies in [0, 1] (a NaN on
    a zero-depth pixel fails too) and every float64 channel sum within 1e-5 of 1.
    """
    positive_finite("resolution", resolution)
    intr, pose = frame.intrinsics, frame.pose
    depth = frame.depth.reshape(-1)
    valid = np.isfinite(depth) & (depth > 0)
    count = int(np.count_nonzero(valid))
    # a pixel's row within its band stands in for its probability row until the sums
    pixel = np.empty(count, dtype=np.int64)
    codes = np.empty(count, dtype=np.int64)
    kept, ends = 0, []
    for start, stop in _bands(frame.proba):
        at = np.flatnonzero(valid[start:stop])
        at += start
        vv, uu = np.divmod(at, intr.width)
        d = np.take(depth, at)
        cam = np.empty((at.shape[0], 3))
        # in place, in this order: the bits of the whole-array (coord - center) * d / focal
        for out, coord, center, focal in ((cam[:, 0], uu, intr.cx, intr.fx),
                                          (cam[:, 1], vv, intr.cy, intr.fy)):
            np.subtract(coord, center, out=out)
            np.multiply(out, d, out=out)
            np.divide(out, focal, out=out)
        cam[:, 2] = d
        del vv, uu, d, out, coord, center, focal
        world = pose.transform(cam)
        del cam
        world /= resolution
        np.floor(world, out=world)
        keys = world.astype(np.int64)
        del world
        if roi is not None:
            keep = np.ones(keys.shape[0], dtype=bool)
            # one key column at a time: an (N, 3) centers array costs time and memory
            for axis in range(3):
                center = voxel_center(keys[:, axis], resolution)
                keep &= (center >= roi.min[axis]) & (center <= roi.max[axis])
            at, keys = at[keep], keys[keep]
        n = at.shape[0]
        np.subtract(at, start, out=pixel[kept:kept + n])
        del at
        codes[kept:kept + n] = pack_keys(keys)
        kept += n
        ends.append(kept)
    del valid, keys
    # the roi may have cut most pixels: hold only the kept ones from here on
    pixel = pixel[:kept].copy()

    # run is each pixel's voxel index; the pixels stay in row-major order
    order = np.argsort(codes[:kept])
    codes = codes[order]
    # codes are >= 0, so the first always starts a run, and no keys give no runs
    new = np.diff(codes, prepend=-1) != 0
    index = np.cumsum(new)
    index -= 1
    run = np.empty_like(order)
    run[order] = index
    counts = np.bincount(index)
    codes = codes[new]
    del order, new, index
    sums, image = np.zeros((codes.shape[0], frame.num_labels)), frame.proba
    where = f"{image.path}: " if isinstance(image, FileImage) else ""
    # A channel sum in the image's dtype is off from the exact sum of L entries in [0, 1] by
    # at most gamma_L * sum, whatever the order of additions (Higham 2002, sections 3.1 and
    # 4.2). The margin below, taken from each band's own largest sum, is at least twice
    # that, so a band accepted here is one the float64 sums accept; any other band is summed
    # again in float64. Those sums decide the frame, and the error gives their worst
    # deviation, which is the image's worst when it exceeds 1e-5. On a 2-core Xeon VM,
    # einsum took 1.0 ms on a 320x240x40 float32 image and a BLAS row sum 0.6 ms, but CLI
    # fuse of the transit-320 benchmark stream peaked 0.4 MB higher with BLAS.
    read, lo = _band_reader(image), 0
    eps, worst = float(np.finfo(image.dtype).eps), 0.0
    for (start, stop), hi in zip(_bands(image), ends):
        band = read(start, stop)
        # written so that a NaN entry, which fails every comparison, is rejected
        if not (band.min() >= 0.0 and band.max() <= 1.0):
            raise ValueError(f"{where}probability image entries must lie in [0, 1]")
        fast = np.einsum("ij->i", band)
        low, high = float(fast.min()), float(fast.max())
        del fast
        if max(1.0 - low, high - 1.0) + image.shape[2] * eps * max(1.0, high) + 1e-12 > 1e-5:
            worst = max(worst, float(np.abs(band.sum(axis=1, dtype=np.float64) - 1.0).max()))
        if lo < hi:
            _add_runs(sums, band, pixel[lo:hi], run[lo:hi])
        lo = hi
    if worst > 1e-5:
        raise ValueError(f"{where}probability image channel sums deviate from 1 by {worst:.3g}")
    sums /= counts[:, None]
    return RegistrationResult(codes, sums, int(depth.size - count), count - kept)
