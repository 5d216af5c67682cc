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
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Box3, Pose, integer, positive_finite
from .grid import pack_keys, unpack_codes, voxel_center


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
    """Per-pixel softmax of an (H, W, C) score image, max-subtracted for safety."""
    arr = np.asarray(logits, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected an (H, W, C) score image, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        v, u, c = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite score at pixel (row={v}, col={u}, channel={c})")
    shifted = arr - arr.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=2, keepdims=True)


@dataclass(eq=False)
class SensorFrame:
    """One measurement: depth + per-pixel class probabilities + pose.

    ``proba`` must be a per-pixel simplex image: entries in [0, 1], channel
    sums, taken in float64, within 1e-5 of 1. A float32 image (as PROBIMG1
    decodes) stays float32, any other is widened to float64. Raw class
    scores are turned into probabilities with :func:`softmax_image` before
    a frame is built.

    The check reads the image one band of about 1 MiB at a time, and so
    does :func:`register_frame`. When the image views a read-only file map
    (:func:`~labelgrid.fileio.read_probimg`, or an ``np.memmap`` opened
    with mode ``'r'``), each band's pages are dropped once it is used, so
    a frame never holds its whole image resident; a dropped page is read
    again from the file when it is touched, and rewriting the file while
    the frame lives can end the process with SIGBUS.
    """

    timestamp: float
    depth: np.ndarray
    pose: Pose
    intrinsics: CameraIntrinsics
    proba: np.ndarray

    def __post_init__(self) -> None:
        # a NaN timestamp would make the gate treat every later frame as moving
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp!r}")
        self.depth = np.asarray(self.depth, dtype=float)
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.depth.shape != shape:
            raise ValueError(f"depth shape {self.depth.shape} does not match intrinsics {shape}")
        image = np.asarray(self.proba)
        if image.dtype != np.float32:
            image = image.astype(float, copy=False)
        if image.ndim != 3 or image.shape[:2] != shape:
            raise ValueError(f"channel image shape {image.shape} does not match intrinsics {shape}")
        if image.shape[2] < 2:
            raise ValueError("channel image needs at least two classes")
        # A channel sum in the image's dtype is off from the exact sum of L
        # entries in [0, 1] by at most gamma_L * sum, whatever the order of
        # additions (Higham 2002, sections 3.1 and 4.2). The margin below is
        # at least twice that, so a frame accepted here is one the float64
        # sums accept; any other frame takes the float64 pass, which decides
        # and words the error. On a 2-core Xeon VM, einsum took 1.0 ms on a
        # 320x240x40 float32 image and a BLAS row sum 0.6 ms, but CLI fuse
        # of the transit-320 benchmark stream peaked 0.4 MB higher with BLAS.
        labels = image.shape[2]
        rows = image.reshape(-1, labels)
        low, high = math.inf, -math.inf
        for start, stop in _bands(rows):
            band = rows[start:stop]
            # written so that a NaN entry, which fails every comparison, is rejected
            if not (band.min() >= 0.0 and band.max() <= 1.0):
                raise ValueError("probability image entries must lie in [0, 1]")
            fast = np.einsum("ij->i", band)
            low, high = min(low, float(fast.min())), max(high, float(fast.max()))
            _drop_pages_before(rows, stop)
        margin = labels * float(np.finfo(image.dtype).eps) * max(1.0, high) + 1e-12
        if max(1.0 - low, high - 1.0) + margin > 1e-5:
            worst = 0.0
            for start, stop in _bands(rows):
                sums = rows[start:stop].sum(axis=1, dtype=np.float64)
                worst = max(worst, float(np.abs(sums - 1.0).max()))
                _drop_pages_before(rows, stop)
            if worst > 1e-5:
                raise ValueError(f"probability image channel sums deviate from 1 by {worst:.3g}")
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


# runs longer than this finish with one np.add.accumulate, so the row
# loop in _run_means takes at most this many steps per frame
_STEP_ROWS = 64
# the frame check and the per-voxel means read the probability image in
# bands of this many bytes of whole pixel rows, at least one row each
_BAND_BYTES = 1 << 20


def _bands(rows: np.ndarray):
    """``(start, stop)`` of each band of the ``(pixels, labels)`` image ``rows``."""
    step = max(1, _BAND_BYTES // (rows.shape[1] * rows.itemsize))
    for start in range(0, rows.shape[0], step):
        yield start, min(start + step, rows.shape[0])


def _drop_pages_before(rows: np.ndarray, stop: int) -> None:
    """Drop the resident pages of the file map under ``rows`` that lie wholly
    before row ``stop``; the kernel reads them again from the file if they
    are touched later.

    Only a read-only map is dropped: in a writable or copy-on-write map,
    DONTNEED would throw away pages written since mapping. A heap array,
    a non-contiguous view and a platform without ``madvise`` are left alone.
    """
    owner = rows
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, memoryview):
        owner = owner.obj
    if not (isinstance(owner, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")
            and rows.flags.c_contiguous and memoryview(owner).readonly):
        return
    offset = rows.ctypes.data - np.frombuffer(owner, np.uint8).ctypes.data
    end = (offset + stop * rows.strides[0]) // mmap.PAGESIZE * mmap.PAGESIZE
    if end > 0:
        owner.madvise(mmap.MADV_DONTNEED, 0, end)


def _run_means(rows: np.ndarray, pixel: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """float64 means of ``rows`` over each run ``pixel[starts[i]:starts[i + 1]]``
    (the last run ends at ``len(pixel)``): each run's sum over its length.

    Each sum is ``((+0.0 + r0) + r1) + ...`` in run order, the left-to-right
    sum that adding the rows one at a time into zeros forms: rows are
    widened exactly from float32, and the ``+0.0`` start turns a ``-0.0``
    entry into ``+0.0`` as a zero-initialised sum does. Runs are stepped
    longest first, so step k adds the k-th row of a prefix of them.
    ``np.add.reduceat`` is not used: it regroups runs of 8 or more rows.
    """
    lengths = np.diff(starts, append=pixel.shape[0])
    by_length = np.argsort(-lengths, kind="stable")
    first, length = starts[by_length], lengths[by_length]
    # longer[k] = how many runs have more than k rows (a prefix of by_length)
    steps = min(int(length[0]), _STEP_ROWS)
    longer = np.searchsorted(-length, -np.arange(steps + 1), side="left")
    # np.take gathers the same rows as fancy indexing, in less time
    sums = np.add(np.take(rows, pixel[first], axis=0), 0.0, dtype=float)
    for k in range(1, steps):
        m = longer[k]
        sums[:m] += np.take(rows, pixel[first[:m] + k], axis=0)
    # accumulate adds strictly in order, so the partial sums carry on exactly
    for r in range(longer[steps]):
        rest = np.take(rows, pixel[first[r] + steps:first[r] + length[r]], axis=0)
        sums[r] = np.add.accumulate(np.concatenate((sums[r:r + 1], rest)), axis=0)[-1]
    sums /= length[:, None]
    means = np.empty_like(sums)
    means[by_length] = sums
    return means


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
    outside [-2**20, 2**20) on any axis raises ``ValueError``. The
    probability image is read in bands, and a file map's pages are
    dropped behind them, as in the :class:`SensorFrame` check.
    """
    positive_finite("resolution", resolution)
    intr = frame.intrinsics
    depth = frame.depth
    valid = np.isfinite(depth) & (depth > 0)
    skipped_depth = int(depth.size - np.count_nonzero(valid))

    # the flat pixel index stands in for the probability row until the sums
    pixel = np.flatnonzero(valid)
    del valid
    vv, uu = np.divmod(pixel, intr.width)
    d = np.take(depth, pixel)
    # one (N, 3) buffer of camera points, filled in place; each temporary
    # goes once it is dead
    cam = np.empty((pixel.shape[0], 3))
    # in place, in this order: the bits of the whole-array (coord - center) * d / focal
    for out, coord, center, focal in ((cam[:, 0], uu, intr.cx, intr.fx),
                                      (cam[:, 1], vv, intr.cy, intr.fy)):
        np.subtract(coord, center, out=out)
        np.multiply(out, d, out=out)
        np.divide(out, focal, out=out)
    cam[:, 2] = d
    del vv, uu, d, out, coord, center, focal
    # frame.pose.transform(cam), with the translation added in place one
    # column at a time, which is faster than broadcasting a (3,) row
    world = frame.pose.rotate(cam)
    del cam
    for axis in range(3):
        world[:, axis] += frame.pose.translation[axis]
    world /= resolution
    np.floor(world, out=world)
    keys = world.astype(np.int64)
    del world

    skipped_roi = 0
    if roi is not None:
        keep = np.ones(keys.shape[0], dtype=bool)
        # one key column at a time: an (N, 3) centers array costs time and peak memory
        for axis in range(3):
            center = voxel_center(keys[:, axis], resolution)
            keep &= (center >= roi.min[axis]) & (center <= roi.max[axis])
        # np.take of the kept rows is faster than a boolean mask; pixel goes
        # first, so its old array is freed before the new keys are allocated
        kept = np.flatnonzero(keep)
        del keep
        skipped_roi = int(keys.shape[0] - kept.shape[0])
        pixel = np.take(pixel, kept)
        keys = np.take(keys, kept, axis=0)
        del kept
    if keys.shape[0] == 0:
        return RegistrationResult(np.empty(0, dtype=np.int64), np.empty((0, frame.num_labels)),
                                  skipped_depth, skipped_roi)

    codes = pack_keys(keys)
    del keys
    # stable, so same-voxel pixels keep their row-major order in the sums
    order = np.argsort(codes, kind="stable")
    codes, pixel = codes[order], pixel[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    codes = codes[starts]
    # Runs are summed band by band, in the order of their first pixel. A
    # run reads no pixel before its first, so once the runs that start in
    # a band are summed, no row before the next band is read again.
    by_first = np.argsort(pixel[starts])
    lengths = np.diff(starts, append=pixel.shape[0])[by_first]
    # pixel with its runs in first-pixel order, each run's pixels kept in order
    ends = np.cumsum(lengths)
    run_starts = ends - lengths
    source = np.repeat(starts[by_first] - run_starts, lengths)
    source += np.arange(pixel.shape[0])
    pixel = np.take(pixel, source)
    del starts, source
    rows = frame.proba.reshape(-1, frame.num_labels)
    means = np.empty((codes.shape[0], rows.shape[1]))
    firsts = pixel[run_starts]
    for start, stop in _bands(rows):
        lo, hi = np.searchsorted(firsts, (start, stop))
        if lo < hi:
            means[by_first[lo:hi]] = _run_means(rows, pixel[run_starts[lo]:ends[hi - 1]],
                                                run_starts[lo:hi] - run_starts[lo])
        _drop_pages_before(rows, stop)
    return RegistrationResult(codes, means, skipped_depth, skipped_roi)
