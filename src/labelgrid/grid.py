"""Sparse multi-label voxel grid with additive log-odds occupancy updates.

Each touched voxel stores one log-odds value per label. A voxel that was
never updated is implicitly all-zero, i.e. probability 0.5 for every label
(the unknown state). Updates add the logit of the measured probability to
the stored value and saturate at a symmetric clamp bound so the map stays
revisable under contradicting evidence.

The grid is columnar: a sorted int64 array of voxel codes and an
``(N, num_labels)`` float64 log-odds matrix whose row ``i`` belongs to
code ``i``. A code packs the three key components, each offset by 2**20
into 21 bits, most significant axis first, so code order is ``(ix, iy, iz)``
lexicographic order. Keys must therefore lie in [-2**20, 2**20) on every
axis (about +-5.2 km at 5 mm voxels); any other key raises ``ValueError``.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .geometry import Box3

KEY_BITS = 21
KEY_OFFSET = 1 << (KEY_BITS - 1)
_KEY_MASK = (1 << KEY_BITS) - 1


class VoxelKey(NamedTuple):
    """Integer voxel index; key k covers [k * res, (k + 1) * res) per axis."""

    ix: int
    iy: int
    iz: int


def logit(p: float) -> float:
    """Log-odds of a probability: log(p / (1 - p)). Requires 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires 0 < p < 1, got {p}")
    return math.log(p / (1.0 - p))


def probability(log_odds: float) -> float:
    """Recover the probability encoded by a finite log-odds value."""
    if not math.isfinite(log_odds):
        raise ValueError(f"probability requires a finite log-odds value, got {log_odds}")
    # two-branch sigmoid: accurate for both signs, never overflows
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


def world_to_key(point, resolution: float) -> VoxelKey:
    """Voxel index containing a world point (floor division per axis)."""
    p = np.asarray(point, dtype=float)
    idx = np.floor(p / resolution).astype(np.int64)
    return VoxelKey(int(idx[0]), int(idx[1]), int(idx[2]))


def voxel_center(key, resolution: float) -> np.ndarray:
    """World coordinates of a voxel's center; also maps (N, 3) keys to (N, 3) centers."""
    return (np.asarray(key, dtype=float) + 0.5) * resolution


def _key_range_error(key) -> ValueError:
    return ValueError(f"voxel key {key} outside [-2**20, 2**20) on some axis")


def pack_key(key) -> int:
    """Code of one integer voxel key (Python ints, no numpy on this path)."""
    ix, iy, iz = map(operator.index, key)
    if not (-KEY_OFFSET <= ix < KEY_OFFSET and -KEY_OFFSET <= iy < KEY_OFFSET
            and -KEY_OFFSET <= iz < KEY_OFFSET):
        raise _key_range_error((ix, iy, iz))
    return ((ix + KEY_OFFSET) << (2 * KEY_BITS)) | ((iy + KEY_OFFSET) << KEY_BITS) \
        | (iz + KEY_OFFSET)


def pack_keys(keys) -> np.ndarray:
    """int64 codes of an (N, 3) integer key array; a key out of range raises ValueError."""
    keys = np.asarray(keys).reshape(-1, 3)
    if keys.dtype.kind not in "iu":
        raise TypeError(f"voxel keys must be integers, got dtype {keys.dtype}")
    if keys.size and (keys.min() < -KEY_OFFSET or keys.max() >= KEY_OFFSET):
        bad = ((keys < -KEY_OFFSET) | (keys >= KEY_OFFSET)).any(axis=1)
        raise _key_range_error(tuple(keys[np.argmax(bad)].tolist()))
    shifted = keys.astype(np.int64) + KEY_OFFSET
    return (shifted[:, 0] << (2 * KEY_BITS)) | (shifted[:, 1] << KEY_BITS) | shifted[:, 2]


def unpack_codes(codes) -> np.ndarray:
    """(N, 3) int64 voxel keys of an int64 code array."""
    codes = np.asarray(codes, dtype=np.int64)
    keys = np.empty((codes.shape[0], 3), dtype=np.int64)
    keys[:, 0] = codes >> (2 * KEY_BITS)
    keys[:, 1] = (codes >> KEY_BITS) & _KEY_MASK
    keys[:, 2] = codes & _KEY_MASK
    keys -= KEY_OFFSET
    return keys


def _sorted_codes(codes) -> np.ndarray:
    """``codes`` as int64, checked to be valid codes in strictly increasing order."""
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.dtype.kind not in "iu":
        raise ValueError(f"codes must be a 1-D integer array, got {codes.dtype} {codes.shape}")
    codes = codes.astype(np.int64, copy=False)
    if codes.size and codes[0] < 0:
        raise ValueError(f"invalid voxel code {int(codes[0])}")
    if (codes[1:] <= codes[:-1]).any():
        raise ValueError("voxel codes must be strictly increasing (no duplicates)")
    return codes


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class LabelOccupancyGrid:
    """Sparse association voxel key -> per-label log-odds vector.

    Cells are stored as a sorted int64 code array (see :func:`pack_key`)
    and an ``(N, num_labels)`` float64 log-odds matrix with one row per
    code; :attr:`codes` and :attr:`log_odds_matrix` are read-only views.

    Parameters
    ----------
    resolution : float
        Voxel edge length in meters, > 0.
    num_labels : int
        Total number of classes including background, >= 2.
    clamp : float
        Symmetric log-odds saturation bound, > 0 (may be ``inf``).
    roi : Box3, optional
        Metadata kept in snapshots. Registration drops the voxels outside
        it; the grid stores every cell it is given.
    """

    def __init__(self, resolution: float, num_labels: int,
                 clamp: float = 3.5, roi: Optional[Box3] = None):
        resolution = float(resolution)
        num_labels = int(num_labels)
        clamp = float(clamp)
        if not (resolution > 0.0 and math.isfinite(resolution)):
            raise ValueError(f"resolution must be a positive finite number, got {resolution}")
        if num_labels < 2:
            raise ValueError(f"num_labels must be >= 2, got {num_labels}")
        if not clamp > 0.0 or math.isnan(clamp):
            raise ValueError(f"clamp must be > 0, got {clamp}")
        if roi is not None and not isinstance(roi, Box3):
            raise TypeError("roi must be a Box3 or None")
        self._resolution = resolution
        self._num_labels = num_labels
        self.clamp = clamp
        self.roi = roi
        self._codes = np.empty(0, dtype=np.int64)
        self._values = np.empty((0, num_labels))

    @property
    def resolution(self) -> float:
        return self._resolution

    @property
    def num_labels(self) -> int:
        return self._num_labels

    @property
    def codes(self) -> np.ndarray:
        """Sorted voxel codes, one per stored cell (read-only view)."""
        return _read_only(self._codes)

    @property
    def log_odds_matrix(self) -> np.ndarray:
        """(N, num_labels) log-odds, row i belonging to ``codes[i]`` (read-only view)."""
        return _read_only(self._values)

    def __len__(self) -> int:
        return self._codes.shape[0]

    def __contains__(self, key) -> bool:
        return self._find(pack_key(key)) >= 0

    def keys(self) -> Iterator[VoxelKey]:
        """Stored voxel keys in ascending key order."""
        return (VoxelKey(*k) for k in unpack_codes(self._codes).tolist())

    def items(self) -> Iterator[tuple[VoxelKey, np.ndarray]]:
        """(key, read-only log-odds row) pairs in ascending key order."""
        return zip(self.keys(), self.log_odds_matrix)

    def world_to_key(self, point) -> VoxelKey:
        return world_to_key(point, self._resolution)

    def voxel_center(self, key) -> np.ndarray:
        return voxel_center(key, self._resolution)

    def _check_label(self, label: int) -> int:
        label = int(label)
        if not 0 <= label < self._num_labels:
            raise ValueError(f"label {label} out of range [0, {self._num_labels - 1}]")
        return label

    def _find(self, code: int) -> int:
        """Row of ``code``, or -1 when the voxel has no cell."""
        row = int(self._codes.searchsorted(code))
        if row < self._codes.shape[0] and self._codes[row] == code:
            return row
        return -1

    def update(self, codes, probs) -> None:
        """Add one measurement vector per voxel, for a batch of distinct voxels.

        ``codes`` is a strictly increasing int64 code array (as
        :func:`~labelgrid.registration.register_frame` returns it) and
        ``probs`` an ``(N, num_labels)`` array of probabilities strictly
        inside (0, 1). Every cell gets ``clip(row + log(p / (1 - p)), -clamp,
        clamp)``; voxels without a cell start from zero. Every voxel is
        stored, whether or not its center lies in the roi.
        """
        codes = _sorted_codes(codes)
        p = np.asarray(probs, dtype=float)
        if p.shape != (codes.shape[0], self._num_labels):
            raise ValueError(f"expected ({codes.shape[0]}, {self._num_labels}) probabilities, "
                             f"got shape {p.shape}")
        if not ((p > 0.0) & (p < 1.0)).all():
            raise ValueError("measurement probabilities must lie strictly in (0, 1)")
        delta = np.subtract(1.0, p)
        np.log(np.divide(p, delta, out=delta), out=delta)
        rows = self._codes.searchsorted(codes)
        new = rows >= self._codes.shape[0]
        new[~new] = self._codes[rows[~new]] != codes[~new]
        if new.any():
            self._codes = np.insert(self._codes, rows[new], codes[new])
            self._values = np.insert(self._values, rows[new], 0.0, axis=0)
            # each code moves down by the number of new codes sorted before it
            rows += np.cumsum(new) - new
        cells = self._values[rows]
        cells += delta
        np.clip(cells, -self.clamp, self.clamp, out=cells)
        self._values[rows] = cells

    def update_voxel(self, key, label: int, measurement_p: float) -> None:
        """Add one measurement for (voxel, label); other labels unchanged.

        The voxel is stored even outside the roi. A new cell is inserted
        into the sorted arrays, so building a large grid one voxel at a
        time is quadratic; fuse frames with :meth:`update`.
        """
        code = pack_key(key)
        label = self._check_label(label)
        delta = logit(measurement_p)
        row = int(self._codes.searchsorted(code))
        if row == self._codes.shape[0] or self._codes[row] != code:
            self._codes = np.insert(self._codes, row, code)
            self._values = np.insert(self._values, row, 0.0, axis=0)
        value = float(self._values[row, label]) + delta
        self._values[row, label] = min(max(value, -self.clamp), self.clamp)

    def log_odds(self, key, label: int) -> float:
        row = self._find(pack_key(key))
        label = self._check_label(label)
        return 0.0 if row < 0 else float(self._values[row, label])

    def log_odds_vector(self, key) -> np.ndarray:
        row = self._find(pack_key(key))
        if row < 0:
            return np.zeros(self._num_labels)
        return self._values[row].copy()

    def voxel_probability(self, key, label: int) -> float:
        """Stored probability for (voxel, label); 0.5 for untouched voxels."""
        return probability(self.log_odds(key, label))

    def label_log_odds(self, label: int) -> np.ndarray:
        """Log-odds of one label for every cell, in code order (read-only view)."""
        return self.log_odds_matrix[:, self._check_label(label)]

    def segment(self, label: int) -> np.ndarray:
        """(K, 3) int64 keys, in ascending key order, whose probability for
        ``label`` strictly exceeds 0.5."""
        return unpack_codes(self._codes[self.label_log_odds(label) > 0.0])

    def centroid(self, label: int, segment: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Unweighted mean of segment voxel centers, or None if empty.

        ``segment`` may pass ``segment(label)`` when the caller has it.
        """
        keys = self.segment(label) if segment is None else segment
        if len(keys) == 0:
            return None
        return voxel_center(keys, self._resolution).mean(axis=0)

    def set_cells(self, codes, values) -> None:
        """Replace every cell with raw log-odds rows (snapshot loading).

        ``codes`` must be strictly increasing; ``values`` is (N, num_labels).
        """
        codes = _sorted_codes(codes)
        values = np.array(values, dtype=float)
        if values.shape != (codes.shape[0], self._num_labels):
            raise ValueError(f"expected {codes.shape[0]} x {self._num_labels} log-odds values, "
                             f"got shape {values.shape}")
        self._codes = codes.copy()
        self._values = values

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelOccupancyGrid):
            return NotImplemented
        return (self._resolution == other._resolution
                and self._num_labels == other._num_labels
                and self.clamp == other.clamp
                and self.roi == other.roi
                and np.array_equal(self._codes, other._codes)
                and np.array_equal(self._values, other._values))
