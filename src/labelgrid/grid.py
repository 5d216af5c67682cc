"""Sparse multi-label voxel grid with additive log-odds occupancy updates.

Each touched voxel stores one log-odds value per label. A voxel that was
never updated is implicitly all-zero, i.e. probability 0.5 for every label
(the unknown state). Updates add the logit of the measured probability to
the stored value and saturate at a symmetric clamp bound so the map stays
revisable under contradicting evidence. Voxel key ``(ix, iy, iz)`` covers
[ix * res, (ix + 1) * res) on x, and likewise on y and z.

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
from typing import Optional

import numpy as np

from .geometry import Box3, integer, positive_finite

KEY_BITS = 21
KEY_OFFSET = 1 << (KEY_BITS - 1)
_KEY_MASK = (1 << KEY_BITS) - 1

DEFAULT_CLAMP = 3.5


def logit(p: float) -> float:
    """Log-odds log(p / (1 - p)) in float64, the value ``update`` adds. Requires 0 < p < 1."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires 0 < p < 1, got {p}")
    return float(np.log(p / (1.0 - p)))


def probability(log_odds: float) -> float:
    """Recover the probability encoded by a finite log-odds value."""
    if not math.isfinite(log_odds):
        raise ValueError(f"probability requires a finite log-odds value, got {log_odds}")
    # two-branch sigmoid: accurate for both signs, never overflows
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


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


# the frame check and the per-voxel means read the probability image, and
# update and _insert the log-odds matrix, in bands of this many bytes of
# whole rows, at least one row each
_BAND_BYTES = 1 << 20


def _bands(rows, first: int = 0):
    """``(start, stop)`` of each band of ``rows`` (an image's pixels), from row ``first`` on."""
    step = max(1, _BAND_BYTES // (rows.shape[-1] * rows.dtype.itemsize))
    count = math.prod(rows.shape[:-1])
    for start in range(first, count, step):
        yield start, min(start + step, count)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class LabelOccupancyGrid:
    """Sparse voxel grid with one log-odds value per label for each stored cell.

    Cells are stored as a sorted int64 code array (see :func:`pack_key`)
    and an ``(N, num_labels)`` float64 log-odds matrix with one row per
    code; :attr:`codes` and :attr:`log_odds_matrix` are read-only views.

    An update that adds cells lengthens the matrix in place, so the grid
    keeps one copy of it. A view from :attr:`codes`, :attr:`log_odds_matrix`
    or :meth:`label_log_odds` that is alive across such an update stays
    readable and keeps showing the cells as they were before it: the grid
    moves to new arrays, and a live matrix view costs a second copy of the
    matrix for that update. An update that adds no cells writes its rows in
    place, where a live view sees them.

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
                 clamp: float = DEFAULT_CLAMP, roi: Optional[Box3] = None):
        resolution = float(resolution)
        clamp = float(clamp)
        positive_finite("resolution", resolution)
        num_labels = integer("num_labels", num_labels, 2)
        if not clamp > 0.0:
            raise ValueError(f"clamp must be > 0, got {clamp}")
        if roi is not None and not isinstance(roi, Box3):
            raise TypeError("roi must be a Box3 or None")
        self._resolution, self._clamp, self._roi = resolution, clamp, roi
        self._codes = np.empty(0, dtype=np.int64)
        self._values = np.empty((0, num_labels))

    @property
    def resolution(self) -> float:
        return self._resolution

    @property
    def clamp(self) -> float:
        return self._clamp

    @property
    def roi(self) -> Optional[Box3]:
        return self._roi

    @property
    def num_labels(self) -> int:
        return self._values.shape[1]

    @property
    def codes(self) -> np.ndarray:
        """Sorted voxel codes, one per stored cell (read-only view)."""
        return _read_only(self._codes)

    @property
    def log_odds_matrix(self) -> np.ndarray:
        """(N, num_labels) log-odds, row i belonging to ``codes[i]`` (read-only view).

        While the view is alive, an update that adds cells copies the matrix
        instead of lengthening it in place, and the view keeps the old rows.
        """
        return _read_only(self._values)

    def __len__(self) -> int:
        return self._codes.shape[0]

    def _check_label(self, label: int) -> int:
        return integer("label", label, 0, self.num_labels)

    def update(self, codes, probs) -> None:
        """Add one measurement vector per voxel, for a batch of distinct voxels.

        ``codes`` is a strictly increasing int64 code array (as
        :func:`~labelgrid.registration.register_frame` returns it) and
        ``probs`` an ``(N, num_labels)`` array of probabilities strictly
        inside (0, 1). Every cell gets ``clip(row + log(p / (1 - p)), -clamp,
        clamp)``; voxels without a cell start from zero. Every voxel is
        stored, whether or not its center lies in the roi.

        New cells lengthen the matrix in place, and the rows are updated in
        bands of about 1 MiB, so an update holds no ``(N, num_labels)``
        temporary beside the matrix. Each update that adds cells still moves
        every row after the first new one.
        """
        codes = _sorted_codes(codes)
        p = np.asarray(probs, dtype=float)
        if p.shape != (codes.shape[0], self.num_labels):
            raise ValueError(f"expected ({codes.shape[0]}, {self.num_labels}) probabilities, "
                             f"got shape {p.shape}")
        # written so that a NaN, which fails every comparison, is rejected
        if p.size and not (p.min() > 0.0 and p.max() < 1.0):
            raise ValueError("measurement probabilities must lie strictly in (0, 1)")
        rows = self._codes.searchsorted(codes)
        new = rows >= self._codes.shape[0]
        new[~new] = self._codes[rows[~new]] != codes[~new]
        if new.any():
            self._insert(codes[new], rows[new])
            # each code moves down by the number of new codes sorted before it
            rows += np.cumsum(new) - new
        for start, stop in _bands(p):
            band, at = p[start:stop], rows[start:stop]
            delta = np.subtract(1.0, band)
            np.log(np.divide(band, delta, out=delta), out=delta)
            cells = self._values[at]
            cells += delta
            np.clip(cells, -self.clamp, self.clamp, out=cells)
            self._values[at] = cells
            # free this band's temporaries before the next band allocates its own
            del delta, cells

    def update_voxel(self, key, label: int, measurement_p: float) -> None:
        """Add one measurement for (voxel, label); other labels unchanged.

        The voxel is stored even outside the roi. A new cell moves every
        row after it, so building a large grid one voxel at a time is
        quadratic; fuse frames with :meth:`update`.
        """
        code = pack_key(key)
        label = self._check_label(label)
        delta = logit(measurement_p)
        row = int(self._codes.searchsorted(code))
        if row == self._codes.shape[0] or self._codes[row] != code:
            self._insert(np.array([code], dtype=np.int64), np.array([row]))
        value = float(self._values[row, label]) + delta
        self._values[row, label] = min(max(value, -self.clamp), self.clamp)

    def _insert(self, added: np.ndarray, before: np.ndarray) -> None:
        """Store the strictly increasing new codes ``added``, each before
        row ``before[i]`` of the current arrays (their ``searchsorted``
        positions, as ``np.insert`` takes them), with all-zero rows.

        The matrix is lengthened in place with ``ndarray.resize``, a
        ``realloc`` that glibc serves for a large block by remapping its
        pages, not copying them. Old row ``i`` then moves down by the
        number of added codes below ``codes[i]``, one band at a time from
        the end, so no band overwrites a row not yet read. While a view of
        the matrix is alive ``resize`` refuses, and the rows move into a
        fresh matrix instead; the view keeps the old one.
        """
        old = self._codes
        n, k = old.shape[0], added.shape[0]
        shape = (n + k, self.num_labels)
        try:
            self._values.resize(shape, refcheck=True)
            # rows before the first new one stay where they are
            source, first = self._values, int(before[0])
        except ValueError:
            source, first = self._values, 0
            self._values = np.empty(shape)
        for start, stop in reversed(list(_bands(source[:n], first))):
            # fancy assignment copies a source band that overlaps its target rows
            self._values[np.arange(start, stop) + added.searchsorted(old[start:stop])] = \
                source[start:stop]
        self._values[before + np.arange(k)] = 0.0
        self._codes = np.insert(old, before, added)

    def log_odds(self, key, label: int) -> float:
        """Stored log-odds for (voxel, label); 0.0 for untouched voxels."""
        code = pack_key(key)
        label = self._check_label(label)
        row = int(self._codes.searchsorted(code))
        if row < self._codes.shape[0] and self._codes[row] == code:
            return float(self._values[row, label])
        return 0.0

    def voxel_probability(self, key, label: int) -> float:
        """Stored probability for (voxel, label); 0.5 for untouched voxels."""
        return probability(self.log_odds(key, label))

    def label_log_odds(self, label: int) -> np.ndarray:
        """Log-odds of one label for every cell, in code order (read-only view)."""
        return self.log_odds_matrix[:, self._check_label(label)]

    def segment(self, label: int) -> np.ndarray:
        """(K, 3) int64 keys, in ascending key order, whose log-odds for
        ``label`` is strictly above 0.

        That is probability above 0.5 up to rounding: for 0 < v < about
        2.2e-16, ``probability(v)`` is exactly 0.5, yet the cell is in the
        segment.
        """
        return unpack_codes(self._codes[self.label_log_odds(label) > 0.0])

    def centroid(self, label: int) -> Optional[np.ndarray]:
        """Unweighted mean of segment voxel centers, or None if empty."""
        keys = self.segment(label)
        if len(keys) == 0:
            return None
        return voxel_center(keys, self._resolution).mean(axis=0)

    def set_cells(self, codes, values) -> None:
        """Replace every cell with raw log-odds rows (snapshot loading).

        ``codes`` must be strictly increasing; ``values`` is (N, num_labels).
        """
        codes = _sorted_codes(codes)
        # C order: growing the matrix in place keeps rows, not columns, whole
        values = np.array(values, dtype=float, order="C")
        if values.shape != (codes.shape[0], self.num_labels):
            raise ValueError(f"expected {codes.shape[0]} x {self.num_labels} log-odds values, "
                             f"got shape {values.shape}")
        self._codes = codes.copy()
        self._values = values

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelOccupancyGrid):
            return NotImplemented
        return (self._resolution == other._resolution
                and self.clamp == other.clamp
                and self.roi == other.roi
                and np.array_equal(self._codes, other._codes)
                and np.array_equal(self._values, other._values))
