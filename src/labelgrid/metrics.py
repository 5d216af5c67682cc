"""Segmentation evaluation: 3D voxel-vs-box IoU and 2D pixel metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box3, positive_finite


@dataclass(frozen=True)
class IouReport:
    """Overlap (tp), excess-voxel (fp) and missed-box (fn) volumes in m^3."""

    v_tp: float
    v_fp: float
    v_fn: float
    iou: float


def iou_3d(voxels, resolution: float, gt: Box3) -> IouReport:
    """Volume IoU between voxel keys and a ground-truth box.

    ``voxels`` is a collection of distinct (ix, iy, iz) keys or an (N, 3)
    integer key array. v_tp is the exact summed cube/box intersection
    volume, v_fp the remaining voxel volume, v_fn the remaining box volume,
    and iou = v_tp / (v_tp + v_fp + v_fn). Volumes are summed in key order,
    so the result does not depend on the order the keys come in.
    """
    positive_finite("resolution", resolution)
    if not isinstance(voxels, np.ndarray):
        voxels = list(voxels)
    keys = np.asarray(voxels, dtype=float).reshape(-1, 3)
    keys = keys[np.lexsort(keys.T[::-1])]
    extent = np.clip(np.minimum((keys + 1.0) * resolution, gt.max)
                     - np.maximum(keys * resolution, gt.min), 0.0, None)
    v_tp = float(extent.prod(axis=1).sum())
    # clip float residue so reported volumes stay non-negative
    v_fp = max(0.0, len(keys) * resolution ** 3 - v_tp)
    v_fn = max(0.0, gt.volume - v_tp)
    denom = v_tp + v_fp + v_fn
    iou = v_tp / denom if denom > 0 else 0.0
    return IouReport(v_tp, v_fp, v_fn, iou)


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[i][j] = number of pixels of true class i predicted as class j."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.array(self.counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("confusion matrix counts must be integers")
        if (counts < 0).any():
            raise ValueError("confusion matrix counts must be non-negative")
        # a read-only copy, so the checked counts hold for the object's whole life
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(pred, truth, num_labels: int) -> ConfusionMatrix:
    """Exact pixel tally of predicted vs true labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    for name, img in (("pred", pred), ("truth", truth)):
        bad = (img < 0) | (img >= num_labels)
        if bad.any():
            where = np.argwhere(bad)[0]
            pos = tuple(int(i) for i in where)
            raise ValueError(f"{name} label {img[tuple(where)]} out of range "
                             f"[0, {num_labels - 1}] at pixel {pos}")
    idx = truth.astype(np.int64).ravel() * num_labels + pred.astype(np.int64).ravel()
    counts = np.bincount(idx, minlength=num_labels * num_labels)
    return ConfusionMatrix(counts.reshape(num_labels, num_labels))


def pixelwise_accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of pixels on the confusion-matrix diagonal."""
    total = cm.total
    if total == 0:
        raise ValueError("confusion matrix is empty")
    return float(np.trace(cm.counts)) / total


def mean_iu(cm: ConfusionMatrix) -> float:
    """Class-averaged IoU; classes absent from both pred and truth are skipped."""
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    counts = cm.counts.astype(float)
    diag = np.diag(counts)
    # a pixel's true class has a positive denominator, so some class is kept
    denom = counts.sum(axis=1) + counts.sum(axis=0) - diag
    valid = denom > 0
    return float(np.mean(diag[valid] / denom[valid]))
