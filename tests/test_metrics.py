"""Metrics: exact cube/box IoU with a Monte-Carlo oracle, 2D pixel metrics."""

import math

import numpy as np
import pytest

from labelgrid import (Box3, ConfusionMatrix, confusion, iou_3d, mean_iu,
                       pixelwise_accuracy)

MEAN_IU_3124 = 0.5357142857142857  # (3/6 + 4/7) / 2 for counts [[3,1],[2,4]]


def tile_box(box, res):
    """All voxel keys exactly tiling an axis-aligned box (lattice-aligned)."""
    lo = np.round(np.asarray(box.min) / res).astype(int)
    hi = np.round(np.asarray(box.max) / res).astype(int)
    return [(ix, iy, iz)
            for ix in range(lo[0], hi[0])
            for iy in range(lo[1], hi[1])
            for iz in range(lo[2], hi[2])]


class TestIou3d:
    def test_perfect_tiling(self):
        box = Box3((0, 0, 0), (2, 1, 1))
        report = iou_3d(tile_box(box, 1.0), 1.0, box)
        assert report.iou == pytest.approx(1.0, abs=1e-12)
        assert report.v_fp == pytest.approx(0.0, abs=1e-12)
        assert report.v_fn == pytest.approx(0.0, abs=1e-12)

    def test_disjoint(self):
        box = Box3((0, 0, 0), (1, 1, 1))
        report = iou_3d([(5, 5, 5)], 1.0, box)
        assert report.iou == 0.0
        assert report.v_tp == 0.0
        assert report.v_fn == pytest.approx(box.volume)

    def test_analytic_third(self):
        box = Box3((0, 0, 0), (2, 1, 1))
        voxels = [(1, 0, 0), (2, 0, 0)]  # tiles [1,0,0]..[3,1,1]
        report = iou_3d(voxels, 1.0, box)
        assert report.v_tp == pytest.approx(1.0, abs=1e-12)
        assert report.v_fp == pytest.approx(1.0, abs=1e-12)
        assert report.v_fn == pytest.approx(1.0, abs=1e-12)
        assert report.iou == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_voxel_set(self):
        box = Box3((0, 0, 0), (1, 2, 3))
        report = iou_3d([], 0.01, box)
        assert report.iou == 0.0
        assert report.v_fn == pytest.approx(box.volume)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf, 0.0, -0.01])
    def test_resolution_must_be_positive_and_finite(self, resolution):
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            iou_3d([(0, 0, 0)], resolution, Box3((0, 0, 0), (1, 1, 1)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        res = 0.1
        box = Box3((0.03, -0.07, 0.11), (0.41, 0.29, 0.52))
        voxels = [tuple(v) for v in rng.integers(-3, 6, size=(40, 3))]
        base = iou_3d(set(voxels), res, box)
        shift = np.array([7, -4, 11])
        moved_box = Box3(tuple(np.asarray(box.min) + shift * res),
                         tuple(np.asarray(box.max) + shift * res))
        moved = iou_3d({tuple(np.asarray(v) + shift) for v in voxels}, res, moved_box)
        assert moved.v_tp == pytest.approx(base.v_tp, abs=1e-12)
        assert moved.iou == pytest.approx(base.iou, abs=1e-12)

    def test_fully_inside_fraction(self):
        box = Box3((0, 0, 0), (1, 1, 1))
        voxels = [(0, 0, 0), (1, 1, 1)]  # res 0.5: both cubes inside the box
        report = iou_3d(voxels, 0.5, box)
        assert report.v_tp == pytest.approx(2 * 0.5 ** 3, abs=1e-12)
        assert report.iou == pytest.approx(2 * 0.5 ** 3 / box.volume, abs=1e-12)

    def test_tp_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            res = float(rng.uniform(0.05, 0.3))
            voxels = {tuple(v) for v in rng.integers(-4, 5, size=(30, 3))}
            lo = rng.uniform(-1, 0, size=3)
            hi = lo + rng.uniform(0.2, 2.0, size=3)
            box = Box3(tuple(lo), tuple(hi))
            report = iou_3d(voxels, res, box)
            assert report.v_tp <= min(len(voxels) * res ** 3, box.volume) + 1e-12
            assert 0.0 <= report.iou <= 1.0

    def test_monte_carlo_volume_oracle(self):
        """Rejection sampling inside the box vs the analytic v_tp."""
        rng = np.random.default_rng(20)
        samples = 200_000
        for case in range(10):
            res = float(rng.uniform(0.08, 0.25))
            voxels = {tuple(v) for v in rng.integers(-3, 4, size=(60, 3))}
            lo = rng.uniform(-0.8, 0.0, size=3)
            hi = lo + rng.uniform(0.4, 1.6, size=3)
            box = Box3(tuple(lo), tuple(hi))
            report = iou_3d(voxels, res, box)

            pts = rng.uniform(lo, hi, size=(samples, 3))
            keys = np.floor(pts / res).astype(int)
            hits = np.fromiter((tuple(k) in voxels for k in keys), bool, samples)
            p_hat = hits.mean()
            estimate = p_hat * box.volume
            p_true = report.v_tp / box.volume
            sigma = box.volume * np.sqrt(p_true * (1.0 - p_true) / samples)
            assert abs(estimate - report.v_tp) <= 3.0 * sigma + 1e-12

    def test_key_array_in_any_order_equals_key_set(self):
        rng = np.random.default_rng(21)
        box = Box3((-0.33, -0.1, 0.05), (0.41, 0.27, 0.6))
        keys = np.unique(rng.integers(-9, 9, size=(400, 3)), axis=0)
        from_set = iou_3d({tuple(k) for k in keys.tolist()}, 0.05, box)
        for order in (np.arange(len(keys)), rng.permutation(len(keys))):
            assert iou_3d(keys[order], 0.05, box) == from_set


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        img = np.arange(12).reshape(3, 4) % 3
        cm = confusion(img, img, 3)
        assert np.trace(cm.counts) == 12
        assert cm.counts.sum() == 12
        assert np.all(cm.counts == np.diag(np.diag(cm.counts)))

    def test_tiny_hand_case(self):
        pred = np.array([[0, 1]])
        truth = np.array([[1, 1]])
        cm = confusion(pred, truth, 2)
        assert cm.counts[1, 0] == 1
        assert cm.counts[1, 1] == 1
        assert cm.counts[0, 0] == 0 and cm.counts[0, 1] == 0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(13)
        pred = rng.integers(0, 4, size=(4, 4))
        truth = rng.integers(0, 4, size=(4, 4))
        cm = confusion(pred, truth, 4)
        tally = np.zeros((4, 4), dtype=int)
        for v in range(4):
            for u in range(4):
                tally[truth[v, u], pred[v, u]] += 1
        assert np.array_equal(cm.counts, tally)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((2, 2), int), np.zeros((2, 3), int), 2)

    def test_out_of_range_reports_pixel(self):
        pred = np.zeros((2, 2), dtype=int)
        pred[1, 0] = 9
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            confusion(pred, np.zeros((2, 2), dtype=int), 2)


class TestPixelwiseAccuracy:
    def test_diagonal_only(self):
        cm = ConfusionMatrix(np.diag([3, 5, 2]))
        assert pixelwise_accuracy(cm) == 1.0

    def test_hand_tally(self):
        cm = ConfusionMatrix(np.array([[3, 1], [2, 4]]))
        assert pixelwise_accuracy(cm) == pytest.approx(0.7, abs=1e-12)

    def test_all_off_diagonal(self):
        cm = ConfusionMatrix(np.array([[0, 2], [3, 0]]))
        assert pixelwise_accuracy(cm) == 0.0

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError):
            pixelwise_accuracy(ConfusionMatrix(np.zeros((2, 2), dtype=int)))


class TestMeanIu:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([3, 5, 2]))
        assert mean_iu(cm) == 1.0

    def test_hand_computation(self):
        cm = ConfusionMatrix(np.array([[3, 1], [2, 4]]))
        assert mean_iu(cm) == pytest.approx(MEAN_IU_3124, abs=1e-10)

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix(np.array([[5, 0], [0, 0]]))
        assert mean_iu(cm) == 1.0

    def test_all_degenerate_raises(self):
        with pytest.raises(ValueError):
            mean_iu(ConfusionMatrix(np.zeros((3, 3), dtype=int)))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(14)
        pred = rng.integers(0, 5, size=(20, 20))
        truth = rng.integers(0, 5, size=(20, 20))
        perm = rng.permutation(5)
        base_cm = confusion(pred, truth, 5)
        relabeled_cm = confusion(perm[pred], perm[truth], 5)
        assert mean_iu(relabeled_cm) == pytest.approx(mean_iu(base_cm), abs=1e-12)
        assert pixelwise_accuracy(relabeled_cm) == pytest.approx(
            pixelwise_accuracy(base_cm), abs=1e-12)


class TestValidation:
    def test_box_requires_positive_extent(self):
        with pytest.raises(ValueError):
            Box3((0, 0, 0), (1, 0, 1))

    def test_confusion_matrix_requires_integers(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -2], [0, 3]]))
