"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass line per criterion alongside pytest's own pass/fail report.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from conftest import (RESOLUTION, TARGET_BOX, TARGET_LABEL, make_bin_scene,
                      make_trajectory, view_end_times, write_cli_inputs)
from labelgrid import (Box3, CameraIntrinsics, ConfusionMatrix, GateConfig,
                       LabelOccupancyGrid, iou_3d, fuse_stream, logit,
                       look_at, mean_iu, pixelwise_accuracy, probability,
                       softmax_image)
from labelgrid.cli import main as cli_main
from labelgrid.fileio import grid_to_bytes
from labelgrid.simulator import NoiseModel, render_scene, simulate_frames

pytestmark = pytest.mark.kernels

INTR = CameraIntrinsics(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)
NOISE = NoiseModel(confidence=0.8, flip_rate=0.05, seed=42)
NUM_LABELS = 40


def note(number: int, message: str) -> None:
    print(f"\n[criterion {number:02d}] PASS - {message}")


@pytest.fixture(scope="module")
def occlusion_run():
    """The fixed multi-view occlusion experiment, fused once per module."""
    scene = make_bin_scene()
    start = time.perf_counter()
    frames = simulate_frames(scene, make_trajectory(0), INTR, NOISE, NUM_LABELS)
    grid = LabelOccupancyGrid(RESOLUTION, NUM_LABELS, clamp=3.5, roi=scene.roi)
    boundaries = set(view_end_times())
    ious, centroids = [], []

    def on_frame(index, frame, fused):
        if frame.timestamp in boundaries:
            segment = grid.segment(TARGET_LABEL)
            ious.append(iou_3d(segment, RESOLUTION, TARGET_BOX).iou)
            centroids.append(grid.centroid(TARGET_LABEL))

    stats = fuse_stream(grid, frames, GateConfig(), on_frame=on_frame)
    elapsed = time.perf_counter() - start
    return {"grid": grid, "stats": stats, "ious": ious, "centroids": centroids,
            "elapsed": elapsed, "scene": scene}


def test_criterion_01_log_odds_recursion_additivity():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(1, 101))
        ps = rng.uniform(0.05, 0.95, size=k)
        grid = LabelOccupancyGrid(0.01, 2, clamp=math.inf)
        folded = 0.0
        for p in ps:
            grid.update_voxel((0, 0, 0), 1, float(p))
            folded += logit(float(p))
        assert abs(grid.log_odds((0, 0, 0), 1) - folded) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(1, f"1000 random update scripts match the logit fold to 1e-12 "
            f"in {elapsed:.2f}s")


def test_criterion_02_probability_recovery_round_trip():
    worst = 0.0
    for i in range(1, 1000):
        p = i / 1000.0
        worst = max(worst, abs(probability(logit(p)) - p))
    assert worst <= 1e-12
    note(2, f"probability(logit(p)) round-trips p in {{0.001..0.999}} "
            f"(worst {worst:.2e})")


def test_criterion_03_sparse_matches_dense_oracle():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    clamp = 3.5
    dense = np.zeros((8, 8, 8, 4))
    grid = LabelOccupancyGrid(0.05, 4, clamp=clamp)
    for _ in range(10_000):
        ix, iy, iz = (int(v) for v in rng.integers(0, 8, size=3))
        label = int(rng.integers(0, 4))
        p = float(rng.uniform(0.05, 0.95))
        dense[ix, iy, iz, label] = np.clip(
            dense[ix, iy, iz, label] + np.log(p / (1.0 - p)), -clamp, clamp)
        grid.update_voxel((ix, iy, iz), label, p)
    worst = 0.0
    for ix in range(8):
        for iy in range(8):
            for iz in range(8):
                for label in range(4):
                    oracle = 1.0 - 1.0 / (1.0 + np.exp(dense[ix, iy, iz, label]))
                    got = grid.voxel_probability((ix, iy, iz), label)
                    worst = max(worst, abs(got - oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    note(3, f"10k updates: sparse grid equals dense-array oracle "
            f"(worst {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_04_softmax_contract():
    rng = np.random.default_rng(4)
    logits = rng.normal(scale=4.0, size=(250, 400, 41))
    probs = softmax_image(logits)
    sum_err = float(np.abs(probs.sum(axis=2) - 1.0).max())
    assert sum_err <= 1e-6
    assert np.array_equal(np.argmax(probs, axis=2), np.argmax(logits, axis=2))
    shifted = softmax_image(logits + 123.456)
    shift_err = float(np.abs(shifted - probs).max())
    assert shift_err <= 1e-6
    note(4, f"softmax on 1e5 pixels: sums within {sum_err:.1e}, argmax "
            f"preserved, shift-invariant within {shift_err:.1e}")


def test_criterion_05_multi_view_densification(occlusion_run):
    # precondition: the lip hides at least half the target from view 1
    frontal = look_at((0.15, 0.10, -0.30), (0.15, 0.10, 0.33))
    _, occluded = render_scene(occlusion_run["scene"], frontal, INTR)
    _, free = render_scene(make_bin_scene(with_occluders=False), frontal, INTR)
    hidden = 1.0 - (occluded == TARGET_LABEL).sum() / (free == TARGET_LABEL).sum()
    assert hidden >= 0.5

    ious = occlusion_run["ious"]
    assert len(ious) == 4
    assert ious[0] > 0.0
    assert ious[3] >= 1.5 * ious[0]
    assert all(b >= a for a, b in zip(ious, ious[1:]))
    assert occlusion_run["elapsed"] < 30.0
    note(5, f"lip hides {hidden:.0%}; per-view IoU "
            f"{[round(v, 4) for v in ious]} rises {ious[3] / ious[0]:.1f}x "
            f"in {occlusion_run['elapsed']:.1f}s")


def test_criterion_06_gated_frames_change_nothing(occlusion_run):
    scene = occlusion_run["scene"]
    frames = simulate_frames(scene, make_trajectory(2), INTR, NOISE, NUM_LABELS)
    grid = LabelOccupancyGrid(RESOLUTION, NUM_LABELS, clamp=3.5, roi=scene.roi)
    stats = fuse_stream(grid, frames, GateConfig())
    assert stats.frames_total == 22
    assert stats.frames_fused == occlusion_run["stats"].frames_fused
    baseline = grid_to_bytes(occlusion_run["grid"])
    with_transitions = grid_to_bytes(grid)
    assert with_transitions == baseline
    note(6, f"interpolated moving frames ({stats.frames_gated} gated) "
            f"leave the snapshot byte-identical")


def test_criterion_07_iou3d_analytic_and_monte_carlo():
    analytic = iou_3d([(1, 0, 0), (2, 0, 0)], 1.0, Box3((0, 0, 0), (2, 1, 1)))
    assert analytic.v_tp == pytest.approx(1.0, abs=1e-12)
    assert analytic.v_fp == pytest.approx(1.0, abs=1e-12)
    assert analytic.v_fn == pytest.approx(1.0, abs=1e-12)
    assert analytic.iou == pytest.approx(1.0 / 3.0, abs=1e-15)

    rng = np.random.default_rng(7)
    samples = 1_000_000
    worst_sigma = 0.0
    for _ in range(100):
        res = float(rng.uniform(0.05, 0.3))
        keys = rng.integers(-4, 5, size=(int(rng.integers(5, 80)), 3))
        voxels = {tuple(int(v) for v in key) for key in keys}
        lo = rng.uniform(-1.0, 0.2, size=3)
        hi = lo + rng.uniform(0.3, 1.8, size=3)
        box = Box3(tuple(lo), tuple(hi))
        report = iou_3d(voxels, res, box)

        pts = rng.uniform(lo, hi, size=(samples, 3))
        pk = np.floor(pts / res).astype(np.int64)
        code = (pk[:, 0] + 64) * 256 * 256 + (pk[:, 1] + 64) * 256 + (pk[:, 2] + 64)
        vox_codes = np.asarray(
            [(ix + 64) * 256 * 256 + (iy + 64) * 256 + (iz + 64)
             for ix, iy, iz in voxels], dtype=np.int64)
        estimate = float(np.isin(code, vox_codes).mean()) * box.volume

        p_true = report.v_tp / box.volume
        sigma = box.volume * math.sqrt(p_true * (1.0 - p_true) / samples)
        err = abs(estimate - report.v_tp)
        assert err <= 3.0 * sigma + 1e-15
        worst_sigma = max(worst_sigma, err / sigma if sigma > 0 else 0.0)
    note(7, f"analytic case exactly 1/3; 100 randomized cases within 3 sigma "
            f"of the 1e6-sample Monte-Carlo oracle (worst {worst_sigma:.2f} sigma)")


def test_criterion_08_2d_metric_formulas():
    cm = ConfusionMatrix(np.array([[3, 1], [2, 4]]))
    acc = pixelwise_accuracy(cm)
    miu = mean_iu(cm)
    assert abs(acc - 0.7) <= 1e-10
    assert abs(miu - 0.5357142857) <= 1e-10
    note(8, f"counts [[3,1],[2,4]]: pixelwise accuracy {acc}, mean IU {miu:.10f}")


def test_criterion_09_centroid_stabilizes(occlusion_run):
    centroids = occlusion_run["centroids"]
    center = TARGET_BOX.center
    d_first = float(np.linalg.norm(centroids[0] - center))
    d_last = float(np.linalg.norm(centroids[3] - center))
    assert d_last <= d_first
    note(9, f"centroid error shrinks {d_first:.4f} m -> {d_last:.4f} m "
            f"after four views")


def test_criterion_10_end_to_end_determinism(tmp_path):
    inputs = write_cli_inputs(tmp_path)
    artifacts = []
    for name in ("run_a", "run_b"):
        base = tmp_path / name
        base.mkdir()
        stream = base / "stream"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli_main(["simulate",
                             "--scene", str(inputs["scene"]),
                             "--trajectory", str(inputs["trajectory"]),
                             "--seed", "42", "--confidence", "0.8",
                             "--flip-rate", "0.05", "--num-labels", "40",
                             "--out", str(stream)]) == 0
            assert cli_main(["fuse", str(stream / "manifest.json"),
                             "--resolution", str(RESOLUTION),
                             "--num-labels", "40",
                             "--roi", "0,0,0,0.3,0.3,0.4",
                             "--out", str(base / "grid.lgrid")]) == 0
            assert cli_main(["eval", str(base / "grid.lgrid"),
                             "--boxes", str(inputs["boxes"]),
                             "--label", str(TARGET_LABEL),
                             "--out", str(base / "report.json")]) == 0
        fuse_stats = stdout.getvalue().split("\n", 1)[1]  # drop manifest path line
        artifacts.append({
            "snapshot": (base / "grid.lgrid").read_bytes(),
            "report": (base / "report.json").read_bytes(),
            "stats": fuse_stats,
            "stream": {p.name: p.read_bytes() for p in sorted(stream.iterdir())},
        })
    assert artifacts[0]["snapshot"] == artifacts[1]["snapshot"]
    assert artifacts[0]["report"] == artifacts[1]["report"]
    assert artifacts[0]["stats"] == artifacts[1]["stats"]
    assert artifacts[0]["stream"] == artifacts[1]["stream"]
    note(10, "two simulate->fuse->eval runs with seed 42 are byte-identical "
             "(stream, snapshot, report, stats)")
