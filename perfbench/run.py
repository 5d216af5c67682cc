"""Benchmark of the labelgrid CLI pipeline: simulate -> fuse -> eval.

Usage (from the repository root):

    python3 perfbench/run.py --workload transit-320 --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

One process per run, closed loop, one child at a time. The benchmark
writes the workload's JSON inputs and runs ``labelgrid simulate`` (the
set-up), then alternates ``labelgrid fuse`` and ``labelgrid eval`` child
processes until ``--seconds`` have passed, timing each from outside and
checking its outputs against ``reference.json``. With ``--trace 1`` it
instead runs the same commands in-process, untraced and traced, and
reports per-layer times and counts from the spans (see ``spans.py`` and
``METRICS.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each metric value
is the median of the run's samples. Streams are written under
``.perfbench_work/`` in the checkout and deleted when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer
from workloads import (NUM_LABELS, CONFIDENCE, FLIP_RATE, ROI, TARGET_BOX,
                       TARGET_LABEL, WORKLOADS, Workload, roi_arg, write_inputs)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # children still running this long after a workload starts are killed

FUSE_FIELDS = ("frames_total", "frames_fused", "frames_gated", "pixels_skipped_depth",
               "pixels_skipped_roi", "cells", "updates_discarded")
EVAL_FIELDS = ("iou", "v_tp", "v_fp", "v_fn", "voxel_count", "centroid")
CSV_FIELDS = ("iou", "v_tp", "v_fp", "v_fn", "voxel_count")
REL_TOL = 1e-9  # float eval fields may differ in summation order, not in value


# --- child processes --------------------------------------------------------

@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], run_dir: Path, deadline: float) -> Child:
    """Run one labelgrid child to completion, timed from outside.

    Peak RSS comes from this child's own rusage (``os.wait4``), not from
    RUSAGE_CHILDREN, which is a maximum over every child so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = run_dir / "child.out", run_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "labelgrid.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=run_dir)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, rusage.ru_maxrss / 1024.0,
                 out_path.read_text(), err_path.read_text())


def import_time(deadline: float) -> float:
    """Seconds to import labelgrid.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import labelgrid.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    return float(proc.stdout.strip())


# --- commands ---------------------------------------------------------------

@dataclass
class Paths:
    run_dir: Path
    inputs: dict
    stream: Path
    grid: Path
    snaps: Path

    @property
    def manifest(self) -> Path:
        return self.stream / "manifest.json"


def simulate_argv(p: Paths, seed: int) -> list[str]:
    return ["simulate", "--scene", str(p.inputs["scene"]),
            "--trajectory", str(p.inputs["trajectory"]), "--out", str(p.stream),
            "--seed", str(seed), "--confidence", str(CONFIDENCE),
            "--flip-rate", str(FLIP_RATE), "--num-labels", str(NUM_LABELS)]


def fuse_argv(w: Workload, p: Paths) -> list[str]:
    argv = ["fuse", str(p.manifest), "--out", str(p.grid),
            "--resolution", str(w.resolution), "--num-labels", str(NUM_LABELS),
            "--roi", roi_arg()]
    if w.per_frame_snapshots:
        argv += ["--per-frame-snapshots", str(p.snaps)]
    return argv


def eval_argv(w: Workload, p: Paths) -> list[str]:
    target = p.snaps if w.per_frame_snapshots else p.grid
    return ["eval", str(target), "--boxes", str(p.inputs["boxes"]),
            "--label", str(TARGET_LABEL)]


def clear_outputs(p: Paths) -> None:
    shutil.rmtree(p.snaps, ignore_errors=True)
    p.grid.unlink(missing_ok=True)


# --- output checks ----------------------------------------------------------

def fuse_fields(stdout: str) -> dict:
    d = json.loads(stdout)
    got = dict(d["stats"])
    got["cells"] = d["cells"]
    got["updates_discarded"] = d["updates_discarded"]
    return {k: got[k] for k in FUSE_FIELDS}


def eval_fields(w: Workload, stdout: str) -> dict:
    """Eval report fields, or one column of values per field for a CSV curve."""
    if not w.per_frame_snapshots:
        report = json.loads(stdout)
        return {k: report[k] for k in EVAL_FIELDS}
    lines = stdout.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    columns = {"snapshot": [row["snapshot"] for row in rows]}
    for k in CSV_FIELDS:
        columns[k] = [int(row[k]) if k == "voxel_count" else float(row[k]) for row in rows]
    return columns


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)
    return a == b


def _diff(expected: dict, got: dict, where: str) -> list[str]:
    return [f"{where}: {k} = {got.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if not _close(v, got.get(k))]


def _invariants(report: dict, resolution: float, where: str) -> list[str]:
    """Relations every eval report satisfies, used when no reference is recorded."""
    (x0, y0, z0), (x1, y1, z1) = TARGET_BOX
    box_volume = (x1 - x0) * (y1 - y0) * (z1 - z0)
    v_tp, v_fp, v_fn = report["v_tp"], report["v_fp"], report["v_fn"]
    denom = v_tp + v_fp + v_fn
    checks = {
        "iou = tp / (tp + fp + fn)": math.isclose(report["iou"], v_tp / denom if denom else 0.0,
                                                  rel_tol=1e-9, abs_tol=1e-15),
        "tp + fn = box volume": math.isclose(v_tp + v_fn, box_volume, rel_tol=1e-9),
        "tp + fp = voxel volume": math.isclose(v_tp + v_fp,
                                               report["voxel_count"] * resolution ** 3,
                                               rel_tol=1e-9, abs_tol=1e-15),
    }
    if report.get("centroid") is not None:
        checks["centroid inside roi"] = all(
            lo <= c <= hi for c, lo, hi in zip(report["centroid"], ROI[0], ROI[1]))
    return [f"{where}: {name} does not hold" for name, ok in checks.items() if not ok]


class Checker:
    """Compares fuse stats and eval output with the recorded reference.

    Fuse stats depend only on geometry and are recorded once per workload.
    Eval fields depend on the noise seed; for a seed without a recorded
    reference the report is checked against the invariants above instead.
    """

    def __init__(self, w: Workload, seed: int, p: Paths):
        self.w, self.p = w, p
        ref = json.loads(REFERENCE.read_text())["workloads"][w.name]
        self.fuse_ref = ref["fuse"]
        self.eval_ref = ref["eval"].get(str(seed))

    def fuse(self, stdout: str) -> list[str]:
        problems = _diff(self.fuse_ref, fuse_fields(stdout), "fuse")
        if not self.p.grid.is_file():
            problems.append(f"fuse: {self.p.grid.name} was not written")
        if self.w.per_frame_snapshots:
            written = len(list(self.p.snaps.glob("*.lgrid")))
            if written != self.fuse_ref["frames_total"]:
                problems.append(f"fuse: {written} per-frame snapshots, "
                                f"expected {self.fuse_ref['frames_total']}")
        return problems

    def eval(self, stdout: str) -> list[str]:
        got = eval_fields(self.w, stdout)
        if self.eval_ref is not None:
            return _diff(self.eval_ref, got, "eval")
        if not self.w.per_frame_snapshots:
            rows = [got]
        else:
            rows = [dict(zip(got, values)) for values in zip(*got.values())]
        problems = []
        for row in rows:
            problems += _invariants(row, self.w.resolution,
                                    f"eval {row.get('snapshot', '')}".rstrip())
        if self.w.per_frame_snapshots and len(rows) != self.fuse_ref["frames_total"]:
            problems.append(f"eval: {len(rows)} curve rows, expected "
                            f"{self.fuse_ref['frames_total']}")
        if not rows or rows[-1]["voxel_count"] == 0:
            problems.append("eval: the fused segment is empty")
        return problems


# --- results ----------------------------------------------------------------

@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # metric -> list of values
    units: dict = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.samples.setdefault(name, []).append(value)
        self.units[name] = unit

    def outcome(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def metrics(self) -> dict:
        return {name: {"value": statistics.median(vals), "unit": self.units[name]}
                for name, vals in self.samples.items() if vals}


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def print_summary(workload: str, result: Result) -> None:
    for name, vals in result.samples.items():
        tail = tail_percentile(vals)
        tail_text = ("p(10 beyond) n/a" if tail is None
                     else f"p{tail[0]:.0f} {tail[1]:.6g}")
        print(f"{workload:15s} {name:40s} median {statistics.median(vals):12.6g} "
              f"{result.units[name]:6s} {tail_text:22s} n={len(vals)}")
    for problem in result.problems:
        print(f"{workload:15s} CHECK FAILED {problem}")


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed,
            "commit": commit}


# --- untraced run: CLI children ---------------------------------------------

def setup(w: Workload, seed: int, p: Paths, result: Result, deadline: float) -> bool:
    """Write inputs and simulate the stream SETUP_REPEATS times; keeps the last."""
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(p.stream, ignore_errors=True)
        start = time.perf_counter()
        p.inputs = write_inputs(w, p.run_dir)
        child = run_child(simulate_argv(p, seed), p.run_dir, deadline)
        elapsed = time.perf_counter() - start
        if not result.outcome(_exit_problems("simulate", child)):
            return False
        result.add("setup_s", elapsed, "s")
    return True


def _exit_problems(what: str, child: Child) -> list[str]:
    if child.exit_code == 0:
        return []
    return [f"{what}: exit code {child.exit_code}: {child.stderr.strip()[-500:]}"]


def run_untraced(w: Workload, seed: int, seconds: float, p: Paths, deadline: float) -> Result:
    result = Result()
    # warm the interpreter's bytecode and the file cache; users have both
    import_time(deadline)
    if not setup(w, seed, p, result, deadline):
        return result
    checker = Checker(w, seed, p)
    stop = time.perf_counter() + seconds
    while True:
        clear_outputs(p)
        fuse = run_child(fuse_argv(w, p), p.run_dir, deadline)
        if not result.outcome(_exit_problems("fuse", fuse) or checker.fuse(fuse.stdout)):
            return result
        result.add("fuse_s", fuse.wall_s, "s")
        result.add("fuse_peak_rss_mb", fuse.peak_rss_mb, "MB")
        # a short eval is repeated, up to half the fuse time, so that both
        # metrics get a comparable share of the run's samples
        eval_spent = 0.0
        while eval_spent < fuse.wall_s / 2:
            ev = run_child(eval_argv(w, p), p.run_dir, deadline)
            if not result.outcome(_exit_problems("eval", ev) or checker.eval(ev.stdout)):
                return result
            result.add("eval_s", ev.wall_s, "s")
            eval_spent += ev.wall_s
        if time.perf_counter() >= stop:
            return result


# --- traced run: in-process -------------------------------------------------

def _labelgrid_modules() -> dict:
    sys.path.insert(0, str(SRC))
    from labelgrid import cli, fileio, fusion, grid, simulator
    return {"cli": cli, "fileio": fileio, "fusion": fusion, "grid": grid,
            "simulator": simulator}


def _in_process(modules: dict, argv: list[str]) -> tuple[float, str, list[str]]:
    """Wall time, stdout and exit problems of one in-process CLI command."""
    buf, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = modules["cli"].main(argv)
    elapsed = time.perf_counter() - start
    problems = ([f"{argv[0]}: exit code {code}: {err.getvalue().strip()[-500:]}"]
                if code else [])
    return elapsed, buf.getvalue(), problems


def _layer_metrics(tracer: Tracer, stats: dict, result: Result) -> None:
    tot, own, counts = tracer.totals(), tracer.self_totals(), tracer.counts
    decoded = tracer.calls("fileio.load_frame")
    reg = tracer.durations("registration.register_frame")
    updates = counts["registration.voxels_out"]
    add = result.add
    add("fileio.load_frame_s", tot["fileio.load_frame"], "s")
    add("fileio.frames_decoded", decoded, "count")
    add("fileio.frame_bytes_read", counts["fileio.frame_bytes_read"], "B")
    add("fileio.decode_useful_ratio", stats["frames_fused"] / decoded, "ratio")
    add("fusion.frames_fused", stats["frames_fused"], "count")
    add("fusion.frames_gated", stats["frames_gated"], "count")
    add("registration.register_frame_s", tot["registration.register_frame"], "s")
    add("registration.register_frame_median_s", statistics.median(reg), "s")
    add("registration.register_frame_calls", len(reg), "count")
    add("registration.pixels_in", counts["registration.pixels_in"], "count")
    add("registration.voxels_out", updates, "count")
    add("registration.pixels_per_voxel", counts["registration.pixels_in"] / updates, "ratio")
    add("grid.update_s", own["fusion.fuse_stream"], "s")
    add("grid.updates", updates, "count")
    add("grid.update_us_per_voxel", 1e6 * own["fusion.fuse_stream"] / updates, "us")
    add("grid.cells", stats["cells"], "count")
    add("grid.updates_discarded", stats["updates_discarded"], "count")
    add("fileio.save_grid_s", tot["fileio.save_grid"], "s")
    add("fileio.snapshots_written", tracer.calls("fileio.save_grid"), "count")
    add("fileio.snapshot_bytes", counts["fileio.snapshot_bytes"], "B")
    add("fileio.load_grid_s", tot["fileio.load_grid"], "s")
    add("fileio.snapshots_read", tracer.calls("fileio.load_grid"), "count")
    add("grid.segment_s", tot["grid.segment"], "s")
    add("grid.segment_calls", tracer.calls("grid.segment"), "count")
    add("grid.centroid_s", own["grid.centroid"], "s")
    add("metrics.iou_3d_s", tot["metrics.iou_3d"], "s")


def _simulator_metrics(sim_tracer: Tracer, result: Result) -> None:
    sim, add = sim_tracer.totals(), result.add
    add("simulator.render_scene_s", sim["simulator.render_scene"], "s")
    add("simulator.render_proba_s", sim["simulator.render_proba"], "s")
    add("fileio.write_probimg_s", sim["fileio.write_probimg"], "s")
    add("fileio.write_depth_pgm_s", sim["fileio.write_depth_pgm"], "s")


def run_traced(w: Workload, seed: int, seconds: float, p: Paths, deadline: float) -> Result:
    result = Result()
    for _ in range(IMPORT_REPEATS):
        result.add("cli.import_s", import_time(deadline), "s")
    modules = _labelgrid_modules()
    p.inputs = write_inputs(w, p.run_dir)
    sim_tracer = Tracer()
    with sim_tracer.patched(modules):
        _, _, problems = _in_process(modules, simulate_argv(p, seed))
    if not result.outcome(problems):
        return result
    _simulator_metrics(sim_tracer, result)
    checker = Checker(w, seed, p)
    stop = time.perf_counter() + seconds
    while True:
        tracer = Tracer()
        walls = {}
        for traced in (False, True):
            clear_outputs(p)
            with tracer.patched(modules) if traced else contextlib.nullcontext():
                walls["fuse", traced], fuse_out, problems = _in_process(modules, fuse_argv(w, p))
            if not result.outcome(problems or checker.fuse(fuse_out)):
                return result
            with tracer.patched(modules) if traced else contextlib.nullcontext():
                walls["eval", traced], eval_out, problems = _in_process(modules, eval_argv(w, p))
            if not result.outcome(problems or checker.eval(eval_out)):
                return result
        _layer_metrics(tracer, fuse_fields(fuse_out), result)
        result.add("cli.fuse_inprocess_s", walls["fuse", False], "s")
        result.add("cli.eval_inprocess_s", walls["eval", False], "s")
        result.add("trace.overhead_s", walls["fuse", True] + walls["eval", True]
                   - walls["fuse", False] - walls["eval", False], "s")
        if time.perf_counter() >= stop:
            break
    spans_out = WORK / "spans"
    spans_out.mkdir(parents=True, exist_ok=True)
    (spans_out / f"{w.name}-seed{seed}.json").write_text(json.dumps(
        {"simulate": sim_tracer.dump(), "fuse_eval": tracer.dump()}))
    return result


# --- entry point ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    w = WORKLOADS[name]
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    p = Paths(run_dir, {}, run_dir / "stream", run_dir / "grid.lgrid", run_dir / "snaps")
    try:
        runner = run_traced if trace else run_untraced
        return runner(w, seed, seconds, p, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the fuse/eval loop of one workload runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and the stream deleted
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "labelgrid" / "cli.py").is_file():
        print(f"error: no labelgrid sources under {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    merged = Result()
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, result)
        merged.attempted += result.attempted
        merged.failed += result.failed
        prefix = f"{name}/" if args.workload == "all" else ""
        for metric, vals in result.samples.items():
            merged.samples[prefix + metric] = vals
            merged.units[prefix + metric] = result.units[metric]
    print(json.dumps({"correct": merged.failed == 0 and merged.attempted > 0,
                      "attempted": merged.attempted, "failed": merged.failed,
                      "metrics": merged.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
