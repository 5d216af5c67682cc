"""Golden outputs: the pipeline's bytes on the canonical stream stay fixed.

Runs ``simulate -> fuse --roi --per-frame-snapshots -> eval`` (the JSON
report of the final snapshot and the CSV curve of the per-frame ones)
through the CLI on the 64x64 occluded-bin scene with two transition frames
per view change, at seed 42. The sha256 of every file the commands write,
and of the fuse stdout, must equal the digests below.

The digests were recorded with numpy 2.4.6. A change that alters any of
these bytes must update the digests and say in CHANGES.md which outputs
change and why. ``PYTHONPATH=src python tests/test_golden.py`` prints the
current table.

A second test fuses a two-label stream with numpy's AVX-512 kernels on
and off and requires the same LGRID1 bytes.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import labelgrid
from conftest import write_cli_inputs
from labelgrid import CameraIntrinsics, Pose
from labelgrid.cli import main
from labelgrid.fileio import pose_record, write_depth_pgm, write_manifest, write_probimg

pytestmark = pytest.mark.kernels

GOLDEN = {
    "fuse.stdout": "3238ae736964945b77b535cf916295a1452cddb18b273ded0c646892f768a216",
    "eval.csv": "ad7fb94935cb0e3d716e4be8b5abdf5c1e04396e3eeb2559dd65ef659146f386",
    "eval.json": "17374f78293d2079b368d70ef23aa9c101232337c3cd1209aeaba994041ebb5b",
    "grid.lgrid": "dd55fedb38d84b1151553cd6e9c54a8bad162980e4f197425126a4a946dcd934",
    "snaps/frame_0000.lgrid": "7531c0ce94def2a1bf6ecf861a35dbf29dff941b7d4f769b14f982a8005b844e",
    "snaps/frame_0001.lgrid": "642d4ad2f30315767ff4642e242d46d0b83d8fe6ae5955afe07a56f570362060",
    "snaps/frame_0002.lgrid": "5c7302ee91031100439bf8fb8b38e57513ff3fe963fdc2398ac894099af56be7",
    "snaps/frame_0003.lgrid": "7aa9d374d8f36a8976db06765634c403268bdcb86a319c58056ba8bb87eaf8af",
    "snaps/frame_0004.lgrid": "7aa9d374d8f36a8976db06765634c403268bdcb86a319c58056ba8bb87eaf8af",
    "snaps/frame_0005.lgrid": "7aa9d374d8f36a8976db06765634c403268bdcb86a319c58056ba8bb87eaf8af",
    "snaps/frame_0006.lgrid": "7aa9d374d8f36a8976db06765634c403268bdcb86a319c58056ba8bb87eaf8af",
    "snaps/frame_0007.lgrid": "7aa9d374d8f36a8976db06765634c403268bdcb86a319c58056ba8bb87eaf8af",
    "snaps/frame_0008.lgrid": "c4ff6826baa944e1fe0ab874e9ec23876c582db3aa92bd5a1ec03842722f4e88",
    "snaps/frame_0009.lgrid": "15a184de588682d4f2d08602c1824eb8ca41154a4857efd090273ae1e196ddfa",
    "snaps/frame_0010.lgrid": "15a184de588682d4f2d08602c1824eb8ca41154a4857efd090273ae1e196ddfa",
    "snaps/frame_0011.lgrid": "15a184de588682d4f2d08602c1824eb8ca41154a4857efd090273ae1e196ddfa",
    "snaps/frame_0012.lgrid": "15a184de588682d4f2d08602c1824eb8ca41154a4857efd090273ae1e196ddfa",
    "snaps/frame_0013.lgrid": "15a184de588682d4f2d08602c1824eb8ca41154a4857efd090273ae1e196ddfa",
    "snaps/frame_0014.lgrid": "5862d73d4901999c4acfd1581224568481fc7d030f65c0575ff0865fb63cd76a",
    "snaps/frame_0015.lgrid": "1a162fad9d7774a94ccca85c2632be4e4bc7beabd5861b8181e5609991ee5492",
    "snaps/frame_0016.lgrid": "1a162fad9d7774a94ccca85c2632be4e4bc7beabd5861b8181e5609991ee5492",
    "snaps/frame_0017.lgrid": "1a162fad9d7774a94ccca85c2632be4e4bc7beabd5861b8181e5609991ee5492",
    "snaps/frame_0018.lgrid": "1a162fad9d7774a94ccca85c2632be4e4bc7beabd5861b8181e5609991ee5492",
    "snaps/frame_0019.lgrid": "1a162fad9d7774a94ccca85c2632be4e4bc7beabd5861b8181e5609991ee5492",
    "snaps/frame_0020.lgrid": "2e12041089ad7784acf86a67719d93d550f53a51dd8107e281cd037c16aeb4af",
    "snaps/frame_0021.lgrid": "dd55fedb38d84b1151553cd6e9c54a8bad162980e4f197425126a4a946dcd934",
    "stream/depth_0000.pgm": "d58b33d78ab38f1039d99fcc4fea57305892f8000a8f067a838bf1489ca36c51",
    "stream/depth_0001.pgm": "d58b33d78ab38f1039d99fcc4fea57305892f8000a8f067a838bf1489ca36c51",
    "stream/depth_0002.pgm": "d58b33d78ab38f1039d99fcc4fea57305892f8000a8f067a838bf1489ca36c51",
    "stream/depth_0003.pgm": "d58b33d78ab38f1039d99fcc4fea57305892f8000a8f067a838bf1489ca36c51",
    "stream/depth_0004.pgm": "6e536ec7212ec6fcec867496f8263da99623be7fc4e05bf21d3a495c54033846",
    "stream/depth_0005.pgm": "bb360b0f2ddfe83af2f540ccc737eaf7a8669fcea27eb5d400e3f5c2ec407dd8",
    "stream/depth_0006.pgm": "69a7394894e87f4d252a876cad64a1ca96d7e25f103fee19e514d1c9bcc59ad7",
    "stream/depth_0007.pgm": "69a7394894e87f4d252a876cad64a1ca96d7e25f103fee19e514d1c9bcc59ad7",
    "stream/depth_0008.pgm": "69a7394894e87f4d252a876cad64a1ca96d7e25f103fee19e514d1c9bcc59ad7",
    "stream/depth_0009.pgm": "69a7394894e87f4d252a876cad64a1ca96d7e25f103fee19e514d1c9bcc59ad7",
    "stream/depth_0010.pgm": "473d53fd9a59ab746763c3123632dc5b4c7671167afdbe0b90053da663b6b3ff",
    "stream/depth_0011.pgm": "faa91f41892550bb93384f474d3402adeec2ba5ca095d27edb587bcdb0c2a980",
    "stream/depth_0012.pgm": "39615d75822bf6740675b704e1d9599b5f05e99e4c1650bbdd974e9a23ee5459",
    "stream/depth_0013.pgm": "39615d75822bf6740675b704e1d9599b5f05e99e4c1650bbdd974e9a23ee5459",
    "stream/depth_0014.pgm": "39615d75822bf6740675b704e1d9599b5f05e99e4c1650bbdd974e9a23ee5459",
    "stream/depth_0015.pgm": "39615d75822bf6740675b704e1d9599b5f05e99e4c1650bbdd974e9a23ee5459",
    "stream/depth_0016.pgm": "8b2d599bf4e61bec3c4ca9008a58ff4c8a84999df86c016dd92e9c92ea79c1b5",
    "stream/depth_0017.pgm": "db178d19447fb9a2ef6256be2d067ce98cdfb3287d5b331bb4f185a3fc9eeb15",
    "stream/depth_0018.pgm": "ae50a46461316e7ea6bf1f7b61b394724b98e67ac3aae5471747c987b8071dcd",
    "stream/depth_0019.pgm": "ae50a46461316e7ea6bf1f7b61b394724b98e67ac3aae5471747c987b8071dcd",
    "stream/depth_0020.pgm": "ae50a46461316e7ea6bf1f7b61b394724b98e67ac3aae5471747c987b8071dcd",
    "stream/depth_0021.pgm": "ae50a46461316e7ea6bf1f7b61b394724b98e67ac3aae5471747c987b8071dcd",
    "stream/manifest.json": "b3ae142bcf144307e76737b8bf2dcf5ffefc0a171814af609c809f621cff0c1c",
    "stream/proba_0000.probimg": "96ee8545bf0286f9d521a44e4e791004d7e6bfcc180b31be026e56b65c728644",
    "stream/proba_0001.probimg": "c320bf60c069649e7fbd1865a9e50fe33889200da35dafe46c0bbcc362b68a7b",
    "stream/proba_0002.probimg": "f1daab5dc5103c4a48791783c1a3a8eb5b14ad5ddd7b124d1d243280abbd9495",
    "stream/proba_0003.probimg": "46fad4602fe49496a7529a493ad5db5ecaa0c8848c625489decdc82ed90356ef",
    "stream/proba_0004.probimg": "d597bc122a167c64d3b55828983c127bf947643ec3df0d88c19e7fe7455032cd",
    "stream/proba_0005.probimg": "8f0b3ace038e7047de69ffb789eed4340d3ba411f3f553c449479afa16d94487",
    "stream/proba_0006.probimg": "44b1d4bd845cde8818d11ec12683bf3a752e74a89441e9fded5d10ba0118d21c",
    "stream/proba_0007.probimg": "830731e38aa199ce52647200d977e3e749ac1aacff291e8d40516be0f18ce66f",
    "stream/proba_0008.probimg": "9593c67011ba9e0189de9f6a892bcd86dc57edaf2624db608e56f8304d46bd92",
    "stream/proba_0009.probimg": "cd20cbf5441d3756bad578cde3e8ad587578962d9c76be1503167d138864b5ca",
    "stream/proba_0010.probimg": "a2939d5a7e37a0807169f713fc0669e2880bec013f2acc157090d5850b8608b4",
    "stream/proba_0011.probimg": "8bb9b159430b8f5a814308efee38a80af7e3018a177ad3708983a998575acb5e",
    "stream/proba_0012.probimg": "8c1e640bf16c675f05c3d7721c5083dcf849e991bcc489354ac31fa200ab2c84",
    "stream/proba_0013.probimg": "8352ff7ce93f3aba237430a5c83f770bcbcac0bb310aa5143b00874d6e66a0ac",
    "stream/proba_0014.probimg": "7129028d959e9783e1a00bbf5b559288e17c73eac8e7d86062551e11ed155cf3",
    "stream/proba_0015.probimg": "b2b136def7666c47ce4bf2250adc2293bb1ecbd4bf80d84942537e02f005a998",
    "stream/proba_0016.probimg": "b5c95d43ceb29151f5da9dab9dd19633f6ecdef6bb6a32577b367ea7fda6966e",
    "stream/proba_0017.probimg": "b0d64c41ea4ec0de6efa123bd78db3a88883fa75871bacd31adad9a42b7e030a",
    "stream/proba_0018.probimg": "53eef652dad97ba0a1a21aa948f78275dc11c85e337a12192e3c60dd45795987",
    "stream/proba_0019.probimg": "0e05cb1c78d1276d809bf68a91f867b0e886a072d865ba73e837dca80b2a95b1",
    "stream/proba_0020.probimg": "acce9b0353ef04fe6574515493d3f9c87b308d8d63388be34114d7a566983a63",
    "stream/proba_0021.probimg": "5b02811e08546558518bd2b72ddfe4d8f6561fb301117fbec2ac7468cc7c8747",
}


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def pipeline_digests(tmp_path: Path) -> dict:
    """sha256 of every output of the canonical CLI run, keyed by path under
    ``tmp_path`` (``fuse.stdout`` for the fuse stdout)."""
    paths = write_cli_inputs(tmp_path, transition_frames=2)
    _run("simulate", "--scene", paths["scene"], "--trajectory", paths["trajectory"],
         "--out", tmp_path / "stream", "--seed", 42, "--confidence", 0.8,
         "--flip-rate", 0.05, "--num-labels", 40)
    fuse_stdout = _run("fuse", tmp_path / "stream" / "manifest.json",
                       "--out", tmp_path / "grid.lgrid", "--num-labels", 40,
                       "--roi", "0,0,0,0.3,0.3,0.4",
                       "--per-frame-snapshots", tmp_path / "snaps")
    _run("eval", tmp_path / "grid.lgrid", "--boxes", paths["boxes"],
         "--out", tmp_path / "eval.json")
    _run("eval", tmp_path / "snaps", "--boxes", paths["boxes"],
         "--out", tmp_path / "eval.csv")
    inputs = set(paths.values())
    digests = {"fuse.stdout": hashlib.sha256(fuse_stdout.encode()).hexdigest()}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and path not in inputs:
            digests[path.relative_to(tmp_path).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_pipeline_outputs_match_golden_digests(tmp_path):
    digests = pipeline_digests(tmp_path)
    assert sorted(digests) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert not changed, f"outputs changed: {changed}"


def write_two_label_stream(root: Path) -> Path:
    """A still 64x64 stream of 6 frames, p of label 0 uniform in [0.2, 0.8] and
    depth uniform in [0.5, 1.0] m; returns its manifest."""
    rng = np.random.default_rng(0)
    intr = CameraIntrinsics(fx=64.0, fy=64.0, cx=32.0, cy=32.0, width=64, height=64)
    records = []
    for i in range(6):
        p = rng.uniform(0.2, 0.8, (64, 64))
        write_depth_pgm(root / f"depth_{i}.pgm", rng.uniform(0.5, 1.0, (64, 64)))
        write_probimg(root / f"proba_{i}.probimg", np.stack([p, 1.0 - p], axis=2))
        records.append({"depth_file": f"depth_{i}.pgm", "proba_file": f"proba_{i}.probimg",
                        "pose": pose_record(Pose.identity(), intr, 0.25 * i)})
    write_manifest(root / "manifest.json", records)
    return root / "manifest.json"


def test_snapshot_bytes_do_not_depend_on_numpy_simd_kernels(tmp_path):
    """fuse writes the same LGRID1 bytes with numpy's AVX-512 kernels on and off.

    The probabilities are not the simulator's small table, so the logits
    ``update`` adds come from numpy's SIMD ``log`` on many distinct values,
    and the clamp of 50 keeps the sums off the bound. The in-memory float64
    log-odds may differ by an ulp between the kernels; the float32 values of
    LGRID1 must not. On a CPU without AVX-512, both children run the same
    kernels, so the test checks nothing there.
    """
    manifest = write_two_label_stream(tmp_path)
    src = str(Path(labelgrid.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    snapshots = []
    # numpy's AVX-512 kernel groups; an x86-64 CPU without AVX-512 never runs them
    avx512_off = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    for name, extra in (("default", {}), ("avx512_off", avx512_off)):
        out = tmp_path / f"{name}.lgrid"
        child = subprocess.run(
            [sys.executable, "-m", "labelgrid.cli", "fuse", str(manifest), "--out", str(out),
             "--num-labels", "2", "--resolution", "0.01", "--clamp", "50",
             "--settle-frames", "1"],
            capture_output=True, text=True, env={**env, **extra})
        assert child.returncode == 0, child.stderr
        assert '"frames_fused": 6' in child.stdout
        snapshots.append(out.read_bytes())
    assert snapshots[0] == snapshots[1]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in pipeline_digests(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
